package main

import (
	"encoding/json"
	"fmt"
	"time"

	"maxminlp"
)

// replayResult is what the in-process library says the daemon should
// have served.
type replayResult struct {
	want []uint64 // answerHash per timed op
	// rowsOverOne[i] counts the resource rows of timed op i's answer
	// whose load Σ a_iv x_v exceeds 1.
	rowsOverOne []int
	// Wall times of the per-op library calls of a patch workload, by
	// span name (traced runs report them).
	spans map[string][]time.Duration
}

// replay walks the same seeded op stream through maxminlp.NewSolver,
// UpdateWeights and LocalAverage in-process: warm untimed ops, then
// timed ops whose answers are returned. A cluster is checked against
// this single-process result too. It runs after the daemons have
// stopped, so reference solving never competes with a measurement.
func replay(p *inputs, warm, timed int) (*replayResult, error) {
	rr := &replayResult{spans: map[string][]time.Duration{}}
	span := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		rr.spans[name] = append(rr.spans[name], time.Since(t0))
		return err
	}
	in := new(maxminlp.Instance)
	if err := json.Unmarshal(p.instJSON, in); err != nil {
		return nil, err
	}
	sess := maxminlp.NewSolver(in, maxminlp.GraphOptions{})
	avg, err := sess.LocalAverage(p.w.radius)
	if err != nil {
		return nil, fmt.Errorf("replay cold solve: %w", err)
	}
	record := func() error {
		cur := sess.Instance()
		h, err := answerHash(avg.X, cur.Objective(avg.X))
		if err != nil {
			return err
		}
		rr.want = append(rr.want, h)
		rr.rowsOverOne = append(rr.rowsOverOne, rowsOverOne(cur, avg.X))
		return nil
	}
	if p.w.onboard {
		// Onboard ops solve the same instance cold each time: every answer
		// equals this one.
		for i := 0; i < timed; i++ {
			if err := record(); err != nil {
				return nil, err
			}
		}
		return rr, nil
	}
	st := p.stream()
	for i := 0; i < warm+timed; i++ {
		o, err := st.next()
		if err != nil {
			return nil, err
		}
		if err := span("core.update_weights", func() error {
			return sess.UpdateWeights([]maxminlp.WeightDelta{weightDelta(*o.patch)})
		}); err != nil {
			return nil, fmt.Errorf("replay op %d: %w", i, err)
		}
		if err := span("core.local_average", func() (err error) {
			avg, err = sess.LocalAverage(p.w.radius)
			return err
		}); err != nil {
			return nil, fmt.Errorf("replay op %d: %w", i, err)
		}
		if i >= warm {
			if err := record(); err != nil {
				return nil, err
			}
		}
	}
	return rr, nil
}

// rowsOverOne audits an answer against the paper's feasibility
// guarantee: it counts resource rows with Σ a_iv x_v > 1, summing in
// the row's stored (ascending agent) order. A row over by one ulp is
// counted, not forgiven; it does not fail the op.
func rowsOverOne(in *maxminlp.Instance, x []float64) int {
	n := 0
	for i := 0; i < in.NumResources(); i++ {
		load := 0.0
		for _, e := range in.Resource(i) {
			load += e.Coeff * x[e.Agent]
		}
		if load > 1 {
			n++
		}
	}
	return n
}
