package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"maxminlp"
	"maxminlp/internal/httpapi"
	"maxminlp/internal/mmlp"
	"maxminlp/internal/wal"
	"maxminlp/internal/wire"
)

// traceSpan is one daemon request span read back from the -trace JSONL:
// its total duration and the duration of each phase the handler marked.
type traceSpan struct {
	ID     uint64           `json:"id"`
	Name   string           `json:"name"`
	DurNs  int64            `json:"dur_ns"`
	Phases map[string]int64 `json:"phases"`
}

func readTrace(path string) ([]traceSpan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byID := map[uint64]*traceSpan{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var e struct {
			Span  uint64 `json:"span"`
			Name  string `json:"name"`
			Phase string `json:"phase"`
			DurNs int64  `json:"dur_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("trace %s: %w", path, err)
		}
		s := byID[e.Span]
		if s == nil {
			s = &traceSpan{ID: e.Span, Name: e.Name, Phases: map[string]int64{}}
			byID[e.Span] = s
		}
		if e.Phase == "" {
			s.DurNs = e.DurNs
		} else {
			s.Phases[e.Phase] += e.DurNs
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]traceSpan, 0, len(byID))
	for _, s := range byID {
		out = append(out, *s)
	}
	// Span IDs are handed out at request start, and the single
	// closed-loop client never overlaps its requests.
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// joinTrace pairs every timed op's client spans with the daemon spans
// of the same requests. Within one endpoint the daemon serves requests
// in send order, and the timed ops are the last requests of each
// endpoint, so the k-th from last client span of an endpoint is the
// k-th from last daemon span of that name.
func joinTrace(results []opResult, spans []traceSpan) ([][]traceSpan, error) {
	byName := map[string][]traceSpan{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	need := map[string]int{}
	for _, r := range results {
		for _, cs := range r.spans {
			need[cs.Endpoint]++
		}
	}
	next := map[string]int{}
	for name, n := range need {
		if len(byName[name]) < n {
			return nil, fmt.Errorf("trace has %d %s spans, the timed ops sent %d", len(byName[name]), name, n)
		}
		next[name] = len(byName[name]) - n
	}
	out := make([][]traceSpan, len(results))
	for i, r := range results {
		for _, cs := range r.spans {
			out[i] = append(out[i], byName[cs.Endpoint][next[cs.Endpoint]])
			next[cs.Endpoint]++
		}
	}
	return out, nil
}

// writeSpans keeps the joined client and daemon spans of a traced run
// for inspection, one JSON object per op.
func writeSpans(path string, results []opResult, joined [][]traceSpan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, r := range results {
		if err := enc.Encode(struct {
			Client []clientSpan `json:"client"`
			Daemon []traceSpan  `json:"daemon"`
		}{r.spans, joined[i]}); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// perLayer computes the per-layer metrics of a traced window. untracedP50
// is the p50 of the untraced window run just before, for the tracing
// overhead. Values are per op unless the doc says otherwise.
func perLayer(cfg *config, p *inputs, win *window, rr *replayResult, untracedP50 float64) (map[string]metric, error) {
	w := cfg.w
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	ops := float64(len(win.results))
	lat := win.latenciesMs()

	// Scrape deltas of the API process: counts over the first countOps
	// timed ops (so they repeat exactly), times over the whole window.
	counts := &deltas{before: win.scrapes[0][0], after: win.scrapes[1][0]}
	times := &deltas{before: win.scrapes[0][0], after: win.scrapes[2][0]}
	n := float64(w.countOps)
	ms := func(d *deltas, name string, labels ...string) float64 { return d.get(name, labels...) * 1000 / ops }

	serverMs := times.sumPrefix("mmlpd_http_request_seconds_sum{", `"metrics"`, `"healthz"`) * 1000 / ops
	set("mmlpd.server_ms", "ms", serverMs)
	set("mmlpd.client_gap_ms", "ms", mean(lat)-serverMs)

	coreMs := 0.0
	for _, ph := range []string{"fingerprint", "group", "lp_solve", "accumulate"} {
		v := ms(times, "mmlp_solve_phase_seconds_sum", "phase", ph)
		set("core."+ph+"_ms", "ms", v)
		coreMs += v
	}
	updateMs := ms(times, "mmlp_update_seconds_sum", "kind", "weights")
	set("core.update_ms", "ms", updateMs)
	hits := counts.get("mmlp_solve_cache_total", "result", "hit")
	misses := counts.get("mmlp_solve_cache_total", "result", "miss")
	set("core.ball_lps", "count", misses/n)
	set("core.dedup_base", "count", (hits+misses)/n)
	set("core.dedup_hit_ratio", "ratio", ratio(hits, hits+misses))
	set("core.agents_resolved", "count", counts.get("mmlp_solve_agents_resolved_total")/n)
	set("core.invalidated_balls", "count", counts.get("mmlp_update_invalidated_balls_total", "kind", "weights")/n)

	solves := counts.get("mmlp_lp_solves_total")
	pivots := counts.get("mmlp_lp_pivots_total")
	set("lp.solves", "count", solves/n)
	set("lp.pivots", "count", pivots/n)
	set("lp.pivots_per_solve", "count", ratio(pivots, solves))
	set("lp.rows_mean", "count", ratio(counts.get("mmlp_lp_tableau_rows_sum"), counts.get("mmlp_lp_tableau_rows_count")))
	set("lp.vars_mean", "count", ratio(counts.get("mmlp_lp_tableau_vars_sum"), counts.get("mmlp_lp_tableau_vars_count")))

	set("sched.steals", "count", times.get("mmlp_sched_steals_total", "pool", "solver")/ops)
	set("sched.parks", "count", times.get("mmlp_sched_parks_total", "pool", "solver")/ops)
	set("sched.parallelism", "ratio", ratio(win.cpuPerOp(), mean(lat)))

	set("wal.appends", "count", counts.get("mmlpd_wal_appends_total")/n)
	set("wal.fsync_ms", "ms", ms(times, "mmlpd_wal_fsync_seconds_sum"))
	set("wal.bytes", "bytes", win.walBytes/ops)
	set("runtime.alloc_mb", "MiB", times.get("go_memstats_alloc_bytes_total")/(1<<20)/ops)

	controlOps := 0.0
	for i := 1; i < len(win.scrapes[0]); i++ {
		d := &deltas{before: win.scrapes[0][i], after: win.scrapes[1][i]}
		controlOps += d.sumPrefix("mmlpd_worker_control_ops_total{", `"ping"`)
		if d.err != nil {
			return nil, d.err
		}
	}
	set("cluster.control_ops", "count", controlOps/n)
	if counts.err != nil {
		return nil, counts.err
	}
	if times.err != nil {
		return nil, times.err
	}

	// Daemon trace phases, joined per op.
	joined, err := joinTrace(win.results, win.trace)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(cfg.work, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed)), win.results, joined); err != nil {
		return nil, err
	}
	phase := map[string]float64{}
	var traceServer, solvePhase float64
	fanout := make([]float64, 0, len(joined))
	for i, spans := range joined {
		for _, s := range spans {
			traceServer += float64(s.DurNs) / 1e6
			for ph, d := range s.Phases {
				phase[ph] += float64(d) / 1e6
			}
			if s.Name == "solve" {
				solvePhase += float64(s.Phases["solve"]) / 1e6
				if w.cluster {
					fanout = append(fanout, float64(s.Phases["solve"])/1e6-win.workerSolve[i])
				}
			}
		}
	}
	phaseSum := 0.0
	for _, v := range phase {
		phaseSum += v
	}
	set("mmlpd.decode_ms", "ms", phase["load"]/ops)
	set("mmlpd.validate_ms", "ms", phase["validate"]/ops)
	set("mmlpd.session_ms", "ms", phase["linearise"]/ops)
	set("mmlpd.solve_ms", "ms", phase["solve"]/ops)
	set("mmlpd.encode_ms", "ms", phase["encode"]/ops)
	set("mmlpd.self_ms", "ms", (traceServer-phaseSum)/ops)
	workerMs, fanoutMs := 0.0, 0.0
	if w.cluster {
		workerMs, fanoutMs = mean(win.workerSolve), mean(fanout)
	}
	set("cluster.worker_solve_ms", "ms", workerMs)
	set("cluster.fanout_ms", "ms", fanoutMs)
	set("core.solve_self_ms", "ms", solvePhase/ops-coreMs-workerMs-fanoutMs)

	in, err := inProcess(cfg, p, rr)
	if err != nil {
		return nil, err
	}
	for k, v := range in {
		m[k] = v
	}

	// What the layers leave unexplained of the daemon's own request
	// time: handler phases outside the solve phase, the core phases and
	// update inside it, the ball index an onboard op builds inside its
	// solve outside the core phases, and a cluster's worker and fan-out
	// time.
	explained := (phase["load"]+phase["validate"]+phase["linearise"]+phase["encode"])/ops +
		coreMs + updateMs + workerMs + fanoutMs
	if w.onboard {
		explained += m["hypergraph.ballindex_ms"].Value
	}
	set("layers.unexplained_ms", "ms", serverMs-explained)

	rows := 0
	for _, r := range rr.rowsOverOne[:w.countOps] {
		rows += r
	}
	set("audit.rows_over_one", "count", float64(rows))

	p50 := median(lat)
	set("trace.p50_ms", "ms", p50)
	set("trace.untraced_p50_ms", "ms", untracedP50)
	set("trace.overhead_ms", "ms", p50-untracedP50)
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// inProcessReps is how often each in-process call is timed; the median
// is reported.
const inProcessReps = 5

// inProcess times the public library calls an op makes, in the
// benchmark's own process after the daemons have stopped: instance JSON
// decode and encode, CSR and ball-index builds, the local-averaging
// solve and weight update, a WAL append and the cluster's wire frames.
// For onboard these are per-op costs; for the preloaded workloads the
// decode and index builds are set-up costs.
func inProcess(cfg *config, p *inputs, rr *replayResult) (map[string]metric, error) {
	w := cfg.w
	m := map[string]metric{}
	timeMs := func(f func() error) (float64, error) {
		ds := make([]float64, inProcessReps)
		for i := range ds {
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			ds[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		}
		return median(ds), nil
	}
	msOf := func(ds []time.Duration) float64 {
		v := make([]float64, len(ds))
		for i, d := range ds {
			v[i] = float64(d.Nanoseconds()) / 1e6
		}
		return median(v)
	}
	var err error // the first failed call; later records are skipped
	record := func(name, unit string, f func() error) {
		if err != nil {
			return
		}
		var v float64
		v, err = timeMs(f)
		if unit == "us" {
			v *= 1000
		}
		m[name] = metric{v, unit}
	}
	in := p.in
	record("mmlp.decode_ms", "ms", func() error { return json.Unmarshal(p.instJSON, new(maxminlp.Instance)) })
	record("mmlp.encode_ms", "ms", func() error { _, err := json.Marshal(in); return err })
	record("hypergraph.csr_ms", "ms", func() error { maxminlp.NewCSR(in); return nil })
	// Each timed BallIndex call gets a session built beforehand, so only
	// the index build is inside the span.
	sessions := make([]*maxminlp.Solver, inProcessReps)
	for i := range sessions {
		sessions[i] = maxminlp.NewSolver(in, maxminlp.GraphOptions{})
	}
	var bi *maxminlp.BallIndex
	built := 0
	record("hypergraph.ballindex_ms", "ms", func() error {
		bi = sessions[built].BallIndex(w.radius)
		built++
		return nil
	})
	if err != nil {
		return nil, err
	}
	vol := 0
	for v := 0; v < bi.NumVertices(); v++ {
		vol += bi.Size(v)
	}
	m["hypergraph.ball_volume"] = metric{float64(vol), "count"}

	switch {
	case !w.onboard:
		m["core.local_average_ms"] = metric{msOf(rr.spans["core.local_average"]), "ms"}
		m["core.update_weights_ms"] = metric{msOf(rr.spans["core.update_weights"]), "ms"}
	default:
		// An onboard op solves a fresh session cold.
		record("core.local_average_ms", "ms", func() error {
			_, err := maxminlp.NewSolver(in, maxminlp.GraphOptions{}).LocalAverage(w.radius)
			return err
		})
		m["core.update_weights_ms"] = metric{0, "ms"}
	}

	// A WAL append of the record one op writes; the cluster coordinator
	// runs without a data directory.
	m["wal.append_us"] = metric{0, "us"}
	if !w.cluster {
		dir := filepath.Join(cfg.work, "tmp", fmt.Sprintf("wal-%d", os.Getpid()))
		defer os.RemoveAll(dir)
		pol, perr := wal.ParseSyncPolicy("interval")
		if perr != nil {
			return nil, perr
		}
		walLog, _, _, oerr := wal.Open(dir, wal.Options{Policy: pol})
		if oerr != nil {
			return nil, oerr
		}
		defer walLog.Close()
		typ, body := "weights", any(httpapi.WeightsRequest{Resources: []httpapi.CoeffPatch{{Row: 0, Agent: 0, Coeff: 1.25}}})
		if w.onboard {
			typ, body = "load", map[string]any{"seq": 1, "name": "onboard", "instance": json.RawMessage(p.instJSON)}
		}
		record("wal.append_us", "us", func() error { _, err := walLog.Append(typ, "i1", body); return err })
	}

	// The frames one cluster op puts on the control plane: a weight
	// patch and a solve to each worker, and each worker's partial answer.
	m["wire.encode_us"] = metric{0, "us"}
	m["wire.decode_us"] = metric{0, "us"}
	if w.cluster {
		half := in.NumAgents() / clusterWorkers
		x := make([]float64, half)
		for i := range x {
			x[i] = 1 / float64(i+3)
		}
		msgs := []struct {
			typ  string
			body any
		}{
			{wire.TypeWeights, wire.Weights{ID: "i1", Resources: []wire.Coeff{{Row: 1, Agent: 2, Coeff: 1.25}}}},
			{wire.TypeSolve, wire.Solve{ID: "i1", Kind: "average", Radius: w.radius}},
			{wire.TypePartial, wire.Partial{Lo: 0, Hi: half, X: x}},
		}
		var frames bytes.Buffer
		record("wire.encode_us", "us", func() error {
			frames.Reset()
			for k := 0; k < clusterWorkers; k++ {
				for _, msg := range msgs {
					if err := wire.WriteMsg(&frames, msg.typ, msg.body); err != nil {
						return err
					}
				}
			}
			return nil
		})
		record("wire.decode_us", "us", func() error {
			r := bytes.NewReader(frames.Bytes())
			for k := 0; k < clusterWorkers*len(msgs); k++ {
				env, err := wire.ReadMsg(r)
				if err != nil {
					return err
				}
				var sink map[string]any
				if err := env.Decode(&sink); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	for _, k := range probeNames {
		m[k.name] = metric{0, k.unit}
	}
	switch {
	case w.onboard:
		err = probeLabels(cfg, p, m)
	case !w.cluster:
		err = probeZipf(w, p, m)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

var probeNames = []struct{ name, unit string }{
	{"probe.generator_dedup_hit_ratio", "ratio"},
	{"probe.generator_ball_lps", "count"},
	{"probe.generator_cold_solve_ms", "ms"},
	{"probe.relabelled_dedup_hit_ratio", "ratio"},
	{"probe.relabelled_ball_lps", "count"},
	{"probe.relabelled_cold_solve_ms", "ms"},
	{"probe.zipf_ball_lps", "count"},
	{"probe.zipf_pivots", "count"},
	{"probe.uniform_ball_lps", "count"},
	{"probe.uniform_pivots", "count"},
}

// probeZipf replays the churn stream in-process twice from a cold solve:
// as served, with Zipf-hot agents, and with every agent equally likely.
// It reports ball LPs and simplex pivots per op over the same ops the
// daemon's counts cover, so the record shows how far the churn figures
// depend on the assumed Zipf exponent.
func probeZipf(w *workload, p *inputs, m map[string]metric) error {
	for _, c := range []struct {
		name    string
		uniform bool
	}{{"zipf", false}, {"uniform", true}} {
		sess := maxminlp.NewSolver(p.in, maxminlp.GraphOptions{})
		if _, err := sess.LocalAverage(w.radius); err != nil {
			return err
		}
		st := p.streamOf(c.uniform)
		lps, pivots := 0, 0
		for i := 0; i < w.warmOps+w.countOps; i++ {
			o, err := st.next()
			if err != nil {
				return err
			}
			if err := sess.UpdateWeights([]maxminlp.WeightDelta{weightDelta(*o.patch)}); err != nil {
				return err
			}
			res, err := sess.LocalAverage(w.radius)
			if err != nil {
				return err
			}
			if i >= w.warmOps {
				lps += res.LocalLPs
				pivots += res.LocalPivots
			}
		}
		n := float64(w.countOps)
		m["probe."+c.name+"_ball_lps"] = metric{float64(lps) / n, "count"}
		m["probe."+c.name+"_pivots"] = metric{float64(pivots) / n, "count"}
	}
	return nil
}

// probeLabels solves the onboard instance cold in-process twice: in
// generator label order, and after a seed-drawn relabelling of the
// agents. Both are the same LP up to names, so any difference in dedup
// hits shows that the isomorphic-ball cache keys depend on labels.
func probeLabels(cfg *config, p *inputs, m map[string]metric) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	perm := rng.Perm(p.in.NumAgents())
	relabel := func(row []mmlp.Entry) []mmlp.Entry {
		out := make([]mmlp.Entry, len(row))
		for i, e := range row {
			out[i] = mmlp.Entry{Agent: perm[e.Agent], Coeff: e.Coeff}
		}
		return out
	}
	b := mmlp.NewBuilder(p.in.NumAgents())
	for i := 0; i < p.in.NumResources(); i++ {
		b.AddResource(relabel(p.in.Resource(i))...)
	}
	for k := 0; k < p.in.NumParties(); k++ {
		b.AddParty(relabel(p.in.Party(k))...)
	}
	rel, err := b.Build()
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name string
		in   *maxminlp.Instance
	}{{"generator", p.in}, {"relabelled", rel}} {
		times := make([]float64, 3)
		var res *maxminlp.AverageResult
		for i := range times {
			sess := maxminlp.NewSolver(c.in, maxminlp.GraphOptions{})
			t0 := time.Now()
			if res, err = sess.LocalAverage(cfg.w.radius); err != nil {
				return err
			}
			times[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		}
		m["probe."+c.name+"_dedup_hit_ratio"] = metric{ratio(float64(res.SolvesAvoided), float64(res.SolvesAvoided+res.LocalLPs)), "ratio"}
		m["probe."+c.name+"_ball_lps"] = metric{float64(res.LocalLPs), "count"}
		m["probe."+c.name+"_cold_solve_ms"] = metric{median(times), "ms"}
	}
	return nil
}
