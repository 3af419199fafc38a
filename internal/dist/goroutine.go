package dist

import (
	"sync"
	"time"

	"maxminlp/internal/obs"
)

// barrier is a reusable synchronisation point for n goroutines: await
// blocks until all n have arrived, then releases the generation. When h
// is non-nil, each await records how long the caller waited — the skew
// between the fastest and slowest participant of the round.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   int
	h     *obs.Histogram
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	var t0 time.Time
	if b.h != nil {
		t0 = time.Now()
	}
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
		b.mu.Unlock()
	}
	if b.h != nil {
		b.h.ObserveDuration(time.Since(t0))
	}
}

// RunGoroutines executes the protocol with one goroutine per agent,
// synchronised by a round barrier: within a round, every node first
// stages its outgoing message, all nodes rendezvous, then every node
// reads its neighbours' outboxes. A node only ever writes its own state,
// reads of foreign outboxes are separated from their writes by the
// barrier, and each node's merge and output are pure functions of
// deterministically ordered inputs — so the run is race-free and its
// result, including the cost accounting, is bit-for-bit identical to
// RunSequential under any goroutine scheduling. The horizon-R local LP
// solves, the expensive part, run genuinely in parallel.
//
// Deprecated: construct the engine through the registry instead —
// New("goroutines", Options{}). The wrapper remains for source
// compatibility and behaves identically.
func (nw *Network) RunGoroutines(p Protocol) (*Trace, error) {
	return nw.runGoroutines(p)
}

func (nw *Network) runGoroutines(p Protocol) (*Trace, error) {
	nodes, err := nw.newFloodNodes(p)
	if err != nil {
		return nil, err
	}
	n := len(nodes)
	// The batch output step runs up front: the node goroutines compute
	// their own outputs as their last phase, and session-backed outputs
	// do not depend on the (fault-free) flooding.
	batch, err := nw.sessionOutputs(p, 0, n)
	if err != nil {
		return nil, err
	}
	b := newBarrier(n)
	if m := nw.obsM; m != nil {
		b.h = m.BarrierWait
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for v := 0; v < n; v++ {
		go func(v int) {
			defer wg.Done()
			nd := nodes[v]
			for round := 0; round < p.Horizon(); round++ {
				nd.stageOutbox()
				b.await() // every outbox staged and stable
				for _, u := range nw.g.Neighbors(v) {
					if msg := nodes[u].outbox; len(msg) > 0 {
						nd.deliver(msg)
					}
				}
				b.await() // every outbox read; restaging is safe again
			}
			nd.setOutput(p, batch, v)
		}(v)
	}
	wg.Wait()
	tr := &Trace{Protocol: p.Name(), Rounds: p.Horizon()}
	out, err := nw.finish(tr, nodes)
	if err != nil {
		return nil, err
	}
	nw.recordRun("goroutines", out)
	return out, nil
}
