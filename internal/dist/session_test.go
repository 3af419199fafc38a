package dist

import (
	"math/rand"
	"testing"

	"maxminlp/internal/core"
	"maxminlp/internal/gen"
	"maxminlp/internal/mmlp"
)

// faultFreeEngines are the engines that serve a session-backed
// network's outputs from the session (the stabilising engine never does).
var faultFreeEngines = []string{"sequential", "goroutines", "sharded", "partitioned"}

// runFaultFree runs the protocol on every fault-free engine and requires
// each trace — X and every cost counter — to equal want bit for bit.
func runFaultFree(t *testing.T, label string, nw *Network, p Protocol, want *Trace) {
	t.Helper()
	for _, name := range faultFreeEngines {
		eng, err := New(name, Options{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := eng.Run(nw, p)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, name, err)
		}
		sameTraceGolden(t, label+"/"+name, tr, want)
	}
}

// coldTrace runs the sequential engine on a plain network over in.
func coldTrace(t *testing.T, in *mmlp.Instance, p Protocol) *Trace {
	t.Helper()
	tr, err := mustNetwork(t, in, fullGraph(in)).RunSequential(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSessionNetworkSnapshotGuard pins the instance half of the guard
// that lets a session-backed network serve outputs from the session: a
// weight update replaces the session's instance but not its graph, so
// until Resync every fault-free engine must keep serving the snapshot —
// bit-identical to a cold network over the snapshot instance, with no
// session solve at all — and after Resync the patched instance. A
// presolving session may move X by ulps, so it must never be served
// either.
func TestSessionNetworkSnapshotGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	in, _ := gen.Torus([]int{6, 6}, gen.LatticeOptions{RandomWeights: true, Rng: rng})
	proto := AverageProtocol{Radius: 1}
	sess := core.NewSolverFromGraph(in, fullGraph(in))
	nw, err := NewSessionNetwork(sess)
	if err != nil {
		t.Fatal(err)
	}
	runFaultFree(t, "initial", nw, proto, coldTrace(t, in, proto))

	row := in.AgentResources(7)[0]
	deltas := []core.WeightDelta{
		{Kind: core.ResourceWeight, Row: row, Agent: 7, Coeff: 2 * in.A(row, 7)},
		{Kind: core.PartyWeight, Row: in.AgentParties(20)[0], Agent: 20, Coeff: 0.25},
	}
	if err := sess.UpdateWeights(deltas); err != nil {
		t.Fatal(err)
	}
	patched := sess.Instance()
	snapshotTr, patchedTr := coldTrace(t, in, proto), coldTrace(t, patched, proto)
	if tracesEqual(snapshotTr, patchedTr) {
		t.Fatal("weight patch left every output unchanged; the guard is untested")
	}

	before := sess.Stats()
	runFaultFree(t, "stale", nw, proto, snapshotTr)
	if after := sess.Stats(); after.FullSolves != before.FullSolves ||
		after.IncrementalSolves != before.IncrementalSolves || after.WarmHits != before.WarmHits {
		t.Errorf("un-resynced runs solved on the session: %+v -> %+v", before, after)
	}

	if err := nw.Resync(); err != nil {
		t.Fatal(err)
	}
	runFaultFree(t, "resynced", nw, proto, patchedTr)

	sess.SetPresolve(true)
	before = sess.Stats()
	runFaultFree(t, "presolve", nw, proto, patchedTr)
	if after := sess.Stats(); after.FullSolves != before.FullSolves ||
		after.IncrementalSolves != before.IncrementalSolves || after.WarmHits != before.WarmHits {
		t.Errorf("presolving session served the runs: %+v -> %+v", before, after)
	}
}

// TestSessionNetworkPartitionedFastPath checks that the cluster's path —
// a 1-entry weight patch, Resync, then a 2-member partitioned run —
// really is served from the session's incremental LocalAverage: one
// incremental pass for the first member, a warm hit for the second, and
// no more new cache entries than that pass solved. A silent fallback to
// per-node re-solving would stay correct, so only these counts see it.
func TestSessionNetworkPartitionedFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	in, _ := gen.Torus([]int{8, 8}, gen.LatticeOptions{RandomWeights: true, Rng: rng})
	proto := AverageProtocol{Radius: 1}
	sess := core.NewSolverFromGraph(in, fullGraph(in))
	nw, err := NewSessionNetwork(sess)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New("partitioned", Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(nw, proto); err != nil { // cold solve on the session
		t.Fatal(err)
	}

	row := in.AgentResources(9)[0]
	delta := core.WeightDelta{Kind: core.ResourceWeight, Row: row, Agent: 9, Coeff: 1.5 * in.A(row, 9)}
	if err := sess.UpdateWeights([]core.WeightDelta{delta}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Resync(); err != nil {
		t.Fatal(err)
	}
	before := sess.Stats()
	tr, err := eng.Run(nw, proto)
	if err != nil {
		t.Fatal(err)
	}
	after := sess.Stats()
	if d := after.IncrementalSolves - before.IncrementalSolves; d != 1 {
		t.Errorf("incremental solves rose by %d, want 1", d)
	}
	if d := after.WarmHits - before.WarmHits; d != 1 {
		t.Errorf("warm hits rose by %d, want 1 (the second member)", d)
	}
	if after.FullSolves != before.FullSolves {
		t.Errorf("full solves rose from %d to %d", before.FullSolves, after.FullSolves)
	}
	res, err := sess.LocalAverage(proto.Radius) // warm: reports the incremental pass
	if err != nil {
		t.Fatal(err)
	}
	if misses := after.CacheEntries - before.CacheEntries; misses > res.LocalLPs {
		t.Errorf("cache took %d new entries, more than the incremental pass's %d local LPs", misses, res.LocalLPs)
	}
	for v := range res.X {
		if tr.X[v] != res.X[v] {
			t.Fatalf("X[%d] = %x, want %x", v, tr.X[v], res.X[v])
		}
	}
	sameTraceGolden(t, "vs cold", tr, coldTrace(t, sess.Instance(), proto))
}
