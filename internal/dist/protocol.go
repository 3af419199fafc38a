package dist

import (
	"fmt"
	"math"
	"sort"

	"maxminlp/internal/core"
)

// Protocol is a deterministic local algorithm in the model of Section
// 1.5: nodes flood agent records for Horizon() synchronous rounds, after
// which every node knows its radius-Horizon() view, and then each node
// computes its activity from that view alone. The interface is sealed
// (unexported output method) because an output function is only
// meaningful against the knowledge representation the engines gather.
type Protocol interface {
	// Name identifies the protocol in traces and error messages.
	Name() string
	// Horizon is the number of synchronous communication rounds the
	// protocol needs — its information horizon.
	Horizon() int
	// output computes one node's activity from its gathered knowledge.
	output(k *knowledge) (float64, error)
}

// SafeProtocol runs the safe algorithm of equation (2) as a distributed
// protocol. Its radius-1 view — the coefficients a_iv and the supports
// Vi of the agent's own resources — is part of every node's ROM, so it
// is a zero-round protocol: no communication at all.
type SafeProtocol struct{}

// Name returns "safe".
func (SafeProtocol) Name() string { return "safe" }

// Horizon returns 0: the safe algorithm needs no communication beyond
// the hard-wired radius-1 knowledge.
func (SafeProtocol) Horizon() int { return 0 }

// output mirrors core.SafeValue operation for operation, so the
// distributed run agrees bit-for-bit with the centralised one.
func (SafeProtocol) output(k *knowledge) (float64, error) {
	best := math.Inf(1)
	for _, inc := range k.recs[k.self].resources {
		cap := 1 / (inc.coeff * float64(len(inc.members)))
		if cap < best {
			best = cap
		}
	}
	if math.IsInf(best, 1) {
		// Iv = ∅ violates the paper's assumptions; 0 keeps feasibility.
		return 0, nil
	}
	return best, nil
}

// AverageProtocol runs the Theorem-3 local averaging algorithm with
// radius R as a message-passing protocol. Each node floods records to
// distance 2R+1 — enough to reconstruct the radius-R ball of every agent
// in its own ball, the local LP (9) of each, and the β weights of
// equation (10) — then re-solves those LPs independently and combines
// the solutions. The redundant re-solving is the point: no coordination
// is needed, and every member of V^j derives the identical x^u_j.
type AverageProtocol struct {
	// Radius is the averaging radius R of Theorem 3.
	Radius int
}

// Name returns "average(R=...)".
func (p AverageProtocol) Name() string { return fmt.Sprintf("average(R=%d)", p.Radius) }

// Horizon returns 2R+1, the knowledge radius that suffices for every
// quantity of the algorithm (cf. core.AverageResult.Radius docs).
func (p AverageProtocol) Horizon() int { return 2*p.Radius + 1 }

// output computes x̃_j of equation (10) for the node from its gathered
// view. It replays the exact arithmetic of core.LocalAverage — same ball
// order, same accumulation order, same LP formulation — so the result is
// bit-identical to the centralised run. (Session-backed runs of the
// fault-free engines take every node's output from the session instead;
// see Network.sessionOutputs.)
func (p AverageProtocol) output(k *knowledge) (float64, error) {
	balls := make(map[int][]int)
	ballOf := func(v int) []int {
		b, ok := balls[v]
		if !ok {
			b = k.ball(v, p.Radius)
			balls[v] = b
		}
		return b
	}

	// Σ_{u∈V^j} x^u_j in ascending u order — the accumulation order of
	// core.LocalAverage, so the partial sums match bit-for-bit. All the
	// redundant re-solves of this node run on one workspace-backed
	// kernel, and its isomorphic-ball cache collapses them to one
	// simplex run per distinct local LP (on symmetric instances, most of
	// a node's ball shares one orbit) — with bit-identical outputs,
	// since reuse requires an exact canonical-key match.
	solver := core.NewBallSolver()
	self := ballOf(k.self)
	var sum float64
	for _, u := range self {
		ballU := ballOf(u)
		inBall := make(map[int]bool, len(ballU))
		for _, w := range ballU {
			inBall[w] = true
		}
		xu, _, _, err := solver.Solve(k.view(ballU), ballU, inBall)
		if err != nil {
			return 0, fmt.Errorf("local LP of agent %d: %w", u, err)
		}
		sum += xu[sort.SearchInts(ballU, k.self)]
	}

	// β_j = min_{i∈Ij} n_i/N_i (equation (10)): n_i is the smallest and
	// N_i the union size of the balls of the agents sharing resource i,
	// all within distance R+1 ≤ 2R+1 of this node.
	beta := 1.0
	for _, inc := range k.recs[k.self].resources {
		union := make(map[int]bool)
		ni := math.MaxInt
		for _, m := range inc.members {
			bm := ballOf(m)
			if len(bm) < ni {
				ni = len(bm)
			}
			for _, w := range bm {
				union[w] = true
			}
		}
		if ratio := float64(ni) / float64(len(union)); ratio < beta {
			beta = ratio
		}
	}
	return beta / float64(len(self)) * sum, nil
}
