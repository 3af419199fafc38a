package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"maxminlp"
	"maxminlp/internal/httpapi"
)

// workload is one traffic mix. Every op of a workload has the same
// shape, so a run-to-run difference is the program's, not the mix's.
type workload struct {
	name   string
	dims   []int // torus dimensions
	random bool  // seeded random coefficients (else unit)
	radius int   // local-averaging radius of every solve

	// onboard uploads, solves and deletes a fresh instance per op; the
	// others preload one instance during set-up, and each of their ops
	// starts with a 1-entry /weights patch.
	onboard bool
	cluster bool // coordinator + clusterWorkers worker processes

	warmOps  int // untimed ops before each timed segment
	countOps int // traced run: ops whose per-op counts are reported
	setups   int // set-ups per run; setup_s is their median
	segments int // the last segments set-ups each serve a timed segment
}

const clusterWorkers = 2

var workloads = []*workload{
	{name: "onboard", dims: []int{32, 32}, radius: 2, onboard: true,
		warmOps: 4, countOps: 40, setups: 41, segments: 4},
	{name: "churn", dims: []int{24, 24}, random: true, radius: 2,
		warmOps: 40, countOps: 200, setups: 8, segments: 8},
	{name: "cluster", dims: []int{16, 16}, random: true, radius: 1, cluster: true,
		warmOps: 4, countOps: 30, setups: 8, segments: 4},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want onboard, churn or cluster)", name)
}

// zipfS is the Zipf exponent of the per-agent patch rate: a few hot
// agents take most patches. The value is an assumption, not a
// measurement: no per-agent update-rate distribution has been measured
// for this traffic. The churn traced run replays the same stream with
// uniformly drawn agents (probe.uniform_*) to show how much the churn
// figures depend on it.
const zipfS = 1.2

// segmentSeed derives timed segment k's input seed from the run's seed.
func segmentSeed(seed int64, k int) int64 { return seed<<8 | int64(k) }

// inputs is everything a run sends, derived from the seed alone.
type inputs struct {
	w        *workload
	seed     int64
	instJSON []byte // the instance, inline JSON in generator label order
	in       *maxminlp.Instance
	loadBody []byte
	solve    []byte
}

func newInputs(w *workload, seed int64) (*inputs, error) {
	opt := maxminlp.LatticeOptions{}
	if w.random {
		opt = maxminlp.LatticeOptions{RandomWeights: true, Rng: rand.New(rand.NewSource(seed))}
	}
	gen, _ := maxminlp.Torus(w.dims, opt)
	raw, err := json.Marshal(gen)
	if err != nil {
		return nil, fmt.Errorf("encode instance: %w", err)
	}
	// The daemon and the replay both decode these same bytes, so they
	// start from one instance bit for bit.
	in := new(maxminlp.Instance)
	if err := json.Unmarshal(raw, in); err != nil {
		return nil, fmt.Errorf("decode instance: %w", err)
	}
	load, err := json.Marshal(httpapi.LoadRequest{
		Name: fmt.Sprintf("%s-s%d", w.name, seed), Instance: raw,
	})
	if err != nil {
		return nil, err
	}
	solve, err := json.Marshal(httpapi.SolveRequest{
		Queries:  []httpapi.SolveQuery{{Kind: "average", Radius: w.radius}},
		IncludeX: true,
	})
	if err != nil {
		return nil, err
	}
	return &inputs{w: w, seed: seed, instJSON: raw, in: in, loadBody: load, solve: solve}, nil
}

// request is one HTTP call of an op. Endpoint is the name the daemon's
// trace spans carry; "{id}" in path stands for the instance ID the
// daemon assigned at load.
type request struct {
	endpoint string
	method   string
	path     string
	body     []byte
}

// op is one closed-loop operation: its requests, sent back to back, and
// the weight patch it applies (nil when it applies none).
type op struct {
	reqs  []request
	patch *httpapi.CoeffPatch
}

func (p *inputs) loadReq() request {
	return request{"load", "POST", "/v1/instances", p.loadBody}
}

func (p *inputs) solveReq() request {
	return request{"solve", "POST", "/v1/instances/{id}/solve", p.solve}
}

// preload is the set-up op of the preloaded workloads: load the
// instance and solve it cold.
func (p *inputs) preload() op { return op{reqs: []request{p.loadReq(), p.solveReq()}} }

// opStream yields the seeded op sequence: op i is the same for the same
// seed, so the daemon run and the in-process replay walk one sequence.
type opStream struct {
	p     *inputs
	rng   *rand.Rand
	agent func() int // the agent the next patch goes to
}

func (p *inputs) stream() *opStream { return p.streamOf(false) }

// streamOf is stream, or with uniform set the same stream shape with
// every agent equally likely to be patched.
func (p *inputs) streamOf(uniform bool) *opStream {
	// Offset from the seed that drew the instance's coefficients, so the
	// patch stream is not the same random sequence.
	rng := rand.New(rand.NewSource(p.seed ^ 0x5eed))
	n := p.in.NumAgents()
	s := &opStream{p: p, rng: rng}
	if uniform {
		s.agent = func() int { return rng.Intn(n) }
		return s
	}
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	perm := rng.Perm(n) // Zipf rank → agent, so hot agents are spread over the torus
	s.agent = func() int { return perm[zipf.Uint64()] }
	return s
}

func (s *opStream) next() (op, error) {
	p := s.p
	if p.w.onboard {
		return op{reqs: []request{p.loadReq(), p.solveReq(),
			{"delete", "DELETE", "/v1/instances/{id}", nil}}}, nil
	}
	c := s.nextPatch()
	body, err := json.Marshal(httpapi.WeightsRequest{Resources: []httpapi.CoeffPatch{c}})
	if err != nil {
		return op{}, err
	}
	return op{reqs: []request{{"weights", "POST", "/v1/instances/{id}/weights", body},
		p.solveReq()}, patch: &c}, nil
}

// nextPatch draws one 1-entry resource-coefficient patch: an agent (Zipf
// chosen unless uniform), one of its resource rows, a coefficient in
// [0.5, 1.5).
func (s *opStream) nextPatch() httpapi.CoeffPatch {
	v := s.agent()
	rows := s.p.in.AgentResources(v)
	return httpapi.CoeffPatch{
		Row:   rows[s.rng.Intn(len(rows))],
		Agent: v,
		Coeff: 0.5 + s.rng.Float64(),
	}
}

func weightDelta(c httpapi.CoeffPatch) maxminlp.WeightDelta {
	return maxminlp.WeightDelta{Kind: maxminlp.ResourceWeight, Row: c.Row, Agent: c.Agent, Coeff: c.Coeff}
}
