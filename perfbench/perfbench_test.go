package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"maxminlp/internal/httpapi"
	"maxminlp/internal/mmlp"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		name       string
		xs         []float64
		value, pct float64
		beyond     int
		ok         bool
	}{
		{"100 samples sit at p90", seq(100), 90, 90, 10, true},
		{"1000 samples sit at p99", seq(1000), 990, 99, 10, true},
		{"11 samples are the least that have a tail", seq(11), 1, 100.0 / 11, 10, true},
		{"10 samples have no tail", seq(10), 10, 100, 0, false},
		{"no samples", nil, 0, 0, 0, false},
		// 50 ones and 15 fives: the 11th largest is a five, but fives tied
		// with it are not beyond it, so the tail steps down to the ones.
		{"ties are not beyond", append(fill(50, 1), fill(15, 5)...), 1, 100 * 50.0 / 65, 15, true},
		{"all tied", fill(40, 3), 3, 100, 0, false},
	}
	for _, c := range cases {
		tl, ok := tailOf(c.xs)
		if ok != c.ok || tl.Value != c.value || math.Abs(tl.Percentile-c.pct) > 1e-9 || tl.Beyond != c.beyond || tl.Samples != len(c.xs) {
			t.Errorf("%s: got %+v ok=%v, want value %v pct %v beyond %d ok=%v", c.name, tl, ok, c.value, c.pct, c.beyond, c.ok)
		}
	}
}

func fill(n int, v float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

// The self-check's spreads must be the ones an outside check computes
// with Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	}
	for _, c := range cases {
		got, ok := quartiles(c.xs)
		if !ok || got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if _, ok := quartiles([]float64{1}); ok {
		t.Error("one sample has no quartiles")
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

const expoBefore = `# HELP mmlp_lp_pivots_total Pivots.
# TYPE mmlp_lp_pivots_total counter
mmlp_lp_pivots_total 100
# HELP mmlpd_worker_control_ops_total Ops.
# TYPE mmlpd_worker_control_ops_total counter
mmlpd_worker_control_ops_total{type="ping"} 3
mmlpd_worker_control_ops_total{type="solve"} 10
# HELP mmlp_solve_phase_seconds Phase.
# TYPE mmlp_solve_phase_seconds histogram
mmlp_solve_phase_seconds_bucket{phase="lp_solve",le="1"} 2
mmlp_solve_phase_seconds_bucket{phase="lp_solve",le="+Inf"} 2
mmlp_solve_phase_seconds_sum{phase="lp_solve"} 0.5
mmlp_solve_phase_seconds_count{phase="lp_solve"} 2
`

func mustParse(t *testing.T, s string) exposition {
	t.Helper()
	e, err := parseExposition(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestExpositionDeltas(t *testing.T) {
	before := mustParse(t, expoBefore)
	after := mustParse(t, strings.NewReplacer(
		"mmlp_lp_pivots_total 100", "mmlp_lp_pivots_total 160",
		`{type="ping"} 3`, `{type="ping"} 9`,
		`{type="solve"} 10`, `{type="solve"} 14`,
		`_sum{phase="lp_solve"} 0.5`, `_sum{phase="lp_solve"} 0.75`,
	).Replace(expoBefore))

	d := &deltas{before: before, after: after}
	if v := d.get("mmlp_lp_pivots_total"); v != 60 {
		t.Errorf("pivots delta = %v, want 60", v)
	}
	if v := d.get("mmlp_solve_phase_seconds_sum", "phase", "lp_solve"); v != 0.25 {
		t.Errorf("lp_solve sum delta = %v, want 0.25", v)
	}
	if v := d.sumPrefix("mmlpd_worker_control_ops_total{", `"ping"`); v != 4 {
		t.Errorf("control ops without pings = %v, want 4", v)
	}
	if d.err != nil {
		t.Fatal(d.err)
	}

	// A series absent from either scrape is an error, never a zero.
	if _, err := delta(before, after, "mmlp_lp_solves_total"); err == nil {
		t.Error("missing series: want an error")
	}
	partial := mustParse(t, "# TYPE mmlp_lp_pivots_total counter\nmmlp_lp_pivots_total 120\n")
	if _, err := delta(partial, after, `mmlpd_worker_control_ops_total{type="solve"}`); err == nil {
		t.Error("series missing from the first scrape: want an error")
	}
	if _, err := delta(before, partial, `mmlpd_worker_control_ops_total{type="solve"}`); err == nil {
		t.Error("series missing from the second scrape: want an error")
	}
	// A counter that went down means the process restarted.
	if _, err := delta(after, before, "mmlp_lp_pivots_total"); err == nil || !strings.Contains(err.Error(), "reset") {
		t.Errorf("counter reset: got %v, want a reset error", err)
	}
	// One failed lookup poisons the collector, so no partial result is used.
	bad := &deltas{before: before, after: partial}
	bad.get("mmlp_lp_pivots_total")
	bad.sumPrefix("mmlpd_worker_control_ops_total{")
	if bad.err == nil {
		t.Error("collector kept no error for a missing family")
	}
}

// render is a workload's request stream as bytes: set-up requests, then
// n ops, each request as method, path and body.
func render(t *testing.T, w *workload, seed int64, n int) []byte {
	t.Helper()
	p, err := newInputs(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	write := func(o op) {
		for _, r := range o.reqs {
			buf.WriteString(r.method + " " + r.path + " ")
			buf.Write(r.body)
			buf.WriteByte('\n')
		}
	}
	if !w.onboard {
		write(p.preload())
	}
	st := p.stream()
	for i := 0; i < n; i++ {
		o, err := st.next()
		if err != nil {
			t.Fatal(err)
		}
		write(o)
	}
	return buf.Bytes()
}

func TestStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b := render(t, w, 7, 50), render(t, w, 7, 50)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different request streams", w.name)
		}
		if c := render(t, w, 8, 50); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.name)
		}
	}
}

// Patches must stay valid for the daemon: an existing (row, agent)
// entry and a coefficient in [0.5, 1.5).
func TestPatchesAreServable(t *testing.T) {
	w, _ := workloadByName("churn")
	p, err := newInputs(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	hottest := func(st *opStream) int {
		hot := map[int]int{}
		for i := 0; i < 2000; i++ {
			c := st.nextPatch()
			found := false
			for _, e := range p.in.Resource(c.Row) {
				found = found || e.Agent == c.Agent
			}
			if !found || c.Coeff < 0.5 || c.Coeff >= 1.5 {
				t.Fatalf("patch %d = %+v is not an existing entry with coeff in [0.5,1.5)", i, c)
			}
			hot[c.Agent]++
		}
		maxHits := 0
		for _, n := range hot {
			maxHits = max(maxHits, n)
		}
		return maxHits
	}
	// Heavy tail: the hottest agent takes far more than a uniform share;
	// the uniform probe stream has no such head.
	share := max(2000/p.in.NumAgents(), 1)
	if got := hottest(p.stream()); got < 50*share {
		t.Errorf("hottest agent got %d of 2000 patches; want a Zipf-heavy head", got)
	}
	if got := hottest(p.streamOf(true)); got > 5*share {
		t.Errorf("uniform stream: hottest agent got %d of 2000 patches", got)
	}
}

func TestSuccessAccounting(t *testing.T) {
	res := []opResult{
		{status: served, hash: 1},
		{status: served, hash: 2},
		{status: refused},
		{status: failed},
		{status: served, hash: 99}, // wrong answer
		{status: served, hash: 6},  // beyond the replay: unverifiable
	}
	got := countOutcomes(res, []uint64{1, 2, 3, 4, 5})
	want := tally{Attempted: 6, Verified: 2, Refused: 1, Failed: 1, Wrong: 2}
	if got != want {
		t.Fatalf("tally = %+v, want %+v", got, want)
	}
	if got.missed() != 4 || got.ratio() != 2.0/6 {
		t.Errorf("missed %d ratio %v, want 4 and 1/3", got.missed(), got.ratio())
	}
	if (tally{}).ratio() != 0 {
		t.Error("no attempts must not read as success")
	}
}

// reply encodes a one-result solve reply the way mmlpd writes it.
func reply(t *testing.T, x []float64, omega float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode([]httpapi.SolveResult{{
		Kind: "average", Radius: 2, Omega: omega, PartyBound: 1.5, LocalLPs: 3, Micros: 917, X: x,
	}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAnswerHashIsBitExact(t *testing.T) {
	hash := func(x []float64, omega float64) uint64 {
		h, err := answerHash(x, omega)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	x := []float64{0.25, 0.5, 1e-9, 1.0 / 3}
	got, err := solveHash(reply(t, x, 1.0/7))
	if err != nil {
		t.Fatal(err)
	}
	if got != hash(append([]float64(nil), x...), 1.0/7) {
		t.Error("a served reply does not hash like the replay's answer")
	}
	if hash([]float64{0, 0.5}, 1) == hash([]float64{math.Copysign(0, -1), 0.5}, 1) {
		t.Error("+0 and -0 hash alike")
	}
	if hash(x, 1) == hash(x, math.Nextafter(1, 2)) {
		t.Error("a one-ulp change of ω is not seen")
	}
	y := append([]float64(nil), x...)
	y[3] = math.Nextafter(y[3], 1)
	if hash(x, 1) == hash(y, 1) {
		t.Error("a one-ulp change of x is not seen")
	}
	one := string(bytes.TrimSpace(reply(t, x, 1)))
	two := []byte(one[:len(one)-1] + "," + one[1:])
	for _, bad := range [][]byte{[]byte("[]"), []byte(`{"error":{}}`), reply(t, nil, 1), two} {
		if _, err := solveHash(bad); err == nil {
			t.Errorf("reply %.60q hashed without error", bad)
		}
	}
}

func TestRowsOverOneCountsOneUlp(t *testing.T) {
	b := mmlp.NewBuilder(3)
	b.AddUnitResource(0, 1)
	b.AddUnitResource(1, 2)
	b.AddUniformParty(1, 0, 1, 2)
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	half := 0.5
	over := math.Nextafter(math.Nextafter(half, 1), 1) // 0.5 + 2^-52
	if n := rowsOverOne(in, []float64{half, over, half}); n != 2 {
		t.Errorf("rows over one = %d, want 2 (both sums are 1 + 2^-52)", n)
	}
	if n := rowsOverOne(in, []float64{half, half, half}); n != 0 {
		t.Errorf("rows over one = %d, want 0 at exactly 1", n)
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, with the same units and bounds.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the program", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range spec.EndToEnd {
		p := endToEndMetrics[i]
		if m.Name != p.name || m.Unit != p.unit || m.Better != p.better || m.Bound != p.bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in the program", i, m, p)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if p := layerMetrics[i]; m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in the program", i, m, p)
		}
	}
}
