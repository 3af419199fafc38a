// Command perfbench is the repository benchmark. It starts real mmlpd
// processes, drives them from this one process over one connection as a
// closed loop (one caller waiting for each reply), checks every served
// answer bit for bit against an in-process replay of the same seeded
// request stream, and prints every metric by name with its unit.
//
//	perfbench -mmlpd BIN -work DIR --workload churn --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// reports the per-layer metrics: an untraced run, then a run with the
// daemon's -trace JSONL, /metrics scrapes and in-process spans around
// the library calls. -selfcheck N repeats a workload N times and prints
// each end-to-end metric's spread against its bound, then checks that
// the per-op counts of two traced runs at one seed are identical.
//
// The last line of standard output is the result:
//
//	{"correct":true,"attempted":812,"failed":0,"metrics":{"latency_p50_ms":{"value":12.3,"unit":"ms"},...}}
//
// The line before it is a record of the run: host state, the tail
// percentile and its sample count, and the success accounting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// endToEndMetrics are the metrics --trace 0 reports, with the share of
// the parent commit's median by which each may worsen before a change
// counts as a regression. BENCHMARK.json carries the same bounds.
var endToEndMetrics = []struct {
	name, unit, better string
	bound              float64
}{
	{"throughput_ops", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"rss_peak_mb", "MiB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
	{"success_ratio", "ratio", "higher", 0.01},
}

// layerMetrics are the metrics --trace 1 reports. exact marks the
// per-op counts that must repeat bit for bit across runs at one seed.
var layerMetrics = []struct {
	name, unit, better string
	exact              bool
}{
	{"mmlpd.server_ms", "ms", "lower", false},
	{"mmlpd.client_gap_ms", "ms", "lower", false},
	{"mmlpd.decode_ms", "ms", "lower", false},
	{"mmlpd.validate_ms", "ms", "lower", false},
	{"mmlpd.session_ms", "ms", "lower", false},
	{"mmlpd.solve_ms", "ms", "lower", false},
	{"mmlpd.encode_ms", "ms", "lower", false},
	{"mmlpd.self_ms", "ms", "lower", false},
	{"mmlp.decode_ms", "ms", "lower", false},
	{"mmlp.encode_ms", "ms", "lower", false},
	{"hypergraph.csr_ms", "ms", "lower", false},
	{"hypergraph.ballindex_ms", "ms", "lower", false},
	{"hypergraph.ball_volume", "count", "lower", true},
	{"core.fingerprint_ms", "ms", "lower", false},
	{"core.group_ms", "ms", "lower", false},
	{"core.lp_solve_ms", "ms", "lower", false},
	{"core.accumulate_ms", "ms", "lower", false},
	{"core.update_ms", "ms", "lower", false},
	{"core.solve_self_ms", "ms", "lower", false},
	{"core.local_average_ms", "ms", "lower", false},
	{"core.update_weights_ms", "ms", "lower", false},
	{"core.ball_lps", "count", "lower", true},
	{"core.agents_resolved", "count", "lower", true},
	{"core.invalidated_balls", "count", "lower", true},
	{"core.dedup_hit_ratio", "ratio", "higher", true},
	{"core.dedup_base", "count", "lower", true},
	{"probe.generator_dedup_hit_ratio", "ratio", "higher", true},
	{"probe.generator_ball_lps", "count", "lower", true},
	{"probe.generator_cold_solve_ms", "ms", "lower", false},
	{"probe.relabelled_dedup_hit_ratio", "ratio", "higher", true},
	{"probe.relabelled_ball_lps", "count", "lower", true},
	{"probe.relabelled_cold_solve_ms", "ms", "lower", false},
	{"probe.zipf_ball_lps", "count", "lower", true},
	{"probe.zipf_pivots", "count", "lower", true},
	{"probe.uniform_ball_lps", "count", "lower", true},
	{"probe.uniform_pivots", "count", "lower", true},
	{"lp.solves", "count", "lower", true},
	{"lp.pivots", "count", "lower", true},
	{"lp.pivots_per_solve", "count", "lower", true},
	{"lp.rows_mean", "count", "lower", true},
	{"lp.vars_mean", "count", "lower", true},
	{"sched.steals", "count", "lower", false},
	{"sched.parks", "count", "lower", false},
	{"sched.parallelism", "ratio", "higher", false},
	{"wal.appends", "count", "lower", true},
	{"wal.fsync_ms", "ms", "lower", false},
	{"wal.bytes", "bytes", "lower", false},
	{"wal.append_us", "us", "lower", false},
	{"cluster.worker_solve_ms", "ms", "lower", false},
	{"cluster.fanout_ms", "ms", "lower", false},
	{"cluster.control_ops", "count", "lower", true},
	{"wire.encode_us", "us", "lower", false},
	{"wire.decode_us", "us", "lower", false},
	{"runtime.alloc_mb", "MiB", "lower", false},
	{"audit.rows_over_one", "count", "lower", true},
	{"layers.unexplained_ms", "ms", "lower", false},
	{"trace.p50_ms", "ms", "lower", false},
	{"trace.untraced_p50_ms", "ms", "lower", false},
	{"trace.overhead_ms", "ms", "lower", false},
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is the line before the result: what a reader needs to
// judge the run.
type runRecord struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Traced   bool      `json:"traced"`
	Tally    tally     `json:"tally"`
	Tail     tail      `json:"latency_tail"`
	Setups   []float64 `json:"setup_s_each"`
	// Slices is the throughput of each sub-window of the timed window.
	Slices []float64  `json:"slice_ops_per_s"`
	Host   hostRecord `json:"host"`
	// Errors lists the first few missed ops.
	Errors []string `json:"errors,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: onboard, churn or cluster")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	bin := fs.String("mmlpd", "", "mmlpd binary built from this checkout")
	work := fs.String("work", ".bench_build", "scratch directory for daemon state, traces and spans")
	selfcheck := fs.Int("selfcheck", 0, "repeat the workload N times and print each metric's spread against its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *bin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -mmlpd, --workload onboard|churn|cluster, --seconds > 0, --trace 0|1")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	workDir, err := filepath.Abs(*work)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := &config{mmlpd: *bin, work: workDir, root: root, w: w, seed: *seed, seconds: *seconds}
	if *selfcheck > 0 {
		return selfCheck(cfg, *selfcheck, stdout, stderr)
	}
	res, rec, err := runOnce(cfg, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]runRecord{"record": rec}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

// runOnce makes one benchmark run: an untraced window for the
// end-to-end metrics, and for traced runs a second, traced window for
// the per-layer ones. Answers are checked after each window.
func runOnce(cfg *config, traced bool) (result, runRecord, error) {
	w := cfg.w
	rec := runRecord{Workload: w.name, Seed: cfg.seed, Traced: traced}
	// Each timed segment gets its own inputs drawn from the run's seed,
	// so one run averages over several instances and hot-agent sets.
	ins := make([]*inputs, w.segments)
	for k := range ins {
		var err error
		if ins[k], err = newInputs(w, segmentSeed(cfg.seed, k)); err != nil {
			return result{}, rec, err
		}
	}
	chk := &checker{ins: ins, warm: w.warmOps, errs: &rec.Errors}
	win, err := measure(cfg, ins, false, chk.verify)
	if err != nil {
		return result{}, rec, err
	}
	t := chk.t
	e2e, tl := endToEnd(win, t)
	rec.Tally, rec.Tail, rec.Setups, rec.Host = t, tl, win.setups, win.host
	rec.Slices = win.slices
	res := result{Attempted: t.Attempted, Failed: t.missed(), Metrics: e2e}
	if traced {
		tchk := &checker{ins: ins[:1], warm: w.warmOps, errs: &rec.Errors}
		twin, err := measure(cfg, ins[:1], true, tchk.verify)
		if err != nil {
			return result{}, rec, err
		}
		tt := tchk.t
		if res.Metrics, err = perLayer(cfg, ins[0], twin, tchk.first, e2e["latency_p50_ms"].Value); err != nil {
			return result{}, rec, err
		}
		if err := checkCatalogue(res.Metrics); err != nil {
			return result{}, rec, err
		}
		rec.Tally = rec.Tally.add(tt)
		res.Attempted, res.Failed = rec.Tally.Attempted, rec.Tally.missed()
	}
	res.Correct = res.Failed == 0
	return res, rec, nil
}

// checker replays a timed segment's op stream in-process and compares
// every served answer with the replay's. measure calls verify as soon
// as the segment's daemons have stopped, so reference solving never
// competes with a daemon, and the run's timed segments are spread over
// its whole wall time instead of sitting in one stretch of the host.
type checker struct {
	ins   []*inputs
	warm  int
	errs  *[]string     // the run record's first few missed ops
	t     tally         // outcomes of every segment verified so far
	first *replayResult // the first segment's replay
}

func (c *checker) verify(k int, seg []opResult) error {
	rr, err := replay(c.ins[k], c.warm, len(seg))
	if err != nil {
		return err
	}
	if c.first == nil {
		c.first = rr
	}
	c.t = c.t.add(countOutcomes(seg, rr.want))
	for i, r := range seg {
		if len(*c.errs) >= 5 {
			break
		}
		switch {
		case r.status != served:
			*c.errs = append(*c.errs, fmt.Sprintf("segment %d op %d: %s", k, i, r.err))
		case r.hash != rr.want[i]:
			*c.errs = append(*c.errs, fmt.Sprintf("segment %d op %d: answer differs from the library replay", k, i))
		}
	}
	return nil
}

// checkCatalogue insists that a traced run produced exactly the
// declared per-layer metrics, so a renamed or dropped metric fails the
// run instead of silently leaving BENCHMARK.json.
func checkCatalogue(m map[string]metric) error {
	if len(m) != len(layerMetrics) {
		var got []string
		for k := range m {
			got = append(got, k)
		}
		sort.Strings(got)
		return fmt.Errorf("traced run produced %d metrics, want %d: %s", len(m), len(layerMetrics), strings.Join(got, " "))
	}
	for _, lm := range layerMetrics {
		v, ok := m[lm.name]
		if !ok {
			return fmt.Errorf("traced run is missing metric %s", lm.name)
		}
		if v.Unit != lm.unit {
			return fmt.Errorf("metric %s has unit %s, want %s", lm.name, v.Unit, lm.unit)
		}
	}
	return nil
}

// selfCheck repeats the untraced run n times at seeds seed..seed+n-1
// and prints each end-to-end metric's spread (interquartile distance
// over median) against its bound, then runs the traced run twice at one
// seed and requires every exact per-op count to repeat. It fails when a
// spread exceeds its bound or a count differs.
func selfCheck(cfg *config, n int, stdout, stderr io.Writer) int {
	vals := map[string][]float64{}
	ok := true
	for i := 0; i < n; i++ {
		c := *cfg
		c.seed = cfg.seed + int64(i)
		res, rec, err := runOnce(&c, false)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		line, _ := json.Marshal(map[string]any{"seed": c.seed, "correct": res.Correct, "metrics": res.Metrics, "host": rec.Host})
		fmt.Fprintln(stdout, string(line))
		ok = ok && res.Correct
		for k, v := range res.Metrics {
			vals[k] = append(vals[k], v.Value)
		}
	}
	fmt.Fprintf(stdout, "%-16s %12s %12s %12s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, m := range endToEndMetrics {
		q, _ := quartiles(vals[m.name])
		s := spread(vals[m.name])
		verdict := "ok"
		if !(s <= m.bound/3) {
			verdict = "over a third of the bound"
		}
		if !(s <= m.bound) {
			verdict, ok = "OVER BOUND", false
		}
		fmt.Fprintf(stdout, "%-16s %12.4f %12.4f %12.4f %8.4f %8.2f  %s\n", m.name, q[0], q[1], q[2], s, m.bound, verdict)
	}
	var counts [2]map[string]metric
	for i := range counts {
		res, _, err := runOnce(cfg, true)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		counts[i] = res.Metrics
	}
	for _, lm := range layerMetrics {
		if !lm.exact {
			continue
		}
		a, b := counts[0][lm.name].Value, counts[1][lm.name].Value
		verdict := "repeats"
		if a != b {
			verdict, ok = "DIFFERS", false
		}
		fmt.Fprintf(stdout, "%-34s %14.6f %14.6f  %s\n", lm.name, a, b, verdict)
	}
	if !ok {
		return 1
	}
	return 0
}
