package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// config is one benchmark invocation.
type config struct {
	mmlpd   string // daemon binary
	work    string // scratch directory inside the checkout
	root    string // checkout root
	w       *workload
	seed    int64
	seconds float64
}

// slices is how many sub-windows the timed window is cut into for the
// run record: their throughputs show whether the host was steady.
const slices = 10

// window is one measured run: set-ups, then timed segments, each on
// freshly started daemons after its own warm-up.
type window struct {
	setups   []float64    // seconds per set-up
	segments [][]opResult // timed ops, per segment
	results  []opResult   // all timed ops, segment after segment
	slices   []float64    // ops per second of each full sub-window
	cpuMs    float64      // daemon CPU time over the timed segments
	rssMiB   []float64    // peak RSS per segment
	host     hostRecord

	// Traced runs only (one segment). scrapes[k][p] is process p's
	// /metrics before the segment (k=0), after countOps ops (k=1) and at
	// its end (k=2).
	scrapes     [3][]exposition
	workerSolve []float64 // cluster: slowest worker's solve ms, per op
	walBytes    float64   // data-dir growth over the segment
	trace       []traceSpan
}

// measure makes the set-ups of one run. w.segments of them each serve
// a timed segment of cfg.seconds/w.segments with inputs ins[k]:
// spreading the window over several daemon processes and instances
// keeps one process's heap layout and GC pacing, or one instance's hot
// agents, from setting the whole run's figures. verify checks each timed
// segment's answers once its daemons have stopped. A traced run makes
// one set-up and one segment.
func measure(cfg *config, ins []*inputs, traced bool, verify func(k int, seg []opResult) error) (*window, error) {
	w := cfg.w
	setups, segments := w.setups, w.segments
	if traced {
		setups, segments = 1, 1
	}
	win := &window{host: newHostRecord(cfg.root)}
	win.host.SetupRepeat, win.host.WarmupOps = setups, w.warmOps
	win.host.LoadBefore = loadavg()
	win.host.CalibrationMs = calibrate()
	base := filepath.Join(cfg.work, "tmp", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(base)
	seg := time.Duration(cfg.seconds * float64(time.Second) / float64(segments))
	// The set-up-only repeats are spread evenly before the timed
	// segments, so setup_s samples the host over the whole run rather
	// than over its first second.
	i := 0
	for k := 0; k < segments; k++ {
		for n := (setups - segments) * (k + 1) / segments; i < n+k; i++ {
			if err := win.runSegment(cfg, ins[k], filepath.Join(base, fmt.Sprintf("setup%d", i)), traced, false, 0); err != nil {
				return nil, err
			}
		}
		if err := win.runSegment(cfg, ins[k], filepath.Join(base, fmt.Sprintf("setup%d", i)), traced, true, seg); err != nil {
			return nil, err
		}
		if err := verify(k, win.segments[k]); err != nil {
			return nil, err
		}
		i++
	}
	win.host.LoadAfter = loadavg()
	win.host.CalibrationAfterMs = calibrate()
	if win.host.TotalTicks > 0 {
		win.host.StealShare = float64(win.host.StealTicks) / float64(win.host.TotalTicks)
	}
	return win, nil
}

// runSegment starts the daemons, preloads, and when timed warms up and
// drives the closed loop for dur; it stops the daemons before returning.
func (win *window) runSegment(cfg *config, in *inputs, dir string, traced, timed bool, dur time.Duration) (err error) {
	w := cfg.w
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	t0 := time.Now()
	d, err := deploy(cfg.mmlpd, w, dir, traced, hc)
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	c := &client{hc: hc, base: d.api, spans: traced}
	if !w.onboard {
		r := c.do(in.preload())
		if r.status != served {
			return fmt.Errorf("preload: %s", r.err)
		}
		c.id = r.instance
	}
	win.setups = append(win.setups, time.Since(t0).Seconds())
	if !timed {
		return nil
	}

	st := in.stream()
	for i := 0; i < w.warmOps; i++ {
		o, err := st.next()
		if err != nil {
			return err
		}
		if r := c.do(o); r.status != served {
			return fmt.Errorf("warm-up op %d: %s", i, r.err)
		}
	}

	scrapeAll := func() ([]exposition, error) {
		out := make([]exposition, len(d.metrics))
		for i, u := range d.metrics {
			if out[i], err = scrape(hc, u); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	var bytes0 int64
	var workerPrev []exposition
	if traced {
		if win.scrapes[0], err = scrapeAll(); err != nil {
			return err
		}
		workerPrev = append([]exposition(nil), win.scrapes[0][1:]...)
		if d.dataDir != "" {
			if bytes0, err = dirBytes(d.dataDir); err != nil {
				return err
			}
		}
	}

	steal0, total0 := cpuTicks()
	cpu0, err := d.cpuMs()
	if err != nil {
		return err
	}
	var results []opResult
	start := time.Now()
	end := start.Add(dur)
	sliceStart, sliceOps := start, 0
	sliceLen := time.Duration(cfg.seconds * float64(time.Second) / slices)
	for {
		if !time.Now().Before(end) && (!traced || len(results) >= w.countOps) {
			break
		}
		o, err := st.next()
		if err != nil {
			return err
		}
		results = append(results, c.do(o))
		sliceOps++
		if traced && w.cluster {
			slowest := 0.0
			for i, u := range d.metrics[1:] {
				e, err := scrape(hc, u)
				if err != nil {
					return err
				}
				v, err := delta(workerPrev[i], e, "mmlpd_worker_solve_seconds_sum")
				if err != nil {
					return err
				}
				slowest = math.Max(slowest, v*1000)
				workerPrev[i] = e
			}
			win.workerSolve = append(win.workerSolve, slowest)
		}
		if traced && len(results) == w.countOps {
			if win.scrapes[1], err = scrapeAll(); err != nil {
				return err
			}
		}
		if now := time.Now(); now.Sub(sliceStart) >= sliceLen {
			win.slices = append(win.slices, float64(sliceOps)/now.Sub(sliceStart).Seconds())
			sliceStart, sliceOps = now, 0
		}
	}
	win.host.WindowS += time.Since(start).Seconds()
	cpu1, err := d.cpuMs()
	if err != nil {
		return err
	}
	win.cpuMs += cpu1 - cpu0
	steal1, total1 := cpuTicks()
	win.host.StealTicks += steal1 - steal0
	win.host.TotalTicks += total1 - total0
	rss, err := d.rssPeakMiB()
	if err != nil {
		return err
	}
	win.rssMiB = append(win.rssMiB, rss)
	if traced {
		if win.scrapes[2], err = scrapeAll(); err != nil {
			return err
		}
		if d.dataDir != "" {
			b1, err := dirBytes(d.dataDir)
			if err != nil {
				return err
			}
			win.walBytes = float64(b1 - bytes0)
		}
	}
	d.stop()
	tracePath := d.trace
	d = nil
	if traced {
		if win.trace, err = readTrace(tracePath); err != nil {
			return err
		}
	}
	win.segments = append(win.segments, results)
	win.results = append(win.results, results...)
	return nil
}

// latenciesMs returns every timed op's latency in milliseconds. An op
// that was not served counts as the whole window long, so it lands
// beyond any latency limit instead of vanishing from the percentiles.
func (win *window) latenciesMs() []float64 {
	out := make([]float64, len(win.results))
	for i, r := range win.results {
		out[i] = float64(r.lat.Nanoseconds()) / 1e6
		if r.status != served {
			out[i] = win.host.WindowS * 1000
		}
	}
	return out
}

func (win *window) throughput() float64 {
	return float64(len(win.results)) / win.host.WindowS
}

// cpuPerOp is the daemons' CPU time over the timed window per op.
func (win *window) cpuPerOp() float64 {
	return win.cpuMs / float64(len(win.results))
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics of an untraced window whose
// answers have been checked.
func endToEnd(win *window, t tally) (map[string]metric, tail) {
	lat := win.latenciesMs()
	tl, _ := tailOf(lat)
	return map[string]metric{
		"throughput_ops":  {win.throughput(), "1/s"},
		"latency_p50_ms":  {median(lat), "ms"},
		"latency_tail_ms": {tl.Value, "ms"},
		"cpu_ms_per_op":   {win.cpuPerOp(), "ms"},
		"rss_peak_mb":     {median(win.rssMiB), "MiB"},
		"setup_s":         {median(win.setups), "s"},
		"success_ratio":   {t.ratio(), "ratio"},
	}, tl
}
