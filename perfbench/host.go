package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostRecord is the per-run host state, printed with every result so
// that a run taken on a busy host shows as such instead of being
// averaged in.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git HEAD when the checkout has one; Source is a
	// digest of every .go file and go.mod, which names the code even
	// in a checkout without git metadata.
	Commit string `json:"commit,omitempty"`
	Source string `json:"source"`
	// CalibrationMs times a fixed CPU-bound loop that touches no code
	// of this repository (median of 5), before the run's first set-up
	// and after its last segment: a host running slower than usual
	// shows here even when it reports no steal.
	CalibrationMs      float64 `json:"calibration_ms"`
	CalibrationAfterMs float64 `json:"calibration_after_ms"`
	LoadBefore         string  `json:"loadavg_before"`
	LoadAfter          string  `json:"loadavg_after"`
	StealTicks         int64   `json:"steal_ticks"`  // /proc/stat steal delta over the timed window
	TotalTicks         int64   `json:"total_ticks"`  // all-CPU tick delta over the same window
	StealShare         float64 `json:"steal_share"`  // steal / total
	WindowS            float64 `json:"window_s"`     // timed window length
	WarmupOps          int     `json:"warmup_ops"`   // untimed ops before it
	SetupRepeat        int     `json:"setup_repeat"` // set-ups whose median is setup_s
}

func newHostRecord(root string) hostRecord {
	return hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitHead(root),
		Source:     sourceDigest(root),
	}
}

// calibrate sorts the same pseudo-random 100,000 floats five times and
// returns the median time in milliseconds.
func calibrate() float64 {
	base := make([]float64, 100000)
	r := rand.New(rand.NewSource(1))
	for i := range base {
		base[i] = r.Float64()
	}
	buf := make([]float64, len(base))
	times := make([]float64, 5)
	for i := range times {
		copy(buf, base)
		t0 := time.Now()
		sort.Float64s(buf)
		times[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(times)
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(b))
}

// cpuTicks returns the steal and total ticks of the aggregate "cpu"
// line of /proc/stat.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseInt(s, 10, 64)
		// guest and guest_nice (fields 9, 10) are already inside user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// gitHead reads .git/HEAD without running git; "" when there is none.
func gitHead(root string) string {
	b, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	head := strings.TrimSpace(string(b))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return ref
}

func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(name, ".go") || name == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			fmt.Fprintf(h, "%s %d\n", rel, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unavailable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
