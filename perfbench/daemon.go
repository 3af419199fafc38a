package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"maxminlp/internal/httpapi"
)

// proc is one running mmlpd process. Its stderr is drained for the
// whole lifetime: the listen lines give the addresses, and the last
// lines explain a failure.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed when stderr reaches EOF

	mu   sync.Mutex
	tail []string
}

var (
	reListen  = regexp.MustCompile(`mmlpd listening on (\S+)`)
	reCluster = regexp.MustCompile(`mmlpd coordinator waiting for \d+ workers on (\S+)`)
	reWorker  = regexp.MustCompile(`worker serving http on (\S+)`)
)

// startProc spawns bin and waits until each pattern has matched a
// stderr line, returning the first submatch of each in order.
func startProc(bin string, args []string, patterns ...*regexp.Regexp) (*proc, []string, error) {
	cmd := exec.Command(bin, args...)
	// A benchmark killed from outside must not leave daemons behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	found := make([]chan string, len(patterns))
	for i := range found {
		found[i] = make(chan string, 1)
	}
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		matched := make([]bool, len(patterns))
		for sc.Scan() {
			line := sc.Text()
			for i, re := range patterns {
				if m := re.FindStringSubmatch(line); m != nil && !matched[i] {
					matched[i] = true
					found[i] <- m[1]
				}
			}
			p.mu.Lock()
			p.tail = append(p.tail, line)
			if len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, stderr) // a line too long for the scanner
	}()
	addrs := make([]string, len(patterns))
	deadline := time.After(60 * time.Second)
	for i := range patterns {
		select {
		case addrs[i] = <-found[i]:
		case <-p.done:
			p.stop()
			return nil, nil, fmt.Errorf("%s exited during start-up: %s", bin, p.lastLines())
		case <-deadline:
			p.stop()
			return nil, nil, fmt.Errorf("%s: no %q line within 60s: %s", bin, patterns[i], p.lastLines())
		}
	}
	return p, addrs, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) lastLines() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, " | ")
}

// stop kills the process and waits until it and its stderr reader have
// ended.
func (p *proc) stop() {
	_ = p.cmd.Process.Kill() // already exited is fine
	<-p.done
	_ = p.cmd.Wait() // a killed process reports "signal: killed"
}

// deployment is the set of daemon processes one run drives: a single
// daemon, or a coordinator followed by its workers. procs[0] serves the
// API.
type deployment struct {
	procs   []*proc
	api     string   // base URL of the API
	metrics []string // /metrics URL of every process, procs order
	dataDir string   // durable state of the single daemon ("" for cluster)
	trace   string   // -trace JSONL file ("" when untraced)
}

// deploy starts the workload's processes and waits until the API
// answers healthy (for a cluster: formed with every worker).
func deploy(bin string, w *workload, dir string, traced bool, hc *http.Client) (*deployment, error) {
	d := &deployment{}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var extra []string
	if traced {
		d.trace = filepath.Join(dir, "trace.jsonl")
		extra = append(extra, "-trace", d.trace)
	}
	if !w.cluster {
		d.dataDir = filepath.Join(dir, "data")
		args := append([]string{"-addr", "127.0.0.1:0", "-quiet", "-data-dir", d.dataDir}, extra...)
		p, addrs, err := startProc(bin, args, reListen)
		if err != nil {
			return nil, err
		}
		d.procs = append(d.procs, p)
		d.api = "http://" + addrs[0]
		d.metrics = append(d.metrics, d.api+"/metrics")
	} else {
		args := append([]string{"-role", "coordinator", "-addr", "127.0.0.1:0",
			"-cluster-addr", "127.0.0.1:0", "-workers", strconv.Itoa(clusterWorkers), "-quiet"}, extra...)
		p, addrs, err := startProc(bin, args, reListen, reCluster)
		if err != nil {
			return nil, err
		}
		d.procs = append(d.procs, p)
		d.api = "http://" + addrs[0]
		d.metrics = append(d.metrics, d.api+"/metrics")
		for i := 0; i < clusterWorkers; i++ {
			wp, waddrs, err := startProc(bin, []string{"-role", "worker", "-join", addrs[1],
				"-addr", "127.0.0.1:0", "-data", "127.0.0.1:0"}, reWorker)
			if err != nil {
				d.stop()
				return nil, err
			}
			d.procs = append(d.procs, wp)
			d.metrics = append(d.metrics, "http://"+waddrs[0]+"/metrics")
		}
	}
	if err := d.waitHealthy(w, hc); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *deployment) waitHealthy(w *workload, hc *http.Client) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(d.api + "/healthz")
		if err == nil {
			var h httpapi.HealthResponse
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if derr == nil && h.Status == "ok" && (!w.cluster || h.Workers == clusterWorkers) {
				return nil
			}
		}
		// Poll finely: an onboard set-up is a few milliseconds long.
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("daemon not healthy within 60s: %s", d.procs[0].lastLines())
}

func (d *deployment) stop() {
	for i := len(d.procs) - 1; i >= 0; i-- {
		d.procs[i].stop()
	}
}

// clkTck is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clkTck = 100

// cpuMs returns utime+stime of the processes in milliseconds.
func (d *deployment) cpuMs() (float64, error) {
	total := 0.0
	for _, p := range d.procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.pid()))
		if err != nil {
			return 0, err
		}
		// The command name may hold spaces; fields resume after ')'.
		s := string(b)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) < 13 {
			return 0, fmt.Errorf("short /proc/%d/stat", p.pid())
		}
		for _, field := range f[11:13] { // utime, stime (fields 14, 15)
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return 0, err
			}
			total += v * 1000 / clkTck
		}
	}
	return total, nil
}

// rssPeakMiB sums VmHWM over the processes.
func (d *deployment) rssPeakMiB() (float64, error) {
	total := 0.0
	for _, p := range d.procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid()))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, err
				}
				total += kb / 1024
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.pid())
		}
	}
	return total, nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}
