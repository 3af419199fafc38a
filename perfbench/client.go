package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"time"

	"maxminlp/internal/httpapi"
)

// newHTTPClient returns a client that keeps exactly one connection to
// the daemon: the load is one closed-loop caller waiting for each reply.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// status classifies one op for success_ratio.
type status int

const (
	served  status = iota // every reply 2xx and well formed
	refused               // the daemon answered with an error status
	failed                // transport error or malformed reply
)

// clientSpan is the benchmark's own record of one request: ID names
// the op and the request within it, and Endpoint matches the daemon's
// trace span name, so the two join on (endpoint, order).
type clientSpan struct {
	ID       string `json:"id"`
	Endpoint string `json:"endpoint"`
	Start    int64  `json:"start_unix_ns"`
	DurNs    int64  `json:"dur_ns"`
}

// opResult is the client's view of one op.
type opResult struct {
	lat      time.Duration // first request sent → last reply read
	status   status
	err      string
	hash     uint64 // solveHash of the served X and ω
	instance string // instance ID the op addressed or loaded
	spans    []clientSpan
}

type client struct {
	hc    *http.Client
	base  string
	id    string // instance the preloaded workloads address
	spans bool   // record a clientSpan per request (traced runs)
	n     int    // ops sent, for span IDs
}

// do runs one op. Only the load reply, whose instance ID the next
// request needs, is decoded; the solve reply is hashed as text after
// the clock stops.
func (c *client) do(o op) opResult {
	var r opResult
	c.n++
	id := c.id
	var solveBody []byte
	start := time.Now()
	for i, q := range o.reqs {
		t0 := time.Now()
		code, body, err := c.send(q, id)
		if c.spans {
			r.spans = append(r.spans, clientSpan{
				ID:       fmt.Sprintf("op%d.%d", c.n, i),
				Endpoint: q.endpoint,
				Start:    t0.UnixNano(),
				DurNs:    time.Since(t0).Nanoseconds(),
			})
		}
		if err != nil {
			r.status, r.err = failed, err.Error()
			r.lat = time.Since(start)
			return r
		}
		if code >= 300 {
			r.status, r.err = refused, fmt.Sprintf("%s %s: %d %s", q.method, q.path, code, bytes.TrimSpace(body))
			r.lat = time.Since(start)
			return r
		}
		switch q.endpoint {
		case "load":
			var info httpapi.InstanceInfo
			if err := json.Unmarshal(body, &info); err != nil || info.ID == "" {
				r.status, r.err = failed, fmt.Sprintf("load reply: %v", err)
				r.lat = time.Since(start)
				return r
			}
			id = info.ID
		case "solve":
			solveBody = body
		}
	}
	r.lat = time.Since(start)
	r.instance = id
	h, err := solveHash(solveBody)
	if err != nil {
		r.status, r.err = failed, fmt.Sprintf("solve reply: %v", err)
		return r
	}
	r.hash = h
	return r
}

func (c *client) send(q request, id string) (int, []byte, error) {
	var body io.Reader
	if q.body != nil {
		body = bytes.NewReader(q.body)
	}
	req, err := http.NewRequest(q.method, c.base+strings.ReplaceAll(q.path, "{id}", id), body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// solveHash hashes the raw text of the one solve result's "x" array
// and "omega" value without decoding the reply, so checking an answer
// costs the closed loop next to nothing. Go writes a float64 in its
// shortest round-trip form, so equal text means equal bits (-0 included).
func solveHash(body []byte) (uint64, error) {
	b := bytes.TrimSpace(body)
	if !bytes.HasPrefix(b, []byte("[{")) || !bytes.HasSuffix(b, []byte("]}]")) ||
		bytes.Count(b, []byte(`"kind":`)) != 1 {
		return 0, fmt.Errorf("want one result with x, got %.80q", b)
	}
	x, ok := between(b, `"x":[`, "]")
	omega, ok2 := between(b, `"omega":`, ",")
	if !ok || !ok2 || len(x) == 0 {
		return 0, fmt.Errorf("no x or omega in %.80q", b)
	}
	return textHash(x, omega), nil
}

// between returns the text after the first key up to the next stop.
func between(b []byte, key, stop string) ([]byte, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return nil, false
	}
	rest := b[i+len(key):]
	j := bytes.Index(rest, []byte(stop))
	if j < 0 {
		return nil, false
	}
	return rest[:j], true
}

// answerHash is the solveHash of a reply that serves x and omega: the
// replay hashes its own answer through the encoder the daemon uses.
func answerHash(x []float64, omega float64) (uint64, error) {
	xj, err := json.Marshal(x)
	if err != nil {
		return 0, err
	}
	oj, err := json.Marshal(omega)
	if err != nil {
		return 0, err
	}
	return textHash(xj[1:len(xj)-1], oj), nil
}

// textHash is FNV-64a over the text of x's elements, a separator and
// the omega text.
func textHash(x, omega []byte) uint64 {
	h := fnv.New64a()
	h.Write(x)
	h.Write([]byte{0})
	h.Write(omega)
	return h.Sum64()
}

// tally is the success_ratio accounting: an op counts as verified only
// when it was served and its answer equals the replay's.
type tally struct {
	Attempted int `json:"attempted"`
	Verified  int `json:"verified"`
	Refused   int `json:"refused"`
	Failed    int `json:"failed"`
	Wrong     int `json:"wrong"`
}

func countOutcomes(res []opResult, want []uint64) tally {
	t := tally{Attempted: len(res)}
	for i, r := range res {
		switch {
		case r.status == refused:
			t.Refused++
		case r.status == failed:
			t.Failed++
		case i >= len(want) || r.hash != want[i]:
			t.Wrong++
		default:
			t.Verified++
		}
	}
	return t
}

func (t tally) add(u tally) tally {
	return tally{t.Attempted + u.Attempted, t.Verified + u.Verified, t.Refused + u.Refused, t.Failed + u.Failed, t.Wrong + u.Wrong}
}

func (t tally) missed() int { return t.Attempted - t.Verified }

func (t tally) ratio() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Verified) / float64(t.Attempted)
}
