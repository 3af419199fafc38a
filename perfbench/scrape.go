package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"maxminlp/internal/obs"
)

// exposition is one parsed /metrics scrape: sample value by series key,
// name{label="value",...} with labels sorted.
type exposition map[string]float64

func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	ks := make([]string, 0, len(labels))
	for k := range labels {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	parts := make([]string, len(ks))
	for i, k := range ks {
		parts[i] = fmt.Sprintf("%s=%q", k, labels[k])
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

// parseExposition reads a Prometheus text exposition with the daemon's
// own strict parser.
func parseExposition(r io.Reader) (exposition, error) {
	fams, err := obs.ParseExposition(r)
	if err != nil {
		return nil, err
	}
	e := exposition{}
	for _, f := range fams {
		for _, s := range f.Samples {
			e[seriesKey(s.Name, s.Labels)] = s.Value
		}
	}
	return e, nil
}

func scrape(hc *http.Client, url string) (exposition, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	e, err := parseExposition(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	return e, nil
}

// delta is the growth of a cumulative series between two scrapes. A
// series missing from either scrape, or one that went down (the process
// restarted and its counters reset), is an error: reporting it as zero
// would hide a broken measurement.
func delta(before, after exposition, key string) (float64, error) {
	a, ok := before[key]
	if !ok {
		return 0, fmt.Errorf("series %s missing from the first scrape", key)
	}
	b, ok := after[key]
	if !ok {
		return 0, fmt.Errorf("series %s missing from the second scrape", key)
	}
	if b < a {
		return 0, fmt.Errorf("series %s went from %v to %v: counter reset", key, a, b)
	}
	return b - a, nil
}

// deltas collects many series deltas, keeping the first error.
type deltas struct {
	before, after exposition
	err           error
}

func (d *deltas) get(name string, labels ...string) float64 {
	l := map[string]string{}
	for i := 0; i+1 < len(labels); i += 2 {
		l[labels[i]] = labels[i+1]
	}
	v, err := delta(d.before, d.after, seriesKey(name, l))
	if err != nil && d.err == nil {
		d.err = err
	}
	return v
}

// sumPrefix sums the deltas of every series of a family whose key
// starts with prefix (for example one counter across all its label
// values), skipping keys that contain any of the excluded substrings.
func (d *deltas) sumPrefix(prefix string, exclude ...string) float64 {
	total := 0.0
	keys := make([]string, 0)
	for k := range d.after {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 && d.err == nil {
		d.err = fmt.Errorf("no series %s* in the scrape", prefix)
	}
next:
	for _, k := range keys {
		for _, x := range exclude {
			if strings.Contains(k, x) {
				continue next
			}
		}
		v, err := delta(d.before, d.after, k)
		if err != nil && d.err == nil {
			d.err = err
		}
		total += v
	}
	return total
}
