package main

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSnap is one scrape of a Prometheus text exposition, keyed by the series
// exactly as printed (family name plus label set).
type promSnap map[string]float64

func parseProm(text []byte) promSnap {
	s := promSnap{}
	for _, line := range bytes.Split(text, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		i := bytes.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(string(line[i+1:]), 64)
		if err != nil {
			continue
		}
		s[string(line[:i])] = v
	}
	return s
}

// delta returns s − before for every series of s: counters and histogram
// buckets become the work done between the two scrapes.
func (s promSnap) delta(before promSnap) promSnap {
	d := make(promSnap, len(s))
	for k, v := range s {
		d[k] = v - before[k]
	}
	return d
}

// add accumulates o into s (fleet-wide sums over several processes).
func (s promSnap) add(o promSnap) {
	for k, v := range o {
		s[k] += v
	}
}

// family returns the family name of a series key.
func family(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// sum adds every series of the family name whose label set contains each of
// the given label matchers (written as `key="value"`).
func (s promSnap) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range s {
		if family(k) == name && hasLabels(k, labels) {
			total += v
		}
	}
	return total
}

func hasLabels(key string, labels []string) bool {
	for _, l := range labels {
		if !strings.Contains(key, l) {
			return false
		}
	}
	return true
}

// histQuantile estimates the q-quantile of histogram name from its bucket
// counts, summed over every series matching labels, interpolating linearly
// inside the bucket that holds the quantile. It returns 0 for an empty
// histogram.
func (s promSnap) histQuantile(name string, q float64, labels ...string) float64 {
	counts := map[float64]float64{}
	for k, v := range s {
		if family(k) != name+"_bucket" || !hasLabels(k, labels) {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		leStr := k[i+4:]
		leStr = leStr[:strings.IndexByte(leStr, '"')]
		le := math.Inf(1)
		if leStr != "+Inf" {
			f, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				continue
			}
			le = f
		}
		counts[le] += v
	}
	les := make([]float64, 0, len(counts))
	for le := range counts {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 || counts[les[len(les)-1]] == 0 {
		return 0
	}
	target := q * counts[les[len(les)-1]]
	prevLE, prevCount := 0.0, 0.0
	for _, le := range les {
		c := counts[le]
		if c >= target {
			if math.IsInf(le, 1) {
				return prevLE
			}
			if c == prevCount {
				return le
			}
			return prevLE + (le-prevLE)*(target-prevCount)/(c-prevCount)
		}
		prevLE, prevCount = le, c
	}
	return prevLE
}
