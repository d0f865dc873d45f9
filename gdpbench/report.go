package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
)

// report collects one run's operation counts, metric values and the reasons
// a run is invalid. It is safe for concurrent use: the load generator's
// connections record failures from their own goroutines.
type report struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	invalid   []string
	values    map[string]value
}

// value is one reported metric with the number of samples it summarizes.
type value struct {
	v       float64
	samples int
}

func newReport() *report { return &report{values: map[string]value{}} }

// op records one attempted operation; err != nil counts it as failed.
func (r *report) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 8 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// markInvalid records a reason the run's numbers cannot be trusted, such as a
// fleet that answered cells from memory. An invalid run reports correct=false.
func (r *report) markInvalid(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

// set records a metric value summarizing samples measurements.
func (r *report) set(name string, v float64, samples int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.values[name] = value{v: v, samples: samples}
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metrics it
// must print, with their units.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// write prints the human-readable report and then, as the last line, the
// JSON result. Metrics the workload does not exercise (per-layer only) are
// reported as 0; an end-to-end metric that was not measured makes the run
// incorrect.
func (r *report) write(w io.Writer, specs []metricSpec, prov []string, endToEnd bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, line := range prov {
		fmt.Fprintln(w, "# "+line)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric, len(specs))
	correct := len(r.invalid) == 0 && r.failed == 0 && r.attempted > 0
	for _, s := range specs {
		v, ok := r.values[s.Name]
		if !ok && endToEnd {
			r.invalid = append(r.invalid, "metric "+s.Name+" was not measured")
			correct = false
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			r.invalid = append(r.invalid, "metric "+s.Name+" is not a finite number")
			correct = false
			v.v = 0
		}
		metrics[s.Name] = jsonMetric{Value: v.v, Unit: s.Unit}
		fmt.Fprintf(w, "%-34s %16.6g %-6s samples=%d\n", s.Name, v.v, s.Unit, v.samples)
	}
	// Values outside the declared set (for example the deterministic-count
	// digest) are informational.
	var extra []string
	for name := range r.values {
		if !declared(specs, name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "# %-32s %16.6g samples=%d\n", name, r.values[name].v, r.values[name].samples)
	}
	fmt.Fprintf(w, "# operations attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintln(w, "# failure: "+f)
	}
	for _, reason := range r.invalid {
		fmt.Fprintln(w, "# invalid: "+reason)
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	out, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, attempted, r.failed, metrics})
	fmt.Fprintln(w, string(out))
}

func declared(specs []metricSpec, name string) bool {
	for _, s := range specs {
		if s.Name == name {
			return true
		}
	}
	return false
}

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks (the "inclusive" method). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer the workload does not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
