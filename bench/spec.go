package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
)

// benchmarkFile is the contract at the repository root. It is the single
// source of metric names, units, directions and bounds: the program never
// repeats them, so a name that drifts between code and contract fails the
// run instead of silently going unreported.
const benchmarkFile = "BENCHMARK.json"

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := map[string]bool{}
	check := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s: %s name %q is not [A-Za-z0-9_.-]{1,64}", path, kind, name)
		}
		if seen[name] {
			return fmt.Errorf("%s: name %q is used twice", path, name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := check("workload", w.Name); err != nil {
			return nil, err
		}
	}
	for _, m := range append(append([]metricSpec{}, s.EndToEnd...), s.PerLayer...) {
		if err := check("metric", m.Name); err != nil {
			return nil, err
		}
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %q: better is %q", path, m.Name, m.Better)
		}
	}
	if s.RunSeconds < 1 || len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: run_seconds, workloads, end_to_end and per_layer are required", path)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricValue is one reported number on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line of a run's standard output.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects the values of one pass (end-to-end or per-layer) against
// the names the contract lists for it.
type report struct {
	want   []metricSpec
	values map[string]float64
	errs   []string
}

func newReport(want []metricSpec) *report {
	return &report{want: want, values: map[string]float64{}}
}

// set records a metric. A name the contract does not list for this pass is
// dropped silently (both passes share the workload code); a second value
// for a listed name, or a value JSON cannot carry, is a harness error.
func (r *report) set(name string, v float64) {
	listed := false
	for _, m := range r.want {
		if m.Name == name {
			listed = true
			break
		}
	}
	if !listed {
		return
	}
	if _, dup := r.values[name]; dup {
		r.errs = append(r.errs, fmt.Sprintf("metric %q reported twice", name))
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.errs = append(r.errs, fmt.Sprintf("metric %q is %v", name, v))
		return
	}
	r.values[name] = v
}

// setDefault records v unless the metric already has a value.
func (r *report) setDefault(name string, v float64) {
	if _, ok := r.values[name]; !ok {
		r.set(name, v)
	}
}

// metrics returns every listed metric with its unit, or the harness errors
// (unreported, duplicate or non-finite names).
func (r *report) metrics() (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(r.want))
	errs := r.errs
	for _, m := range r.want {
		v, ok := r.values[m.Name]
		if !ok {
			errs = append(errs, fmt.Sprintf("metric %q was not reported", m.Name))
			continue
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("report: %v", errs)
	}
	return out, nil
}
