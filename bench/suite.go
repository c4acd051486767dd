package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// A result set is every workload run a number of times on consecutive
// seeds, both passes: the unit -compare and -aa work on, and what
// baseline/ holds. Each run is its own child process, so heap, GC state
// and peak RSS never leak from one workload or seed into the next.

// environment records where a result set was measured.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       uint64  `json:"seed"`
	Runs       int     `json:"runs"`
	RunSeconds float64 `json:"run_seconds"`
	BurstFPS   float64 `json:"burst_frames_per_s"`
	CalmFPS    float64 `json:"calm_frames_per_s"`
}

// workloadRuns holds one workload's runs: per metric, one value per seed.
type workloadRuns struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string][]float64 `json:"per_layer"`
}

type resultSet struct {
	Claim       *string                  `json:"claim"` // this benchmark's issue claims no gain
	Environment environment              `json:"environment"`
	Workloads   map[string]*workloadRuns `json:"workloads"`

	spec *benchSpec
}

// runChild runs one workload once in a child process and parses the result
// line.
func runChild(workload string, seed uint64, seconds float64, trace int) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res runResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: result line: %w", workload, seed, trace, err)
	}
	return &res, nil
}

// runSuite runs the workloads (one, or "all") runs times on seeds seed,
// seed+1, …; trace selects the pass, -1 both.
func runSuite(spec *benchSpec, only string, seed uint64, seconds float64, runs, trace int) (*resultSet, error) {
	set := &resultSet{
		Environment: currentEnvironment(seed, runs, seconds),
		Workloads:   map[string]*workloadRuns{},
		spec:        spec,
	}
	for _, w := range spec.Workloads {
		if only != "all" && only != w.Name {
			continue
		}
		wr := &workloadRuns{EndToEnd: map[string][]float64{}, PerLayer: map[string][]float64{}}
		set.Workloads[w.Name] = wr
		for i := 0; i < runs; i++ {
			for pass, into := range []map[string][]float64{wr.EndToEnd, wr.PerLayer} {
				if trace >= 0 && trace != pass {
					continue
				}
				fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d\n", w.Name, seed+uint64(i), pass)
				res, err := runChild(w.Name, seed+uint64(i), seconds, pass)
				if err != nil {
					return nil, err
				}
				wr.Attempted += res.Attempted
				wr.Failed += res.Failed
				for name, m := range res.Metrics {
					into[name] = append(into[name], m.Value)
				}
			}
		}
	}
	return set, nil
}

func currentEnvironment(seed uint64, runs int, seconds float64) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       seed, Runs: runs, RunSeconds: seconds,
		BurstFPS: burstFPS, CalmFPS: calmFPS,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

func (s *resultSet) failed() bool {
	for _, wr := range s.Workloads {
		if wr.Failed > 0 {
			return true
		}
	}
	return false
}

// print writes every metric of every workload by name with its unit: the
// median over the runs and, for end-to-end metrics, the spread between
// quartiles as a share of the median beside the bound it must stay under.
func (s *resultSet) print(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, wl := range s.spec.Workloads {
		wr := s.Workloads[wl.Name]
		if wr == nil {
			continue
		}
		fmt.Fprintf(tw, "%s\tattempted %d\tfailed %d\t\t\n", wl.Name, wr.Attempted, wr.Failed)
		for _, m := range s.spec.EndToEnd {
			v := wr.EndToEnd[m.Name]
			if len(v) == 0 {
				continue // this pass was not run
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\tspread %.3f of bound %.2f\tn=%d\n", m.Name, median(v), m.Unit, spread(v), m.Bound, len(v))
		}
		for _, m := range s.spec.PerLayer {
			v := wr.PerLayer[m.Name]
			if len(v) == 0 {
				continue
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t\tn=%d\n", m.Name, median(v), m.Unit, len(v))
		}
	}
	tw.Flush()
}

func (s *resultSet) write(path string) error {
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResultSet(spec *benchSpec, path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &resultSet{spec: spec}
	if err := json.Unmarshal(raw, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Verdicts of a comparison, per workload × end-to-end metric.
const (
	better     = "better"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict compares a metric's base and new medians against its bound.
// When either side's own run-to-run spread is wider than the bound, the
// runs cannot tell a change of that size from noise: unresolved.
func verdict(m metricSpec, base, cur []float64) (ratio float64, v string) {
	b, c := median(base), median(cur)
	if b == 0 {
		return 0, unresolved
	}
	ratio = c / b
	if spread(base) > m.Bound || spread(cur) > m.Bound {
		return ratio, unresolved
	}
	change := ratio - 1 // > 0: the value rose
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return ratio, worse
	case change < -m.Bound:
		return ratio, better
	}
	return ratio, unchanged
}

// compareSets prints one row per workload × end-to-end metric and returns
// the process exit code: non-zero on any worse verdict or on more failed
// operations than the base had.
func compareSets(spec *benchSpec, base, cur *resultSet, w io.Writer) int {
	code := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tnew\tnew/base\tbound\tverdict")
	for _, wl := range spec.Workloads {
		bw, cw := base.Workloads[wl.Name], cur.Workloads[wl.Name]
		if bw == nil || cw == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\tmissing\n", wl.Name)
			code = 1
			continue
		}
		for _, m := range spec.EndToEnd {
			ratio, v := verdict(m, bw.EndToEnd[m.Name], cw.EndToEnd[m.Name])
			if v == worse {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.3f\t%.2f\t%s\n", wl.Name, m.Name, m.Unit,
				median(bw.EndToEnd[m.Name]), median(cw.EndToEnd[m.Name]), ratio, m.Bound, v)
		}
		v := unchanged
		if cw.Failed > bw.Failed {
			v, code = worse, 1
		}
		fmt.Fprintf(tw, "%s\tfailed\tcount\t%d\t%d\t\t\t%s\n", wl.Name, bw.Failed, cw.Failed, v)
	}
	tw.Flush()
	// Timings are reported at the reference machine speed (speed.go), which
	// takes out most of what the neighbours do to this box, not all of it:
	// say so when the two sets were measured on machines a quarter apart.
	if b, c := base.slowdown(), cur.slowdown(); b > 0 && c > 0 && (c/b > 1.25 || c/b < 0.8) {
		fmt.Fprintf(w, "note: harness.slowdown is %.2f in the base set and %.2f in the new one: the machine ran at different speeds, and a tenth of a difference that large can survive the normalisation\n", b, c)
	}
	return code
}

// slowdown is the set's median harness.slowdown over every traced run, 0
// when it has none.
func (s *resultSet) slowdown() float64 {
	var v []float64
	for _, wr := range s.Workloads {
		v = append(v, wr.PerLayer["harness.slowdown"]...)
	}
	return median(v)
}

func compareFiles(spec *benchSpec, basePath, curPath string) int {
	base, err := readResultSet(spec, basePath)
	if err != nil {
		fatal(err)
	}
	cur, err := readResultSet(spec, curPath)
	if err != nil {
		fatal(err)
	}
	return compareSets(spec, base, cur, os.Stdout)
}

// runAA measures the same code twice and compares the two sets: the
// benchmark's check on itself. Every verdict should read unchanged.
func runAA(spec *benchSpec, only string, seed uint64, seconds float64, runs, trace int) int {
	var sets [2]*resultSet
	for i := range sets {
		s, err := runSuite(spec, only, seed, seconds, runs, trace)
		if err != nil {
			fatal(err)
		}
		sets[i] = s
	}
	code := compareSets(spec, sets[0], sets[1], os.Stdout)
	if sets[0].failed() || sets[1].failed() {
		code = 1
	}
	return code
}
