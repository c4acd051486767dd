// Package exp contains one runner per table and figure of the paper's
// evaluation (§6), plus the shared experiment context that trains and
// caches the models the experiments share (DA-GAN, baseline YOLO,
// per-subset specialized and lite models). Each runner prints the same
// rows/series the paper reports and returns structured results for the
// benchmark harness.
package exp

import (
	"fmt"
	"io"
	"strings"
	"time"

	"odin/internal/core"
	"odin/internal/detect"
	"odin/internal/gan"
	"odin/internal/synth"
)

// Scale selects the experiment size: Quick keeps the full suite in the
// minutes range for `go test -bench`; Full uses larger streams and training
// budgets (closer to the paper's counts) for `odin-bench -scale full`.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

// String returns the CLI name ParseScale accepts.
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// ParseScale maps a CLI string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "", "quick":
		return Quick, nil
	case "full":
		return Full, nil
	}
	return Quick, fmt.Errorf("exp: unknown scale %q (want quick or full)", s)
}

// Params bundles the per-scale workload sizes and training budgets. The
// training-budget parity between the baseline and the specialists follows
// Table 3's protocol ("we train each model on the same number of
// samples"); see DESIGN.md.
type Params struct {
	// Detection models.
	TrainFrames int // per-model training frames (baseline and specialists)
	TrainEpochs int
	LiteEpochs  int
	TestFrames  int

	// DA-GAN bootstrap.
	BootFrames  int
	DAGANEpochs int

	// Table 1.
	T1TrainPerClass int
	T1TestInliers   int
	T1GenEpochs     int

	// Streaming experiments.
	Table2PerSubset int // frames per introduced subset
	Fig9PhaseLen    int // frames per drift phase
	Fig9Window      int // mAP reporting window
	Table6Frames    int // query stream length
	FilterEpochs    int
}

// ParamsFor returns the workload parameters of a scale.
func ParamsFor(s Scale) Params {
	if s == Full {
		return Params{
			TrainFrames: 800, TrainEpochs: 60, LiteEpochs: 40, TestFrames: 200,
			BootFrames: 1500, DAGANEpochs: 15,
			T1TrainPerClass: 120, T1TestInliers: 200, T1GenEpochs: 15,
			Table2PerSubset: 900, Fig9PhaseLen: 1500, Fig9Window: 300,
			Table6Frames: 600, FilterEpochs: 15,
		}
	}
	return Params{
		TrainFrames: 400, TrainEpochs: 40, LiteEpochs: 25, TestFrames: 80,
		BootFrames: 600, DAGANEpochs: 8,
		T1TrainPerClass: 60, T1TestInliers: 120, T1GenEpochs: 8,
		Table2PerSubset: 600, Fig9PhaseLen: 800, Fig9Window: 200,
		Table6Frames: 300, FilterEpochs: 10,
	}
}

// Context owns the shared, lazily trained artifacts. All randomness is
// seeded, so results are deterministic per scale.
type Context struct {
	Scale Scale
	P     Params
	Scene synth.SceneConfig

	dagan    *gan.DAGAN
	baseline *detect.GridDetector
	spec     map[synth.Subset]*detect.GridDetector
	lite     map[synth.Subset]*detect.GridDetector
	tests    map[synth.Subset][]*synth.Frame

	log io.Writer
}

// NewContext creates an experiment context at the given scale.
func NewContext(scale Scale) *Context {
	return &Context{
		Scale: scale,
		P:     ParamsFor(scale),
		Scene: synth.DefaultSceneConfig(),
		spec:  make(map[synth.Subset]*detect.GridDetector),
		lite:  make(map[synth.Subset]*detect.GridDetector),
		tests: make(map[synth.Subset][]*synth.Frame),
	}
}

// SetLog directs progress messages (model training notices) to w.
func (c *Context) SetLog(w io.Writer) { c.log = w }

func (c *Context) logf(format string, args ...interface{}) {
	if c.log != nil {
		fmt.Fprintf(c.log, format+"\n", args...)
	}
}

// Encoder returns the frame→projector-input encoder (downsample by 2).
func (c *Context) Encoder() core.FrameEncoder { return core.DownsampleEncoder(2) }

// DAGANConfig returns the scene DA-GAN architecture.
func (c *Context) DAGANConfig() gan.Config {
	return gan.Config{
		InputDim: core.EncodedDim(c.Scene),
		Latent:   16,
		Hidden:   []int{128, 48},
		LR:       0.001,
		Seed:     7,
	}
}

// DAGAN lazily trains the scene DA-GAN on bootstrap frames (§6.2: trained
// on a held-out unlabeled subset).
func (c *Context) DAGAN() *gan.DAGAN {
	if c.dagan == nil {
		start := time.Now()
		gen := synth.NewSceneGen(1, c.Scene)
		boot := gen.Dataset(synth.FullData, c.P.BootFrames)
		c.dagan = core.TrainDAGAN(boot, c.DAGANConfig(), c.P.DAGANEpochs, 32)
		c.logf("trained DA-GAN on %d frames in %s", c.P.BootFrames, time.Since(start).Round(time.Second))
	}
	return c.dagan
}

// Baseline lazily trains the heavyweight YOLO baseline on FULL-DATA with
// the per-model training budget.
func (c *Context) Baseline() *detect.GridDetector {
	if c.baseline == nil {
		start := time.Now()
		gen := synth.NewSceneGen(99, c.Scene)
		d := detect.NewGridDetector(detect.YOLOConfig(c.Scene.H, c.Scene.W))
		d.Fit(detect.SamplesFromFrames(gen.Dataset(synth.FullData, c.P.TrainFrames)), c.P.TrainEpochs, 16)
		c.baseline = d
		c.logf("trained baseline YOLO in %s", time.Since(start).Round(time.Second))
	}
	return c.baseline
}

// Specialized lazily trains the YOLO-Specialized model for a subset.
func (c *Context) Specialized(s synth.Subset) *detect.GridDetector {
	if d, ok := c.spec[s]; ok {
		return d
	}
	start := time.Now()
	gen := synth.NewSceneGen(200+uint64(s), c.Scene)
	cfg := detect.SpecializedConfig(c.Scene.H, c.Scene.W)
	cfg.Seed = 300 + uint64(s)
	d := detect.NewGridDetector(cfg)
	d.Fit(detect.SamplesFromFrames(gen.Dataset(s, c.P.TrainFrames)), c.P.TrainEpochs, 16)
	c.spec[s] = d
	c.logf("trained YOLO-Specialized(%v) in %s", s, time.Since(start).Round(time.Second))
	return d
}

// Lite lazily distills the YOLO-Lite student for a subset from the
// baseline's outputs.
func (c *Context) Lite(s synth.Subset) *detect.GridDetector {
	if d, ok := c.lite[s]; ok {
		return d
	}
	start := time.Now()
	gen := synth.NewSceneGen(400+uint64(s), c.Scene)
	frames := gen.Dataset(s, c.P.TrainFrames)
	cfg := detect.LiteConfig(c.Scene.H, c.Scene.W)
	cfg.Seed = 500 + uint64(s)
	d := detect.NewGridDetector(cfg)
	d.Fit(detect.DistillSamples(c.Baseline(), frames, 0.4), c.P.LiteEpochs, 16)
	c.lite[s] = d
	c.logf("distilled YOLO-Lite(%v) in %s", s, time.Since(start).Round(time.Second))
	return d
}

// TestSet lazily renders the held-out evaluation frames of a subset.
func (c *Context) TestSet(s synth.Subset) []*synth.Frame {
	if f, ok := c.tests[s]; ok {
		return f
	}
	gen := synth.NewSceneGen(600+uint64(s), c.Scene)
	f := gen.Dataset(s, c.P.TestFrames)
	c.tests[s] = f
	return f
}

// MAPOn evaluates a detector on a subset's test set.
func (c *Context) MAPOn(d detect.Detector, s synth.Subset) float64 {
	return detect.EvaluateDetector(d, c.TestSet(s), 0.5).MAP
}

// --- table rendering ---

// Table accumulates aligned rows for terminal output.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends a row; values are formatted with %v, floats with 4 digits.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Pct renders a fraction as a percentage string.
func Pct(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }
