package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one metric dimension, rendered as key="value" on exposition.
type Label struct {
	Key, Value string
}

// metric kinds, matching the Prometheus TYPE vocabulary.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// child is one labeled series inside a family. Exactly one of the value
// sources is set.
type child struct {
	labels  []Label
	key     string // rendered label set, for dedup + sorted output
	counter *Counter
	hist    *Histogram
	fn      func() float64 // scrape-time callback (counter or gauge family)
}

// family is one metric name: HELP, TYPE and its labeled children.
type family struct {
	name     string
	help     string
	typ      string
	children []*child
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration takes the registry lock; reading and
// updating registered metrics does not (they are plain atomics), so the
// serving hot path never contends with scrapes. Scrape-time callbacks
// (CounterFunc/GaugeFunc) run under the registry lock during
// WritePrometheus — they must not call back into the registry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter registers (or returns the existing) counter series name{labels}.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := r.series(name, help, typeCounter, labels)
	if c.counter == nil {
		c.counter = &Counter{}
	}
	return c.counter
}

// Histogram registers (or returns the existing) histogram series
// name{labels} over the given bucket bounds (nil selects
// DefLatencyBounds). Bounds are fixed by the first registration.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	c := r.series(name, help, typeHistogram, labels)
	if c.hist == nil {
		c.hist = NewHistogram(bounds)
	}
	return c.hist
}

// CounterFunc registers a counter series whose value is read by fn at
// scrape time — used to export counters a subsystem already tracks under
// its own lock (Server.Stats, TrainerStats, ...) without double
// bookkeeping on the hot path.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	c := r.series(name, help, typeCounter, labels)
	c.fn = fn
}

// GaugeFunc registers a gauge series whose value is read by fn at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	c := r.series(name, help, typeGauge, labels)
	c.fn = fn
}

// series finds or creates the child for name{labels}, panicking on a TYPE
// conflict (programmer error: one name, one type).
func (r *Registry) series(name, help, typ string, labels []Label) *child {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	for _, c := range f.children {
		if c.key == key {
			return c
		}
	}
	c := &child{labels: append([]Label(nil), labels...), key: key}
	f.children = append(f.children, c)
	return c
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (families and series in sorted order, so output is stable for
// golden tests).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		f := r.families[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		children := append([]*child(nil), f.children...)
		sort.Slice(children, func(i, j int) bool { return children[i].key < children[j].key })
		for _, c := range children {
			switch {
			case c.hist != nil:
				writeHistogram(&b, f.name, c)
			case c.fn != nil:
				writeSample(&b, f.name, c.key, c.fn())
			case c.counter != nil:
				writeSample(&b, f.name, c.key, float64(c.counter.Value()))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSample emits one `name{labels} value` line.
func writeSample(b *strings.Builder, name, labelKey string, v float64) {
	b.WriteString(name)
	if labelKey != "" {
		b.WriteByte('{')
		b.WriteString(labelKey)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

// writeHistogram emits the cumulative _bucket series plus _sum and _count.
func writeHistogram(b *strings.Builder, name string, c *child) {
	counts := c.hist.snapshot()
	var cum uint64
	for i, n := range counts {
		cum += n
		le := "+Inf"
		if i < len(c.hist.bounds) {
			le = formatValue(c.hist.bounds[i])
		}
		b.WriteString(name)
		b.WriteString("_bucket{")
		if c.key != "" {
			b.WriteString(c.key)
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteString(`"} `)
		b.WriteString(strconv.FormatUint(cum, 10))
		b.WriteByte('\n')
	}
	writeSample(b, name+"_sum", c.key, c.hist.Sum())
	writeSample(b, name+"_count", c.key, float64(c.hist.Count()))
}

// renderLabels renders a sorted key="value" list (no braces).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatValue renders a float in the shortest exact form.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
