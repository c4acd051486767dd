package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// The traced pass records spans from the benchmark's own files, around
// the calls it makes into each layer: the program itself is not edited.
// Spans stay in memory and are written out when the pass ends.

// span is one timed call. Parent is the index of the enclosing span (-1 at
// the root); Batch groups the spans of one replayed frame batch.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Batch   int    `json:"batch"`
}

// spanLog is an append-only span recorder used from one goroutine.
type spanLog struct {
	t0    time.Time
	spans []span
	stack []int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// start opens a span under the innermost open one; the returned function
// closes it and returns its duration.
func (l *spanLog) start(name string, batch int) func() time.Duration {
	parent := -1
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{Name: name, StartNs: time.Since(l.t0).Nanoseconds(), Parent: parent, Batch: batch})
	l.stack = append(l.stack, id)
	return func() time.Duration {
		s := &l.spans[id]
		s.EndNs = time.Since(l.t0).Nanoseconds()
		l.stack = l.stack[:len(l.stack)-1]
		return time.Duration(s.EndNs - s.StartNs)
	}
}

// selfTime is each span name's total duration minus the part its child
// spans cover.
func (l *spanLog) selfTime() map[string]time.Duration {
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	self := map[string]time.Duration{}
	for i, s := range l.spans {
		self[s.Name] += time.Duration(s.EndNs - s.StartNs - child[i])
	}
	return self
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		Spans []span `json:"spans"`
	}{l.spans})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// stageNames are the program's seven serving stages, in pipeline order, as
// its odin_stage_seconds histograms label them.
var stageNames = []string{"admission", "queue_wait", "assembly", "project", "advance", "detect", "emit"}

// stageShares scrapes the program's own stage histograms (Prometheus text,
// from Server.WriteMetrics or GET /metrics) and reports each stage's share
// of the summed stage time. The shares sum to 1.
func (r *run) stageShares(scrape func(io.Writer) error) {
	var buf bytes.Buffer
	if err := scrape(&buf); err != nil {
		r.fail(1, "scrape metrics: %v", err)
	}
	sums := map[string]float64{}
	total := 0.0
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, `odin_stage_seconds_sum{stage="`)
		if !ok {
			continue
		}
		name, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			r.fail(1, "metrics line %q: %v", line, err)
			continue
		}
		sums[name] = v
		total += v
	}
	r.check(total > 0, "no odin_stage_seconds samples were scraped")
	for _, name := range stageNames {
		share := 0.0
		if total > 0 {
			share = sums[name] / total
		}
		r.rep.set("stage."+name+"_share", share)
		fmt.Fprintf(os.Stderr, "bench: stage %-10s %6.1f%% of %.3f s stage time\n", name, 100*share, total)
	}
}
