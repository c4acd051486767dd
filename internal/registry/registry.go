// Package registry implements the fleet-level model registry of the
// ECCO-style correlated-recovery path: a bounded store of recovered drift
// models keyed by quantized regime signature (cluster.Signature), shared by
// the trainers of pipelines that share a bootstrap substrate. A trainer
// about to build a drift recovery resolves its job's signature here first:
//
//	adopt     — a stored model's regime is within the adoption distance;
//	            install it directly, no training.
//	coalesce  — another pipeline is already building a model for this
//	            regime; wait for that build and install its result
//	            (one training job serves every correlated stream).
//	warm      — a stored model is regime-adjacent; warm-start training
//	            from its weights instead of scratch initialisation.
//	miss      — nothing close enough; claim the regime and build from
//	            scratch, then publish for the rest of the fleet.
//
// Resolution happens at job-schedule time (trainer enqueue), so with a
// deterministic schedule the builder identity — and therefore every
// adopted model's weights — is deterministic. Claims registered at enqueue
// plus FIFO trainer queues also make cross-trainer coalesce waits
// deadlock-free: a wait cycle would need every waiter to have been
// enqueued after its builder claim yet before its own queue's builder,
// which orders the enqueue times in a strictly decreasing cycle —
// impossible (see DESIGN.md §9).
package registry

import (
	"errors"
	"fmt"
	"sync"

	"odin/internal/cluster"
	"odin/internal/core"
	"odin/internal/detect"
)

// DefaultCapacity bounds a registry built with a non-positive capacity.
const DefaultCapacity = 32

// The adoption gates, in cluster.Signature.DistanceTo units ([0, 1]): how
// close a stored (or in-flight) regime must be before its model is reused.
const (
	// AdoptDistance is the distance at or under which a stored model is
	// adopted outright and an in-flight build is coalesced onto. Keeping it
	// tight is the guard against transient accuracy fluctuations pulling in
	// a foreign model.
	AdoptDistance = 0.25
	// WarmDistance is the distance at or under which a stored model's
	// weights warm-start a new build.
	WarmDistance = 0.6
)

// Sentinel errors returned by Ticket.Wait.
var (
	// ErrBuildAborted marks a coalesced build whose builder failed or was
	// dropped; the waiter should fall back to building on its own.
	ErrBuildAborted = errors.New("registry: coalesced build aborted")
	// ErrCanceled marks a wait abandoned because the waiter itself is
	// shutting down.
	ErrCanceled = errors.New("registry: wait canceled")
)

// Stats is a snapshot of registry telemetry; the json tags are the keys of
// /v1/stats's "registry" object.
type Stats struct {
	// Size and Capacity describe the resident entry set.
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
	// Lookups counts Resolve calls; every lookup ends as exactly one of
	// AdoptHits, Coalesced, WarmHits or Misses.
	Lookups int `json:"lookups"`
	// AdoptHits counts resolutions that returned a stored model for direct
	// installation.
	AdoptHits int `json:"adopt_hits"`
	// WarmHits counts resolutions that returned a stored model as a
	// warm-start source.
	WarmHits int `json:"warm_hits"`
	// Coalesced counts resolutions attached to an in-flight build.
	Coalesced int `json:"coalesced"`
	// Misses counts resolutions that claimed a fresh build.
	Misses int `json:"misses"`
	// Published counts models stored via Claim.Publish.
	Published int `json:"published"`
	// Evicted counts entries displaced by the LRU capacity bound.
	Evicted int `json:"evicted"`
}

// entry is one resident model.
type entry struct {
	sig       cluster.Signature
	kind      detect.Kind
	model     *core.Model
	source    string
	sourceGen uint64
	hits      int
	lastUse   uint64
}

// build is one in-flight claimed build and its coalesced waiters (FIFO).
type build struct {
	sig     cluster.Signature
	kind    detect.Kind
	source  string
	tickets []*Ticket
	done    bool
}

// Registry is the fleet-level model store. All methods are safe for
// concurrent use by any number of trainers.
type Registry struct {
	mu       sync.Mutex
	capacity int
	tick     uint64
	entries  []*entry
	inflight []*build
	stats    Stats
}

// New returns an empty registry bounded to capacity resident models
// (DefaultCapacity when capacity ≤ 0).
func New(capacity int) *Registry {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Registry{capacity: capacity}
}

// Outcome classifies a resolution.
type Outcome int

// Resolution outcomes. OutcomeNone is the zero value: the registry was not
// consulted (no registry attached, or the job carries no signature).
const (
	OutcomeNone Outcome = iota
	OutcomeMiss
	OutcomeAdopt
	OutcomeWarm
	OutcomeCoalesce
)

// String names the outcome for logs and benches.
func (o Outcome) String() string {
	switch o {
	case OutcomeMiss:
		return "miss"
	case OutcomeAdopt:
		return "adopt"
	case OutcomeWarm:
		return "warm"
	case OutcomeCoalesce:
		return "coalesce"
	}
	return "none"
}

// Resolution is the registry's verdict for one training job.
type Resolution struct {
	Outcome Outcome
	// Model is the stored model to install (OutcomeAdopt) or to warm-start
	// from (OutcomeWarm).
	Model *core.Model
	// Source and SourceGen are the publishing pipeline and its model
	// generation at publish time — the provenance of Model.
	Source    string
	SourceGen uint64
	// Dist is the signature distance to the matched entry or in-flight
	// build.
	Dist float64
	// Ticket is the wait handle of a coalesced resolution.
	Ticket *Ticket
	// Claim is the build claim of a miss; the resolver MUST eventually
	// Publish or Abort it, or coalesced waiters hang.
	Claim *Claim
}

// Ticket is a coalesced waiter's handle on an in-flight build.
type Ticket struct {
	done  chan struct{}
	model *core.Model
	src   string
	gen   uint64
}

// Wait blocks until the build publishes (returning its model and
// provenance), aborts (ErrBuildAborted), or cancel fires (ErrCanceled).
func (t *Ticket) Wait(cancel <-chan struct{}) (*core.Model, string, uint64, error) {
	select {
	case <-t.done:
	case <-cancel:
		// Re-check: a concurrent publish beats cancellation.
		select {
		case <-t.done:
		default:
			return nil, "", 0, ErrCanceled
		}
	}
	if t.model == nil {
		return nil, "", 0, ErrBuildAborted
	}
	return t.model, t.src, t.gen, nil
}

// Claim is a builder's exclusive hold on a regime while its model trains.
type Claim struct {
	r *Registry
	b *build
}

// Resolve decides how a training job for regime sig should proceed, under
// the AdoptDistance and WarmDistance gates. sig must be non-nil; jobs
// without a signature should bypass the registry entirely. source names the
// resolving pipeline for provenance.
func (r *Registry) Resolve(sig *cluster.Signature, kind detect.Kind, source string) Resolution {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tick++
	r.stats.Lookups++

	var best *entry
	bestD := 0.0
	for _, e := range r.entries {
		if e.kind != kind {
			continue
		}
		if d := sig.DistanceTo(e.sig); best == nil || d < bestD {
			best, bestD = e, d
		}
	}
	if best != nil && bestD <= AdoptDistance {
		best.hits++
		best.lastUse = r.tick
		r.stats.AdoptHits++
		return Resolution{
			Outcome: OutcomeAdopt, Model: best.model,
			Source: best.source, SourceGen: best.sourceGen, Dist: bestD,
		}
	}
	// Coalesce onto an adopt-close in-flight build before settling for a
	// warm start: the fresh build is for exactly this regime.
	for _, b := range r.inflight {
		if b.kind != kind {
			continue
		}
		if d := sig.DistanceTo(b.sig); d <= AdoptDistance {
			t := &Ticket{done: make(chan struct{})}
			b.tickets = append(b.tickets, t) // FIFO: publish order = registration order
			r.stats.Coalesced++
			return Resolution{Outcome: OutcomeCoalesce, Ticket: t, Source: b.source, Dist: d}
		}
	}
	if best != nil && bestD <= WarmDistance {
		best.hits++
		best.lastUse = r.tick
		r.stats.WarmHits++
		return Resolution{
			Outcome: OutcomeWarm, Model: best.model,
			Source: best.source, SourceGen: best.sourceGen, Dist: bestD,
		}
	}
	r.stats.Misses++
	b := &build{sig: *sig, kind: kind, source: source}
	r.inflight = append(r.inflight, b)
	return Resolution{Outcome: OutcomeMiss, Claim: &Claim{r: r, b: b}}
}

// Publish stores the claim's finished model (evicting the least recently
// used entry past capacity) and hands it to every coalesced waiter in FIFO
// order. gen is the builder pipeline's model generation — the ModelGen
// provenance recorded with the entry. Idempotent after the first
// Publish/Abort.
func (c *Claim) Publish(m *core.Model, gen uint64) {
	if m == nil {
		c.Abort()
		return
	}
	r := c.r
	r.mu.Lock()
	if c.b.done {
		r.mu.Unlock()
		return
	}
	c.b.done = true
	r.removeInflight(c.b)
	r.tick++
	r.entries = append(r.entries, &entry{
		sig: c.b.sig, kind: c.b.kind, model: m,
		source: c.b.source, sourceGen: gen, lastUse: r.tick,
	})
	r.stats.Published++
	for len(r.entries) > r.capacity {
		r.evictLRULocked()
	}
	tickets := c.b.tickets
	r.mu.Unlock()
	for _, t := range tickets {
		t.model, t.src, t.gen = m, c.b.source, gen
		close(t.done)
	}
}

// Abort releases the claim without publishing: coalesced waiters observe
// ErrBuildAborted and fall back to their own builds. Idempotent.
func (c *Claim) Abort() {
	r := c.r
	r.mu.Lock()
	if c.b.done {
		r.mu.Unlock()
		return
	}
	c.b.done = true
	r.removeInflight(c.b)
	tickets := c.b.tickets
	r.mu.Unlock()
	for _, t := range tickets {
		close(t.done) // model stays nil → ErrBuildAborted
	}
}

// removeInflight drops b from the in-flight list. Caller holds r.mu.
func (r *Registry) removeInflight(b *build) {
	for i, ib := range r.inflight {
		if ib == b {
			r.inflight = append(r.inflight[:i], r.inflight[i+1:]...)
			return
		}
	}
}

// evictLRULocked removes the least recently used entry. Caller holds r.mu.
func (r *Registry) evictLRULocked() {
	idx := 0
	for i, e := range r.entries {
		if e.lastUse < r.entries[idx].lastUse {
			idx = i
		}
	}
	r.entries = append(r.entries[:idx], r.entries[idx+1:]...)
	r.stats.Evicted++
}

// Stats returns a snapshot of the registry telemetry.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.Size = len(r.entries)
	st.Capacity = r.capacity
	return st
}

// String renders a one-line summary for logs.
func (r *Registry) String() string {
	st := r.Stats()
	return fmt.Sprintf("registry(%d/%d entries, %d adopt, %d coalesce, %d warm, %d miss)",
		st.Size, st.Capacity, st.AdoptHits, st.Coalesced, st.WarmHits, st.Misses)
}
