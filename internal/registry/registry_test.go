package registry

import (
	"errors"
	"sync"
	"testing"

	"odin/internal/cluster"
	"odin/internal/core"
	"odin/internal/detect"
)

// sigAt builds a synthetic signature centred at x with unit scale and a
// fixed ∆-band PMF, so distances are controlled by the centroid alone.
func sigAt(x float64) *cluster.Signature {
	return &cluster.Signature{
		Key:      "t",
		Centroid: []float64{x, 0, 0, 0},
		Scale:    1,
		Hist:     []float64{0.25, 0.25, 0.25, 0.25},
	}
}

func testModel(kind detect.Kind) *core.Model {
	return &core.Model{Kind: kind, ClusterID: 1}
}

// publishAt resolves a miss at x and publishes a model for it.
func publishAt(t *testing.T, r *Registry, x float64, kind detect.Kind, src string) *core.Model {
	t.Helper()
	res := r.Resolve(sigAt(x), kind, src)
	if res.Outcome != OutcomeMiss {
		t.Fatalf("expected miss at %v, got %v", x, res.Outcome)
	}
	m := testModel(kind)
	res.Claim.Publish(m, 1)
	return m
}

func TestResolveMissThenAdopt(t *testing.T) {
	r := New(4)
	m := publishAt(t, r, 0, detect.KindSpecialized, "cam0")

	res := r.Resolve(sigAt(0.01), detect.KindSpecialized, "cam1")
	if res.Outcome != OutcomeAdopt {
		t.Fatalf("expected adopt, got %v", res.Outcome)
	}
	if res.Model != m || res.Source != "cam0" || res.SourceGen != 1 {
		t.Fatalf("adopt provenance wrong: %+v", res)
	}
	st := r.Stats()
	if st.Lookups != 2 || st.Misses != 1 || st.AdoptHits != 1 || st.Published != 1 || st.Size != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestResolveWarmAtMediumDistance(t *testing.T) {
	r := New(4)
	publishAt(t, r, 0, detect.KindSpecialized, "cam0")

	// Centroid distance 1 with unit scales → dc = 1/(1+1) = 0.5, identical
	// PMFs → total 0.75·0.5 = 0.375: outside adopt (0.25), inside warm (0.6).
	res := r.Resolve(sigAt(1), detect.KindSpecialized, "cam1")
	if res.Outcome != OutcomeWarm {
		t.Fatalf("expected warm at distance 0.375, got %v (d=%v)", res.Outcome, res.Dist)
	}
	if res.Model == nil {
		t.Fatal("warm resolution must carry the source model")
	}
}

func TestResolveFarIsMiss(t *testing.T) {
	r := New(4)
	publishAt(t, r, 0, detect.KindSpecialized, "cam0")
	res := r.Resolve(sigAt(100), detect.KindSpecialized, "cam1")
	if res.Outcome != OutcomeMiss {
		t.Fatalf("expected miss far away, got %v", res.Outcome)
	}
	res.Claim.Abort()
}

func TestResolveKindMismatchNeverMatches(t *testing.T) {
	r := New(4)
	publishAt(t, r, 0, detect.KindSpecialized, "cam0")
	res := r.Resolve(sigAt(0), detect.KindLite, "cam1")
	if res.Outcome != OutcomeMiss {
		t.Fatalf("lite lookup must not match specialized entry, got %v", res.Outcome)
	}
	res.Claim.Abort()
}

func TestCoalesceFIFOFulfillment(t *testing.T) {
	r := New(4)
	res := r.Resolve(sigAt(0), detect.KindSpecialized, "cam0")
	if res.Outcome != OutcomeMiss {
		t.Fatalf("expected miss, got %v", res.Outcome)
	}

	const waiters = 3
	tickets := make([]*Ticket, waiters)
	for i := 0; i < waiters; i++ {
		w := r.Resolve(sigAt(0.01), detect.KindSpecialized, "cam1")
		if w.Outcome != OutcomeCoalesce {
			t.Fatalf("waiter %d: expected coalesce, got %v", i, w.Outcome)
		}
		tickets[i] = w.Ticket
	}

	m := testModel(detect.KindSpecialized)
	var wg sync.WaitGroup
	got := make([]*core.Model, waiters)
	for i, tk := range tickets {
		wg.Add(1)
		go func(i int, tk *Ticket) {
			defer wg.Done()
			gm, src, gen, err := tk.Wait(nil)
			if err != nil || src != "cam0" || gen != 7 {
				t.Errorf("waiter %d: wait = (%v,%q,%d,%v)", i, gm, src, gen, err)
			}
			got[i] = gm
		}(i, tk)
	}
	res.Claim.Publish(m, 7)
	wg.Wait()
	for i, gm := range got {
		if gm != m {
			t.Fatalf("waiter %d got %v, want the published model", i, gm)
		}
	}
	if st := r.Stats(); st.Coalesced != waiters || st.Published != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestAbortFailsWaiters(t *testing.T) {
	r := New(4)
	res := r.Resolve(sigAt(0), detect.KindSpecialized, "cam0")
	w := r.Resolve(sigAt(0), detect.KindSpecialized, "cam1")
	if w.Outcome != OutcomeCoalesce {
		t.Fatalf("expected coalesce, got %v", w.Outcome)
	}
	res.Claim.Abort()
	if _, _, _, err := w.Ticket.Wait(nil); !errors.Is(err, ErrBuildAborted) {
		t.Fatalf("wait after abort = %v, want ErrBuildAborted", err)
	}
	// After the abort the regime is unclaimed again: a new lookup misses.
	res2 := r.Resolve(sigAt(0), detect.KindSpecialized, "cam2")
	if res2.Outcome != OutcomeMiss {
		t.Fatalf("expected fresh miss after abort, got %v", res2.Outcome)
	}
	res2.Claim.Abort()
}

func TestWaitCancel(t *testing.T) {
	r := New(4)
	res := r.Resolve(sigAt(0), detect.KindSpecialized, "cam0")
	w := r.Resolve(sigAt(0), detect.KindSpecialized, "cam1")
	cancel := make(chan struct{})
	close(cancel)
	if _, _, _, err := w.Ticket.Wait(cancel); !errors.Is(err, ErrCanceled) {
		t.Fatalf("wait = %v, want ErrCanceled", err)
	}
	res.Claim.Abort()
}

func TestPublishBeatsCancel(t *testing.T) {
	r := New(4)
	res := r.Resolve(sigAt(0), detect.KindSpecialized, "cam0")
	w := r.Resolve(sigAt(0), detect.KindSpecialized, "cam1")
	m := testModel(detect.KindSpecialized)
	res.Claim.Publish(m, 1)
	cancel := make(chan struct{})
	close(cancel) // already-published ticket wins over a closed cancel
	gm, _, _, err := w.Ticket.Wait(cancel)
	if err != nil || gm != m {
		t.Fatalf("wait = (%v, %v), want published model", gm, err)
	}
}

func TestPublishNilAborts(t *testing.T) {
	r := New(4)
	res := r.Resolve(sigAt(0), detect.KindSpecialized, "cam0")
	res.Claim.Publish(nil, 1)
	if st := r.Stats(); st.Published != 0 || st.Size != 0 {
		t.Fatalf("nil publish must abort: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	r := New(2)
	publishAt(t, r, 0, detect.KindSpecialized, "cam0")
	publishAt(t, r, 100, detect.KindSpecialized, "cam0")
	// Touch the first entry so the second becomes LRU.
	if res := r.Resolve(sigAt(0), detect.KindSpecialized, "cam1"); res.Outcome != OutcomeAdopt {
		t.Fatalf("expected adopt, got %v", res.Outcome)
	}
	publishAt(t, r, 200, detect.KindSpecialized, "cam0")

	st := r.Stats()
	if st.Size != 2 || st.Evicted != 1 {
		t.Fatalf("expected eviction at capacity 2: %+v", st)
	}
	// The touched entry survived; the untouched one is gone.
	if res := r.Resolve(sigAt(0), detect.KindSpecialized, "cam1"); res.Outcome != OutcomeAdopt {
		t.Fatalf("recently used entry was evicted")
	}
	res := r.Resolve(sigAt(100), detect.KindSpecialized, "cam1")
	if res.Outcome == OutcomeAdopt {
		t.Fatalf("LRU entry should have been evicted")
	}
	if res.Claim != nil {
		res.Claim.Abort()
	}
}

func TestPublishAbortIdempotent(t *testing.T) {
	r := New(4)
	res := r.Resolve(sigAt(0), detect.KindSpecialized, "cam0")
	m := testModel(detect.KindSpecialized)
	res.Claim.Publish(m, 1)
	res.Claim.Publish(m, 2) // no double insert
	res.Claim.Abort()       // no panic on closed tickets
	if st := r.Stats(); st.Published != 1 || st.Size != 1 {
		t.Fatalf("idempotence violated: %+v", st)
	}
}

func TestConcurrentResolvePublish(t *testing.T) {
	r := New(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res := r.Resolve(sigAt(float64(i%4)*100), detect.KindSpecialized, "cam")
				switch res.Outcome {
				case OutcomeMiss:
					res.Claim.Publish(testModel(detect.KindSpecialized), 1)
				case OutcomeCoalesce:
					res.Ticket.Wait(nil)
				}
			}
		}(g)
	}
	wg.Wait()
	st := r.Stats()
	if st.Lookups != 400 {
		t.Fatalf("lookups = %d, want 400", st.Lookups)
	}
	if st.AdoptHits+st.WarmHits+st.Coalesced+st.Misses != st.Lookups {
		t.Fatalf("resolution counters don't partition lookups: %+v", st)
	}
}
