package qos

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"odin/internal/synth"
)

func frame(i int) *synth.Frame { return &synth.Frame{Index: i} }

func TestForLevelLadder(t *testing.T) {
	if got := ForLevel(0, 7); got != Full {
		t.Fatalf("level 0 = %v, want full", got)
	}
	if got := ForLevel(1, 7); got != Lite {
		t.Fatalf("level 1 = %v, want lite", got)
	}
	if got := ForLevel(2, 7); got != Count {
		t.Fatalf("level 2 = %v, want count", got)
	}
	if got := ForLevel(3, 2*SubsampleEvery); got != Count {
		t.Fatalf("level 3 on-stride seq = %v, want count", got)
	}
	if got := ForLevel(3, 2*SubsampleEvery+1); got != Skip {
		t.Fatalf("level 3 off-stride seq = %v, want skip", got)
	}
	if Full.Degraded() || !Skip.Degraded() {
		t.Fatalf("Degraded: full=%v skip=%v", Full.Degraded(), Skip.Degraded())
	}
}

func TestDropPolicyRoundTrip(t *testing.T) {
	for _, p := range []DropPolicy{Block, DropNewest, DropOldest} {
		got, err := ParseDropPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: got %v err %v", p, got, err)
		}
	}
	if _, err := ParseDropPolicy("bogus"); err == nil {
		t.Fatalf("ParseDropPolicy(bogus) should fail")
	}
}

func TestControllerHysteresis(t *testing.T) {
	c := NewController()
	// One hot sample is not enough (patience 2).
	if lvl := c.Observe(0.9); lvl != 0 {
		t.Fatalf("after 1 hot sample level=%d, want 0", lvl)
	}
	if lvl := c.Observe(0.9); lvl != 1 {
		t.Fatalf("after 2 hot samples level=%d, want 1", lvl)
	}
	// Mid-band holds the level and resets counters.
	if lvl := c.Observe(0.5); lvl != 1 {
		t.Fatalf("mid-band level=%d, want 1", lvl)
	}
	if lvl := c.Observe(0.9); lvl != 1 {
		t.Fatalf("hot counter should have reset, level=%d", lvl)
	}
	// Keep pressure on until the ladder bottom.
	for i := 0; i < 10; i++ {
		c.Observe(1.0)
	}
	if c.Level() != MaxLevel {
		t.Fatalf("sustained overload level=%d, want %d", c.Level(), MaxLevel)
	}
	// Cold samples walk it back up one step per patience window.
	if lvl := c.Observe(0.1); lvl != MaxLevel {
		t.Fatalf("after 1 cold sample level=%d, want %d", lvl, MaxLevel)
	}
	if lvl := c.Observe(0.1); lvl != MaxLevel-1 {
		t.Fatalf("after 2 cold samples level=%d, want %d", lvl, MaxLevel-1)
	}
	for i := 0; i < 10; i++ {
		c.Observe(0.0)
	}
	if c.Level() != 0 {
		t.Fatalf("sustained idle level=%d, want 0", c.Level())
	}
	if c.Transitions() == 0 {
		t.Fatalf("transitions not counted")
	}
}

func TestQueueFIFOAndSeq(t *testing.T) {
	q := NewQueue(8, Block)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := q.Push(ctx, nil, frame(i)); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	got, err := q.Pop(ctx, nil, 3)
	if err != nil {
		t.Fatalf("pop: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("pop returned %d entries, want 3", len(got))
	}
	for i, e := range got {
		if e.Seq != i || e.Frame.Index != i || e.DropN != 0 {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
	q.Close()
	got, err = q.Pop(ctx, nil, 10)
	if err != nil || len(got) != 2 || got[0].Seq != 3 {
		t.Fatalf("drain pop: %v entries, err %v", got, err)
	}
	if _, err := q.Pop(ctx, nil, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("pop after drain: %v, want ErrClosed", err)
	}
	if err := q.Push(ctx, nil, frame(9)); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close: %v, want ErrClosed", err)
	}
}

func TestQueueDropNewestCoalesces(t *testing.T) {
	q := NewQueue(2, DropNewest)
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if err := q.Push(ctx, nil, frame(i)); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if q.Dropped() != 4 {
		t.Fatalf("dropped=%d, want 4", q.Dropped())
	}
	got, err := q.Pop(ctx, nil, 10)
	if err != nil {
		t.Fatalf("pop: %v", err)
	}
	// Frames 0,1 admitted; 2..5 coalesced into one marker.
	if len(got) != 3 {
		t.Fatalf("entries=%d (%+v), want 3", len(got), got)
	}
	if got[0].Seq != 0 || got[1].Seq != 1 {
		t.Fatalf("admitted seqs wrong: %+v", got)
	}
	if got[2].DropN != 4 || got[2].Seq != 2 || got[2].Frame != nil {
		t.Fatalf("marker wrong: %+v", got[2])
	}
}

func TestQueueDropOldestKeepsFresh(t *testing.T) {
	q := NewQueue(2, DropOldest)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := q.Push(ctx, nil, frame(i)); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if q.Dropped() != 3 {
		t.Fatalf("dropped=%d, want 3", q.Dropped())
	}
	got, err := q.Pop(ctx, nil, 10)
	if err != nil {
		t.Fatalf("pop: %v", err)
	}
	// Seqs 0,1,2 shed into one merged marker; 3,4 kept.
	if len(got) != 3 {
		t.Fatalf("entries=%d (%+v), want 3", len(got), got)
	}
	if got[0].DropN != 3 || got[0].Seq != 0 {
		t.Fatalf("marker wrong: %+v", got[0])
	}
	if got[1].Frame.Index != 3 || got[2].Frame.Index != 4 {
		t.Fatalf("kept frames wrong: %+v", got)
	}
}

func TestQueueTryPushRejects(t *testing.T) {
	q := NewQueue(1, Block)
	if !q.TryPush(frame(0)) {
		t.Fatalf("first TryPush should admit")
	}
	if q.TryPush(frame(1)) {
		t.Fatalf("TryPush on full queue should reject")
	}
	if q.Rejected() != 1 || q.Dropped() != 0 {
		t.Fatalf("rejected=%d dropped=%d, want 1/0", q.Rejected(), q.Dropped())
	}
	got, err := q.Pop(context.Background(), nil, 1)
	if err != nil || len(got) != 1 || got[0].Seq != 0 {
		t.Fatalf("pop: %v err %v", got, err)
	}
}

func TestQueueBlockBackpressure(t *testing.T) {
	q := NewQueue(2, Block)
	ctx := context.Background()
	var wg sync.WaitGroup
	pushed := make([]error, 6)
	for i := 0; i < 6; i++ {
		if i < 2 {
			if err := q.Push(ctx, nil, frame(i)); err != nil {
				t.Fatalf("push %d: %v", i, err)
			}
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pushed[i] = q.Push(ctx, nil, frame(i))
		}(i)
	}
	var all []Entry
	deadline := time.Now().Add(5 * time.Second)
	for len(all) < 6 {
		if time.Now().After(deadline) {
			t.Fatalf("timed out draining, got %d entries", len(all))
		}
		got, err := q.Pop(ctx, nil, 2)
		if err != nil {
			t.Fatalf("pop: %v", err)
		}
		all = append(all, got...)
	}
	wg.Wait()
	for i := 2; i < 6; i++ {
		if pushed[i] != nil {
			t.Fatalf("push %d: %v", i, pushed[i])
		}
	}
	if q.Dropped() != 0 {
		t.Fatalf("block policy dropped %d frames", q.Dropped())
	}
	seen := map[int]bool{}
	for i, e := range all {
		if e.DropN != 0 {
			t.Fatalf("unexpected marker %+v", e)
		}
		if e.Seq != i {
			t.Fatalf("entry %d has seq %d, want in-order seqs", i, e.Seq)
		}
		seen[e.Frame.Index] = true
	}
	if len(seen) != 6 {
		t.Fatalf("saw %d distinct frames, want 6", len(seen))
	}
}

func TestQueuePopHonorsCancel(t *testing.T) {
	q := NewQueue(1, Block)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := q.Pop(ctx, nil, 1)
		errc <- err
	}()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pop returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("pop did not honor cancellation")
	}
}
