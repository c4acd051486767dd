package odin

import (
	"context"
	"errors"
	"testing"
	"time"
)

// qosServer builds a bootstrapped server with the fast test options plus
// any QoS extras, closed with the test.
func qosServer(t *testing.T, seed uint64, extra ...Option) *Server {
	t.Helper()
	srv, err := New(append(fastServerOptions(seed), extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bootstrap(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// feedAll pre-queues every frame on a closed channel, so the session sees
// the whole stream as already arrived.
func feedAll(frames []*Frame) chan *Frame {
	in := make(chan *Frame, len(frames))
	for _, f := range frames {
		in <- f
	}
	close(in)
	return in
}

// TestQoSDropAccounting pins the zero-silent-loss ledger under both
// shedding policies: with a stalled consumer, offered = delivered results +
// drop markers, sequence numbers stay contiguous, and the marker count
// agrees with both the stream's and the server's drop counters.
func TestQoSDropAccounting(t *testing.T) {
	const n = 48
	for _, policy := range []DropPolicy{DropNewest, DropOldest} {
		t.Run(policy.String(), func(t *testing.T) {
			srv := qosServer(t, 5, WithMaxQueue(2), WithDropPolicy(policy))
			frames := srv.GenerateFrames(DayData, n)
			st, err := srv.OpenStream(context.Background(), StreamOptions{MaxBatch: 4, Buffer: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			out := st.Run(context.Background(), feedAll(frames))
			var results []StreamResult
			for r := range out {
				results = append(results, r)
				time.Sleep(2 * time.Millisecond) // stall so the queue overflows
			}
			if len(results) != n {
				t.Fatalf("ledger broken: %d results for %d offered frames", len(results), n)
			}
			drops := 0
			for i, r := range results {
				if r.Seq != i {
					t.Fatalf("result %d has seq %d; sequence must stay contiguous", i, r.Seq)
				}
				if r.Dropped {
					drops++
					if r.Frame != nil {
						t.Fatalf("drop marker %d carries a frame", i)
					}
				}
			}
			if drops == 0 {
				t.Fatal("stalled consumer never overflowed the 2-frame queue")
			}
			q := st.QoS()
			if !q.Enabled || q.Dropped != uint64(drops) {
				t.Fatalf("stream QoS %+v, want %d drops", q, drops)
			}
			if got := srv.Stats().Dropped; got != drops {
				t.Fatalf("server stats counted %d drops, markers say %d", got, drops)
			}
		})
	}
}

// TestQoSOfferAdmission exercises the non-blocking admission path: Offer
// requires an active QoS session, rejects with ErrOverloaded when the
// queue is full (counted as Rejected), and every admitted frame still
// yields a result.
func TestQoSOfferAdmission(t *testing.T) {
	srv := qosServer(t, 9, WithMaxQueue(2))
	frames := srv.GenerateFrames(DayData, 64)
	st, err := srv.OpenStream(context.Background(), StreamOptions{MaxBatch: 1, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if err := st.Offer(frames[0]); !errors.Is(err, ErrNoAdmission) {
		t.Fatalf("Offer before Run: %v, want ErrNoAdmission", err)
	}

	in := make(chan *Frame) // kept open: Offer is the only producer
	out := st.Run(context.Background(), in)
	admitted, rejected := 0, 0
	for _, f := range frames {
		switch err := st.Offer(f); {
		case err == nil:
			admitted++
		case errors.Is(err, ErrOverloaded):
			rejected++
		default:
			t.Fatalf("Offer: %v", err)
		}
		time.Sleep(500 * time.Microsecond)
	}
	if rejected == 0 {
		t.Fatal("64 rapid offers against a 2-frame queue never overloaded")
	}
	close(in)
	var results []StreamResult
	for r := range out {
		if r.Dropped {
			t.Fatal("blocking-policy queue dropped a frame")
		}
		results = append(results, r)
	}
	if len(results) != admitted {
		t.Fatalf("%d results for %d admitted frames", len(results), admitted)
	}
	if q := st.QoS(); q.Rejected != uint64(rejected) {
		t.Fatalf("QoS counted %d rejections, Offer saw %d", q.Rejected, rejected)
	}
	if err := st.Offer(frames[0]); !errors.Is(err, ErrNoAdmission) {
		t.Fatalf("Offer after session end: %v, want ErrNoAdmission", err)
	}
}

// TestQoSSubscriptionDegradedWindows checks that standing queries under a
// degradation script report how many of each window's frames were served
// below full fidelity, with sequence ranges intact.
func TestQoSSubscriptionDegradedWindows(t *testing.T) {
	const n = 40
	srv := qosServer(t, 13,
		WithAdaptiveFidelity(AdaptiveFidelity{Script: []int{0, 1, 1, 0}}),
	)
	frames := srv.GenerateFrames(DayData, n)
	st, err := srv.OpenStream(context.Background(), StreamOptions{MaxBatch: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pq, err := srv.PrepareSQL("SELECT COUNT(detections) FROM stream USING MODEL odin")
	if err != nil {
		t.Fatal(err)
	}
	wins, err := st.Subscribe(context.Background(), pq, WindowOptions{Size: 10, Buffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	for range st.Run(context.Background(), feedAll(frames)) {
	}
	degraded := 0
	windows := 0
	for wr := range wins {
		if wr.Err != nil {
			t.Fatalf("window %d: %v", wr.Window, wr.Err)
		}
		if wr.EndSeq-wr.StartSeq != 9 {
			t.Fatalf("window %d spans [%d,%d], want width 10", wr.Window, wr.StartSeq, wr.EndSeq)
		}
		degraded += wr.Degraded
		windows++
	}
	if windows != n/10 {
		t.Fatalf("%d windows, want %d", windows, n/10)
	}
	// Script {0,1,1,0} over 10-frame logical windows degrades exactly the
	// middle twenty frames, all at Lite.
	if degraded != 20 {
		t.Fatalf("windows reported %d degraded frames, want 20", degraded)
	}
}

// TestQoSLiveControllerEngages exercises the hysteresis controller
// against real queue pressure (no script): a flooded queue with a slow
// consumer must degrade fidelity, and the occupancy signal must be the
// backlog the pop found — not the noisy post-pop depth.
func TestQoSLiveControllerEngages(t *testing.T) {
	srv := qosServer(t, 17,
		WithMaxQueue(8),
		WithAdaptiveFidelity(AdaptiveFidelity{}),
	)
	frames := srv.GenerateFrames(DayData, 80)
	st, err := srv.OpenStream(context.Background(), StreamOptions{MaxBatch: 2, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	degraded := 0
	for r := range st.Run(context.Background(), feedAll(frames)) {
		if r.Dropped {
			t.Fatal("blocking-policy queue dropped a frame")
		}
		if r.Fidelity.Degraded() {
			degraded++
		}
		time.Sleep(time.Millisecond) // stall so the queue pins full
	}
	if degraded == 0 {
		t.Fatal("flooded queue with a stalled consumer never degraded fidelity")
	}
	if q := st.QoS(); q.Transitions == 0 {
		t.Fatalf("controller recorded no transitions: %+v", q)
	}
}

// TestQoSOptionValidation pins the cross-option QoS rules.
func TestQoSOptionValidation(t *testing.T) {
	if _, err := New(WithDropPolicy(DropOldest)); err == nil {
		t.Fatal("WithDropPolicy without WithMaxQueue must be rejected")
	}
	// Adaptive fidelity alone implies a default admission queue, which a
	// drop policy may act on — in either option order, and only the
	// explicit bound overrides the implied one.
	good := []struct {
		name      string
		opts      []Option
		wantQueue int
		wantDrop  DropPolicy
	}{
		{"adaptive alone", []Option{WithAdaptiveFidelity(AdaptiveFidelity{})}, 64, DropBlock},
		{"adaptive then policy", []Option{WithAdaptiveFidelity(AdaptiveFidelity{}), WithDropPolicy(DropOldest)}, 64, DropOldest},
		{"policy then adaptive", []Option{WithDropPolicy(DropOldest), WithAdaptiveFidelity(AdaptiveFidelity{})}, 64, DropOldest},
		{"policy then queue", []Option{WithDropPolicy(DropNewest), WithMaxQueue(8)}, 8, DropNewest},
		{"adaptive with explicit queue", []Option{WithAdaptiveFidelity(AdaptiveFidelity{}), WithMaxQueue(8)}, 8, DropBlock},
	}
	for _, c := range good {
		srv, err := New(append(fastServerOptions(2), c.opts...)...)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if srv.cfg.maxQueue != c.wantQueue || srv.cfg.dropPolicy != c.wantDrop {
			t.Errorf("%s: queue %d policy %v, want %d %v", c.name, srv.cfg.maxQueue, srv.cfg.dropPolicy, c.wantQueue, c.wantDrop)
		}
	}
}
