package core

import (
	"testing"

	"odin/internal/qos"
)

// mixedFids assigns a repeating full→lite→count→skip ladder across n
// frames, exercising every fidelity in one window.
func mixedFids(n int) []qos.Fidelity {
	ladder := []qos.Fidelity{qos.Full, qos.Lite, qos.Count, qos.Skip}
	fids := make([]qos.Fidelity, n)
	for i := range fids {
		fids[i] = ladder[i%len(ladder)]
	}
	return fids
}

// TestProcessBatchFidNilMatchesExplicitFull pins the representation contract: a
// nil fidelity slice and an explicit all-Full slice are the same path —
// bit-identical results and stats.
func TestProcessBatchFidNilMatchesExplicitFull(t *testing.T) {
	stream := driftTestStream(120)

	a := streamTestPipeline(t)
	want := a.ProcessBatch(stream, 4)
	wantStats := a.Stats()

	b := streamTestPipeline(t)
	full := make([]qos.Fidelity, len(stream))
	got := b.ProcessBatchFid(stream, 4, full)
	for i := range want {
		if want[i].Fingerprint() != got[i].Fingerprint() {
			t.Fatalf("frame %d: %s != %s", i, got[i].Fingerprint(), want[i].Fingerprint())
		}
	}
	if st := b.Stats(); st != wantStats {
		t.Fatalf("stats %+v, want %+v", st, wantStats)
	}
	if wantStats.FullFrames != len(stream) || wantStats.Dropped != 0 {
		t.Fatalf("full-frame counter %d/%d, want %d/0", wantStats.FullFrames, wantStats.Dropped, len(stream))
	}
}

// TestFidelityLadderSemantics checks what each rung actually does to a
// frame's result: skip yields a stamped husk, count yields a count and no
// boxes, lite collapses to a single model, and the stats counters account
// for every frame by fidelity.
func TestFidelityLadderSemantics(t *testing.T) {
	stream := driftTestStream(120)
	fids := mixedFids(len(stream))
	o := streamTestPipeline(t)
	results := o.ProcessBatchFid(stream, 4, fids)
	if len(results) != len(stream) {
		t.Fatalf("%d results for %d frames", len(results), len(stream))
	}
	for i, r := range results {
		if r.Fidelity != fids[i] {
			t.Fatalf("frame %d: fidelity %v, want %v", i, r.Fidelity, fids[i])
		}
		switch fids[i] {
		case qos.Skip:
			if r.ClusterID != -1 || len(r.ModelsUsed) != 0 || r.Detections != nil || r.SimLatency != 0 {
				t.Fatalf("frame %d: skip result did work: %+v", i, r)
			}
		case qos.Count:
			if r.Detections != nil {
				t.Fatalf("frame %d: count result materialised detections", i)
			}
			if len(r.ModelsUsed) != 1 {
				t.Fatalf("frame %d: count used %v, want one model", i, r.ModelsUsed)
			}
		case qos.Lite:
			if len(r.ModelsUsed) != 1 {
				t.Fatalf("frame %d: lite used %v, want one model", i, r.ModelsUsed)
			}
		}
	}
	st := o.Stats()
	n := len(stream) / 4
	if st.FullFrames != n || st.LiteFrames != n || st.CountFrames != n || st.SkipFrames != n {
		t.Fatalf("fidelity counters %+v, want %d each", st, n)
	}
	if st.Frames != len(stream) {
		t.Fatalf("frames %d, want %d", st.Frames, len(stream))
	}
}

// TestCountFidelityMatchesLiteDetections pins the count-pushdown contract
// at the fidelity layer: Count and Lite pick the same (cheapest single)
// model and advance identically, so a count-fidelity frame's Count must
// equal the number of detections the lite-fidelity run materialises.
func TestCountFidelityMatchesLiteDetections(t *testing.T) {
	stream := driftTestStream(120)

	lite := streamTestPipeline(t)
	fidsL := make([]qos.Fidelity, len(stream))
	for i := range fidsL {
		fidsL[i] = qos.Lite
	}
	liteRes := lite.ProcessBatchFid(stream, 4, fidsL)

	cnt := streamTestPipeline(t)
	fidsC := make([]qos.Fidelity, len(stream))
	for i := range fidsC {
		fidsC[i] = qos.Count
	}
	cntRes := cnt.ProcessBatchFid(stream, 4, fidsC)

	for i := range liteRes {
		if cntRes[i].Count != len(liteRes[i].Detections) {
			t.Fatalf("frame %d: count %d, lite materialised %d", i, cntRes[i].Count, len(liteRes[i].Detections))
		}
		if len(cntRes[i].ModelsUsed) != 1 || cntRes[i].ModelsUsed[0] != liteRes[i].ModelsUsed[0] {
			t.Fatalf("frame %d: models %v vs %v", i, cntRes[i].ModelsUsed, liteRes[i].ModelsUsed)
		}
	}
	if lite.Stats().SimTime != cnt.Stats().SimTime {
		t.Fatalf("sim time diverged: %v vs %v", lite.Stats().SimTime, cnt.Stats().SimTime)
	}
}

// TestFidelityDeterministicAcrossWorkers is the degraded-mode determinism
// contract: given the same per-frame fidelity assignment, results are
// bit-identical at 1, 4 and 8 workers.
func TestFidelityDeterministicAcrossWorkers(t *testing.T) {
	stream := driftTestStream(150)
	fids := mixedFids(len(stream))

	ref := streamTestPipeline(t)
	want := make([]string, len(stream))
	for i, r := range ref.ProcessBatchFid(stream, 1, fids) {
		want[i] = r.Fingerprint()
	}
	wantStats := ref.Stats()

	for _, workers := range []int{4, 8} {
		o := streamTestPipeline(t)
		got := o.ProcessBatchFid(stream, workers, fids)
		for i := range want {
			if fp := got[i].Fingerprint(); fp != want[i] {
				t.Fatalf("workers=%d frame %d:\n got %s\nwant %s", workers, i, fp, want[i])
			}
		}
		if st := o.Stats(); st != wantStats {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, st, wantStats)
		}
	}
}

// TestAddDropped pins the admission-drop counter.
func TestAddDropped(t *testing.T) {
	o := streamTestPipeline(t)
	o.AddDropped(3)
	o.AddDropped(0)
	o.AddDropped(-1)
	if st := o.Stats(); st.Dropped != 3 {
		t.Fatalf("dropped %d, want 3", st.Dropped)
	}
}
