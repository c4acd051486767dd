// Package serveapi defines the JSON wire format of the odin-serve HTTP
// front-end, shared by the server (cmd/odin-serve) and its clients
// (cmd/odin-conform, the CI conformance driver).
//
// Determinism note: frames cross the wire as raw float64 pixel/box values.
// encoding/json renders float64 with the shortest representation that
// round-trips exactly, and the server parses every number with a correctly
// rounded conversion, so a frame POSTed to a replica is bit-identical to
// the frame the client generated — which is what lets the cross-process
// conformance tests compare fingerprints bit-for-bit.
//
// Who parses what: clients, responses and the small control-plane bodies
// use encoding/json on the structs below. The frame-bearing request bodies
// (FramesRequest, QueryRequest and the execute body — ~70 KB of numbers per
// frame) go through DecodeRequest in the server instead: one pass, no
// reflection, and each number token scanned once — the JSON grammar
// checked, the significant digits counted and accumulated eight bytes at a
// time — then converted by the first of three tiers that applies. Clinger's
// fast path is one IEEE division of two exact float64s (no exponent,
// significant digits below 2⁵³, at most 22 after the point); Eisel–Lemire,
// a port of strconv's own, takes up to 19 significant digits and 27 after
// the point and either answers or declines; strconv.ParseFloat, the
// conversion encoding/json itself ends in, takes the rest (exponents, longer
// tokens, refusals). All three are correctly rounded, so there is exactly
// one float64 a token can become and the argument above does not depend on
// which decoder or tier ran. Real frames split 58/42 (night), 55/45 (day)
// and 74/26 (snow) between the first two tiers; none of their pixels reach
// strconv. The differential test, TestParseNumberMatchesStrconv,
// FuzzDecodeRequest and FuzzDecodeNumber hold DecodeRequest to
// encoding/json's and strconv's results bit for bit. DecodeRequest is
// stricter than encoding/json and never looser; its doc comment lists how.
package serveapi

import (
	"odin/internal/detect"
	"odin/internal/synth"
)

// Frame is one video frame on the wire.
type Frame struct {
	Index    int       `json:"index"`
	C        int       `json:"c"`
	H        int       `json:"h"`
	W        int       `json:"w"`
	Pix      []float64 `json:"pix"`
	Boxes    []Box     `json:"boxes,omitempty"`
	Time     int       `json:"time"`
	Weather  int       `json:"weather"`
	Location int       `json:"location"`
}

// Box is an object bounding box on the wire.
type Box struct {
	Class int     `json:"class"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	W     float64 `json:"w"`
	H     float64 `json:"h"`
}

// Detection is one detected object on the wire.
type Detection struct {
	Box   Box     `json:"box"`
	Score float64 `json:"score"`
}

// Result is the outcome of processing one frame through a stream session.
// Fingerprint is computed server-side (Result.Fingerprint of the facade),
// so clients can compare replica results bit-for-bit without re-deriving
// the reduction. A Dropped result is an admission-queue shed marker: it
// keeps the frame's sequence slot but carries no fingerprint, detections
// or count.
type Result struct {
	Seq             int         `json:"seq"`
	Fingerprint     string      `json:"fingerprint,omitempty"`
	ClusterID       int         `json:"cluster_id"`
	ModelsUsed      []string    `json:"models_used,omitempty"`
	ModelGen        uint64      `json:"model_gen"`
	RecoveryPending bool        `json:"recovery_pending,omitempty"`
	Drift           bool        `json:"drift,omitempty"`
	SimLatency      float64     `json:"sim_latency"`
	Fidelity        string      `json:"fidelity,omitempty"`
	Count           int         `json:"count,omitempty"`
	Dropped         bool        `json:"dropped,omitempty"`
	Detections      []Detection `json:"detections,omitempty"`
}

// QueryResult is an aggregation query's output on the wire.
type QueryResult struct {
	Count          int           `json:"count"`
	PerFrame       []int         `json:"per_frame,omitempty"`
	Detections     [][]Detection `json:"detections,omitempty"`
	FramesScanned  int           `json:"frames_scanned"`
	FramesFiltered int           `json:"frames_filtered"`
	ModelFrames    int           `json:"model_frames"`
}

// WindowEvent is one standing-query window on the SSE subscription feed.
type WindowEvent struct {
	Window          int    `json:"window"`
	StartSeq        int    `json:"start_seq"`
	EndSeq          int    `json:"end_seq"`
	GenLo           uint64 `json:"gen_lo"`
	GenHi           uint64 `json:"gen_hi"`
	RecoveryPending int    `json:"recovery_pending"`
	Degraded        int    `json:"degraded,omitempty"`
	Count           int    `json:"count"`
	PerFrame        []int  `json:"per_frame,omitempty"`
	Err             string `json:"err,omitempty"`
}

// FromFrame converts an internal frame to its wire form.
func FromFrame(f *synth.Frame) Frame {
	w := Frame{
		Index:    f.Index,
		C:        f.Image.C,
		H:        f.Image.H,
		W:        f.Image.W,
		Pix:      f.Image.Pix,
		Time:     int(f.Domain.Time),
		Weather:  int(f.Domain.Weather),
		Location: int(f.Domain.Location),
	}
	for _, b := range f.Boxes {
		w.Boxes = append(w.Boxes, Box{Class: b.Class, X: b.X, Y: b.Y, W: b.W, H: b.H})
	}
	return w
}

// ToFrame converts a wire frame to its internal form.
func ToFrame(w Frame) *synth.Frame {
	f := &synth.Frame{
		Index: w.Index,
		Image: &synth.Image{C: w.C, H: w.H, W: w.W, Pix: w.Pix},
		Domain: synth.Domain{
			Time:     synth.TimeOfDay(w.Time),
			Weather:  synth.Weather(w.Weather),
			Location: synth.Location(w.Location),
		},
	}
	for _, b := range w.Boxes {
		f.Boxes = append(f.Boxes, synth.Box{Class: b.Class, X: b.X, Y: b.Y, W: b.W, H: b.H})
	}
	return f
}

// FromDetections converts internal detections to wire form.
func FromDetections(ds []detect.Detection) []Detection {
	if ds == nil {
		return nil
	}
	out := make([]Detection, len(ds))
	for i, d := range ds {
		out[i] = Detection{
			Box:   Box{Class: d.Box.Class, X: d.Box.X, Y: d.Box.Y, W: d.Box.W, H: d.Box.H},
			Score: d.Score,
		}
	}
	return out
}

// Request/response bodies of the session endpoints.
type (
	// CreateStreamRequest opens a stream session.
	CreateStreamRequest struct {
		Name     string `json:"name"`
		Workers  int    `json:"workers,omitempty"`
		MaxBatch int    `json:"max_batch,omitempty"`
		// Weight is the session's share of the dispatcher's flush budget
		// (see odin.StreamOptions.Weight). 0 means an equal share.
		Weight int `json:"weight,omitempty"`
	}
	// CreateStreamResponse returns the session handle.
	CreateStreamResponse struct {
		ID string `json:"id"`
	}
	// FramesRequest submits a frame batch to a session.
	FramesRequest struct {
		Frames []Frame `json:"frames"`
	}
	// FramesResponse returns the batch's results in frame order. Dropped
	// counts the batch's admission-queue shed markers (each also appears
	// in Results with its Dropped flag set — the ledger stays exact).
	FramesResponse struct {
		Results []Result `json:"results"`
		Dropped int      `json:"dropped,omitempty"`
	}
	// QueryRequest executes a one-shot SQL query over frames.
	QueryRequest struct {
		SQL    string  `json:"sql"`
		Frames []Frame `json:"frames"`
	}
	// PrepareRequest compiles a SQL query for repeated execution.
	PrepareRequest struct {
		SQL string `json:"sql"`
	}
	// PrepareResponse returns the prepared-query handle and its plan.
	PrepareResponse struct {
		ID      string `json:"id"`
		Explain string `json:"explain"`
	}
	// GenerateResponse returns server-generated synthetic frames.
	GenerateResponse struct {
		Frames []Frame `json:"frames"`
	}
	// CheckpointResponse reports where a checkpoint was stored.
	CheckpointResponse struct {
		Path string `json:"path"`
	}
	// RestoreRequest restores server state from the checkpoint store.
	RestoreRequest struct {
		// Path selects a checkpoint file; empty means the store's latest.
		Path string `json:"path,omitempty"`
	}
	// StatsResponse is the /v1/stats document.
	StatsResponse struct {
		Frames            int     `json:"frames"`
		Outliers          int     `json:"outliers"`
		DriftEvents       int     `json:"drift_events"`
		SimTime           float64 `json:"sim_time"`
		NumClusters       int     `json:"num_clusters"`
		NumModels         int     `json:"num_models"`
		ModelGen          uint64  `json:"model_gen"`
		PendingRecoveries int     `json:"pending_recoveries"`
		MemoryMB          float64 `json:"memory_mb"`

		// QoS accounting: per-fidelity frame counters and the
		// admission-drop total across every stream of the server.
		FullFrames  int `json:"full_frames"`
		LiteFrames  int `json:"lite_frames,omitempty"`
		CountFrames int `json:"count_frames,omitempty"`
		SkipFrames  int `json:"skip_frames,omitempty"`
		Dropped     int `json:"dropped,omitempty"`

		Trainer  *TrainerStats  `json:"trainer,omitempty"`
		Registry *RegistryStats `json:"registry,omitempty"`
		Dispatch *DispatchStats `json:"dispatch,omitempty"`
	}
	// DispatchStats mirrors odin.DispatchStats on the wire: merged-batch
	// counters plus the weighted-flush queue depth.
	DispatchStats struct {
		Batches        int `json:"batches"`
		Windows        int `json:"windows"`
		Frames         int `json:"frames"`
		MaxMerge       int `json:"max_merge"`
		PartialFlushes int `json:"partial_flushes"`
		QueuedWindows  int `json:"queued_windows"`
		QueuedFrames   int `json:"queued_frames"`
	}
	// TrainerStats mirrors odin.TrainerStats on the wire.
	TrainerStats struct {
		Trained   int `json:"trained"`
		Scratch   int `json:"scratch"`
		Warm      int `json:"warm"`
		Adopted   int `json:"adopted"`
		Coalesced int `json:"coalesced"`
		Dropped   int `json:"dropped"`
		Failed    int `json:"failed"`
	}
	// RegistryStats mirrors odin.RegistryStats on the wire.
	RegistryStats struct {
		Size      int `json:"size"`
		Capacity  int `json:"capacity"`
		Lookups   int `json:"lookups"`
		AdoptHits int `json:"adopt_hits"`
		WarmHits  int `json:"warm_hits"`
		Coalesced int `json:"coalesced"`
		Misses    int `json:"misses"`
		Published int `json:"published"`
		Evicted   int `json:"evicted"`
	}
	// ErrorResponse is the body of every non-2xx response.
	ErrorResponse struct {
		Error string `json:"error"`
	}
	// HealthResponse is the /healthz document.
	HealthResponse struct {
		OK     bool `json:"ok"`
		Booted bool `json:"booted"`
	}
)
