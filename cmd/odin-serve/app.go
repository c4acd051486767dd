package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime/debug"
	"strconv"
	"sync"

	"odin"
	"odin/internal/checkpoint"
	"odin/internal/serveapi"
)

// app is the HTTP front-end over one odin.Server: stream sessions keyed by
// id, prepared queries keyed by id, and the checkpoint store.
//
// Locking: ckptMu is the consistency gate between frame traffic and
// checkpoint/restore — frame submission holds it shared, checkpoint and
// restore hold it exclusively, so a checkpoint cuts the stream history at a
// batch boundary (never mid-batch). mu guards the server pointer and the
// session/prepared maps and is always acquired after ckptMu.
type app struct {
	opts  func() []odin.Option
	store *checkpoint.DirStore // nil: no durable checkpoints
	// pprofOn mounts net/http/pprof under /debug/pprof/ (the -pprof flag).
	// Opt-in: profiling endpoints expose heap contents and should not ride
	// along on every deployment.
	pprofOn bool

	ckptMu sync.RWMutex

	mu       sync.Mutex
	srv      *odin.Server
	sessions map[string]*session
	prepared map[string]*odin.PreparedQuery
	nextID   uint64
	logger   *log.Logger
}

// maxBodyBytes bounds every request body; a body that runs past it is
// answered 413. At ~70 KB of JSON per 3×27×48 frame this is a batch of
// about 450 frames — far beyond what a Run window can use at once.
const maxBodyBytes = 32 << 20

// sessionBuffer is the capacity of a session's input channel. A frame
// batch up to this long is queued in full before the Run loop wakes, so
// the loop assembles whole MaxBatch windows instead of whatever a feeder
// goroutine managed to hand over one frame at a time; 64 covers the batch
// sizes clients use (4–16) with room to spare, and a longer batch only
// falls back to feeding its tail from a goroutine.
const sessionBuffer = 64

// session is one live stream: a Run loop fed by in, drained through out.
// Frame batches are serialized per session by mu; results come back in
// frame order, so batch k's results are exactly the next len(batch) reads.
type session struct {
	id     string
	st     *odin.Stream
	ctx    context.Context
	cancel context.CancelFunc
	in     chan *odin.Frame
	out    <-chan odin.StreamResult

	mu     sync.Mutex
	closed bool
}

func newApp(srv *odin.Server, store *checkpoint.DirStore, opts func() []odin.Option, logger *log.Logger) *app {
	if logger == nil {
		logger = log.New(os.Stderr, "odin-serve: ", log.LstdFlags)
	}
	return &app{
		opts:     opts,
		store:    store,
		srv:      srv,
		sessions: make(map[string]*session),
		prepared: make(map[string]*odin.PreparedQuery),
		logger:   logger,
	}
}

// handler builds the route table. Every request body is capped at
// maxBodyBytes.
func (a *app) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", a.handleHealthz)
	mux.HandleFunc("GET /v1/stats", a.handleStats)
	mux.HandleFunc("GET /v1/generate", a.handleGenerate)
	mux.HandleFunc("POST /v1/streams", a.handleCreateStream)
	mux.HandleFunc("DELETE /v1/streams/{id}", a.handleCloseStream)
	mux.HandleFunc("POST /v1/streams/{id}/frames", a.handleFrames)
	mux.HandleFunc("GET /v1/streams/{id}/subscribe", a.handleSubscribe)
	mux.HandleFunc("POST /v1/query", a.handleQuery)
	mux.HandleFunc("POST /v1/prepared", a.handlePrepare)
	mux.HandleFunc("POST /v1/prepared/{id}/execute", a.handleExecute)
	mux.HandleFunc("POST /v1/checkpoint", a.handleCheckpointSave)
	mux.HandleFunc("GET /v1/checkpoint", a.handleCheckpointDownload)
	mux.HandleFunc("POST /v1/restore", a.handleRestore)
	mux.HandleFunc("GET /metrics", a.handleMetrics)
	mux.HandleFunc("GET /v1/events", a.handleEvents)
	if a.pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return http.MaxBytesHandler(mux, maxBodyBytes)
}

// handleMetrics serves the Prometheus text exposition. 404 when the server
// runs without observability (-obs=false) so scrapers fail loudly instead
// of graphing an empty page.
func (a *app) handleMetrics(w http.ResponseWriter, r *http.Request) {
	srv := a.server()
	if !srv.ObservabilityEnabled() {
		writeErr(w, http.StatusNotFound, odin.ErrObservabilityDisabled)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := srv.WriteMetrics(w); err != nil {
		a.logger.Printf("metrics write failed: %v", err)
	}
}

// handleEvents returns the recent lifecycle events, oldest first. ?n=K
// caps the count (default: the whole retained ring).
func (a *app) handleEvents(w http.ResponseWriter, r *http.Request) {
	srv := a.server()
	if !srv.ObservabilityEnabled() {
		writeErr(w, http.StatusNotFound, odin.ErrObservabilityDisabled)
		return
	}
	n := 0
	if s := r.URL.Query().Get("n"); s != "" {
		var err error
		n, err = strconv.Atoi(s)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid n %q", s))
			return
		}
	}
	evs := srv.RecentEvents(n)
	if evs == nil {
		evs = []odin.Event{}
	}
	writeJSON(w, http.StatusOK, struct {
		Events []odin.Event `json:"events"`
	}{evs})
}

func (a *app) server() *odin.Server {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.srv
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, serveapi.ErrorResponse{Error: err.Error()})
}

// badBody answers a request whose body could not be read or decoded: 413
// when it ran past maxBodyBytes, 400 otherwise.
func badBody(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeErr(w, status, err)
}

// readFrames is the one way frames enter the server: the body goes through
// serveapi's decoder, and every frame must have the shape the server's
// models were built for — the pipeline indexes pixels without checking, and
// a panic on a session goroutine would take the process down. It answers
// the request itself (400 or 413, naming the offending frame) when it
// reports !ok.
func (a *app) readFrames(w http.ResponseWriter, r *http.Request) (sql string, frames []*odin.Frame, ok bool) {
	req, err := serveapi.ReadRequest(r.Body, r.ContentLength)
	if err != nil {
		badBody(w, err)
		return "", nil, false
	}
	c, h, wd := a.server().FrameShape()
	frames = make([]*odin.Frame, len(req.Frames))
	for i, wf := range req.Frames {
		if wf.C != c || wf.H != h || wf.W != wd {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("frame %d: shape %dx%dx%d, this server's frames are %dx%dx%d",
				i, wf.C, wf.H, wf.W, c, h, wd))
			return "", nil, false
		}
		frames[i] = serveapi.ToFrame(wf)
	}
	return req.SQL, frames, true
}

// statusOf maps facade sentinels to HTTP statuses.
func statusOf(err error) int {
	switch {
	case errors.Is(err, odin.ErrNotBootstrapped):
		return http.StatusServiceUnavailable
	case errors.Is(err, odin.ErrServerClosed), errors.Is(err, odin.ErrStreamClosed):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

func (a *app) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Bootstrapped-ness isn't exposed directly; a prepare round-trip fails
	// with ErrNotBootstrapped on a cold server and is cheap on a warm one.
	_, err := a.server().PrepareSQL("SELECT COUNT(detections) FROM stream USING MODEL odin")
	writeJSON(w, http.StatusOK, serveapi.HealthResponse{OK: true, Booted: err == nil})
}

func (a *app) handleStats(w http.ResponseWriter, r *http.Request) {
	srv := a.server()
	st := srv.Stats()
	tr := srv.TrainerStats()
	reg := srv.RegistryStats()
	disp := srv.DispatchStats()
	resp := serveapi.StatsResponse{
		Frames:            st.Frames,
		Outliers:          st.Outliers,
		DriftEvents:       st.DriftEvents,
		SimTime:           st.SimTime,
		NumClusters:       srv.NumClusters(),
		NumModels:         srv.NumModels(),
		ModelGen:          srv.ModelGen(),
		PendingRecoveries: srv.PendingRecoveries(),
		MemoryMB:          srv.MemoryMB(),
		FullFrames:        st.FullFrames,
		LiteFrames:        st.LiteFrames,
		CountFrames:       st.CountFrames,
		SkipFrames:        st.SkipFrames,
		Dropped:           st.Dropped,
		Trainer: &serveapi.TrainerStats{
			Trained: tr.Trained, Scratch: tr.Scratch, Warm: tr.Warm,
			Adopted: tr.Adopted, Coalesced: tr.Coalesced,
			Dropped: tr.Dropped, Failed: tr.Failed,
		},
		Registry: &serveapi.RegistryStats{
			Size: reg.Size, Capacity: reg.Capacity, Lookups: reg.Lookups,
			AdoptHits: reg.AdoptHits, WarmHits: reg.WarmHits,
			Coalesced: reg.Coalesced, Misses: reg.Misses,
			Published: reg.Published, Evicted: reg.Evicted,
		},
		Dispatch: &serveapi.DispatchStats{
			Batches: disp.Batches, Windows: disp.Windows, Frames: disp.Frames,
			MaxMerge: disp.MaxMerge, PartialFlushes: disp.PartialFlushes,
			QueuedWindows: disp.QueuedWindows, QueuedFrames: disp.QueuedFrames,
		},
	}
	writeJSON(w, http.StatusOK, resp)
}

// subsetOf parses a subset name ("full", "day", "night", "rain", "snow").
func subsetOf(s string) (odin.Subset, error) {
	switch s {
	case "", "full":
		return odin.FullData, nil
	case "day":
		return odin.DayData, nil
	case "night":
		return odin.NightData, nil
	case "rain":
		return odin.RainData, nil
	case "snow":
		return odin.SnowData, nil
	}
	return 0, fmt.Errorf("unknown subset %q (want full|day|night|rain|snow)", s)
}

func (a *app) handleGenerate(w http.ResponseWriter, r *http.Request) {
	sub, err := subsetOf(r.URL.Query().Get("subset"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	n := 10
	if s := r.URL.Query().Get("n"); s != "" {
		n, err = strconv.Atoi(s)
		if err != nil || n <= 0 || n > 10000 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid n %q", s))
			return
		}
	}
	frames := a.server().GenerateFrames(sub, n)
	resp := serveapi.GenerateResponse{Frames: make([]serveapi.Frame, len(frames))}
	for i, f := range frames {
		resp.Frames[i] = serveapi.FromFrame(f)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (a *app) handleCreateStream(w http.ResponseWriter, r *http.Request) {
	var req serveapi.CreateStreamRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		badBody(w, fmt.Errorf("decode request: %w", err))
		return
	}
	srv := a.server()
	st, err := srv.OpenStream(r.Context(), odin.StreamOptions{
		Name: req.Name, Workers: req.Workers, MaxBatch: req.MaxBatch,
		Weight: req.Weight,
	})
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan *odin.Frame, sessionBuffer)
	sess := &session{
		st:     st,
		ctx:    ctx,
		cancel: cancel,
		in:     in,
		out:    st.Run(ctx, in),
	}
	a.mu.Lock()
	a.nextID++
	sess.id = fmt.Sprintf("s%d", a.nextID)
	a.sessions[sess.id] = sess
	a.mu.Unlock()
	writeJSON(w, http.StatusOK, serveapi.CreateStreamResponse{ID: sess.id})
}

func (a *app) sessionOf(r *http.Request) (*session, error) {
	id := r.PathValue("id")
	a.mu.Lock()
	defer a.mu.Unlock()
	sess, ok := a.sessions[id]
	if !ok {
		return nil, fmt.Errorf("unknown stream session %q", id)
	}
	return sess, nil
}

func (a *app) handleCloseStream(w http.ResponseWriter, r *http.Request) {
	sess, err := a.sessionOf(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	a.mu.Lock()
	delete(a.sessions, sess.id)
	a.mu.Unlock()
	sess.close()
	w.WriteHeader(http.StatusNoContent)
}

// close shuts the session down: the input channel closes so the Run loop
// flushes remaining frames and subscriptions, then the session context is
// cancelled and the stream closed.
func (s *session) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.in)
	for range s.out { // drain any in-flight results
	}
	s.cancel()
	s.st.Close()
}

// feed sends frames to the Run loop, giving up when the session ends.
func (s *session) feed(frames []*odin.Frame) {
	for _, f := range frames {
		select {
		case s.in <- f:
		case <-s.ctx.Done():
			return
		}
	}
}

func (a *app) handleFrames(w http.ResponseWriter, r *http.Request) {
	sess, err := a.sessionOf(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	_, frames, ok := a.readFrames(w, r)
	if !ok {
		return
	}
	if len(frames) == 0 {
		writeJSON(w, http.StatusOK, serveapi.FramesResponse{})
		return
	}

	// Shared checkpoint gate: a checkpoint never cuts a batch in half.
	a.ckptMu.RLock()
	defer a.ckptMu.RUnlock()

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		writeErr(w, http.StatusConflict, odin.ErrStreamClosed)
		return
	}
	// The previous batch was read out in full before sess.mu was released,
	// so in is empty: up to its capacity this batch goes in without
	// blocking, and the Run loop wakes to whole windows.
	head := min(len(frames), cap(sess.in))
	sess.feed(frames[:head])
	if tail := frames[head:]; len(tail) > 0 {
		go sess.feed(tail)
	}
	// Every submitted frame yields exactly one result — real or an
	// admission-drop marker — so the batch's results are still exactly the
	// next len(frames) reads (the QoS layer's zero-silent-loss contract).
	resp := serveapi.FramesResponse{Results: make([]serveapi.Result, 0, len(frames))}
	for range frames {
		sr, ok := <-sess.out
		if !ok {
			sess.cancel() // unblock a tail feeder
			writeErr(w, http.StatusConflict, odin.ErrStreamClosed)
			return
		}
		if sr.Dropped {
			resp.Dropped++
			resp.Results = append(resp.Results, serveapi.Result{
				Seq: sr.Seq, ClusterID: -1, Dropped: true,
			})
			continue
		}
		res := sr.Result
		wr := serveapi.Result{
			Seq:             sr.Seq,
			Fingerprint:     res.Fingerprint(),
			ClusterID:       res.ClusterID,
			ModelsUsed:      res.ModelsUsed,
			ModelGen:        res.ModelGen,
			RecoveryPending: res.RecoveryPending,
			Drift:           res.Drift != nil,
			SimLatency:      res.SimLatency,
			Count:           res.Count,
			Detections:      serveapi.FromDetections(res.Detections),
		}
		if res.Fidelity.Degraded() {
			wr.Fidelity = res.Fidelity.String()
		}
		resp.Results = append(resp.Results, wr)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (a *app) handleQuery(w http.ResponseWriter, r *http.Request) {
	sql, frames, ok := a.readFrames(w, r)
	if !ok {
		return
	}
	res, err := a.server().Query(r.Context(), sql, frames)
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, fromQueryResult(res))
}

func fromQueryResult(res *odin.QueryResult) serveapi.QueryResult {
	out := serveapi.QueryResult{
		Count:          res.Count,
		PerFrame:       res.PerFrame,
		FramesScanned:  res.FramesScanned,
		FramesFiltered: res.FramesFiltered,
		ModelFrames:    res.ModelFrames,
	}
	for _, ds := range res.Detections {
		out.Detections = append(out.Detections, serveapi.FromDetections(ds))
	}
	return out
}

func (a *app) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req serveapi.PrepareRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		badBody(w, fmt.Errorf("decode request: %w", err))
		return
	}
	pq, err := a.server().PrepareSQL(req.SQL)
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	a.mu.Lock()
	a.nextID++
	id := fmt.Sprintf("q%d", a.nextID)
	a.prepared[id] = pq
	a.mu.Unlock()
	writeJSON(w, http.StatusOK, serveapi.PrepareResponse{ID: id, Explain: pq.Explain()})
}

func (a *app) preparedOf(id string) (*odin.PreparedQuery, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	pq, ok := a.prepared[id]
	if !ok {
		return nil, fmt.Errorf("unknown prepared query %q (re-prepare after restore)", id)
	}
	return pq, nil
}

func (a *app) handleExecute(w http.ResponseWriter, r *http.Request) {
	pq, err := a.preparedOf(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	_, frames, ok := a.readFrames(w, r)
	if !ok {
		return
	}
	res, err := pq.Execute(r.Context(), frames)
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, fromQueryResult(res))
}

// handleSubscribe attaches a standing query to a live session and streams
// its windows as server-sent events (one `data:` line per window).
func (a *app) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	sess, err := a.sessionOf(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	pq, err := a.preparedOf(r.URL.Query().Get("prepared"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	size := 25
	if s := r.URL.Query().Get("size"); s != "" {
		size, err = strconv.Atoi(s)
		if err != nil || size <= 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid window size %q", s))
			return
		}
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	windows, err := sess.st.Subscribe(r.Context(), pq, odin.WindowOptions{Size: size})
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	enc := json.NewEncoder(w)
	for {
		var wr odin.WindowResult
		var ok bool
		// The windows channel closes only when a delivery attempt observes
		// the cancelled context — on an idle stream that may never happen,
		// so watch the request context directly too.
		select {
		case wr, ok = <-windows:
			if !ok {
				return
			}
		case <-r.Context().Done():
			return
		}
		ev := serveapi.WindowEvent{
			Window:          wr.Window,
			StartSeq:        wr.StartSeq,
			EndSeq:          wr.EndSeq,
			GenLo:           wr.GenLo,
			GenHi:           wr.GenHi,
			RecoveryPending: wr.RecoveryPending,
			Degraded:        wr.Degraded,
			Count:           wr.Count,
			PerFrame:        wr.PerFrame,
		}
		if wr.Err != nil {
			ev.Err = wr.Err.Error()
		}
		if _, err := fmt.Fprint(w, "data: "); err != nil {
			return
		}
		if err := enc.Encode(ev); err != nil { // Encode appends \n
			return
		}
		if _, err := fmt.Fprint(w, "\n"); err != nil {
			return
		}
		flusher.Flush()
	}
}

// checkpointLocked serializes the current server. Callers hold ckptMu
// exclusively (or have otherwise quiesced frame traffic).
func (a *app) checkpointLocked() (string, error) {
	if a.store == nil {
		return "", errors.New("no checkpoint store configured (start with -store)")
	}
	srv := a.server()
	return a.store.Save(func(f *os.File) error { return srv.Checkpoint(f) })
}

func (a *app) handleCheckpointSave(w http.ResponseWriter, r *http.Request) {
	a.ckptMu.Lock()
	path, err := a.checkpointLocked()
	a.ckptMu.Unlock()
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	a.logger.Printf("checkpoint saved to %s", path)
	writeJSON(w, http.StatusOK, serveapi.CheckpointResponse{Path: path})
}

// handleCheckpointDownload streams the checkpoint envelope directly — a
// store-free way to move state between replicas (curl > state.ckpt).
func (a *app) handleCheckpointDownload(w http.ResponseWriter, r *http.Request) {
	a.ckptMu.Lock()
	defer a.ckptMu.Unlock()
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := a.server().Checkpoint(w); err != nil {
		// Headers may be gone already; log and drop the connection.
		a.logger.Printf("checkpoint download failed: %v", err)
	}
}

func (a *app) handleRestore(w http.ResponseWriter, r *http.Request) {
	var req serveapi.RestoreRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		badBody(w, fmt.Errorf("decode request: %w", err))
		return
	}
	path := req.Path
	if path == "" {
		if a.store == nil {
			writeErr(w, http.StatusServiceUnavailable,
				errors.New("no checkpoint store configured and no path given"))
			return
		}
		var err error
		if path, err = a.store.Latest(); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
	}

	a.ckptMu.Lock()
	defer a.ckptMu.Unlock()
	a.mu.Lock()
	if len(a.sessions) != 0 {
		a.mu.Unlock()
		writeErr(w, http.StatusConflict,
			fmt.Errorf("%d stream sessions still open; close them before restore", len(a.sessions)))
		return
	}
	a.mu.Unlock()

	f, err := os.Open(path)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	defer f.Close()
	restored, err := odin.Restore(f, a.opts()...)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}

	a.mu.Lock()
	old := a.srv
	a.srv = restored
	a.prepared = make(map[string]*odin.PreparedQuery) // bound to the old server
	a.mu.Unlock()
	old.Close()
	freeRestoreGarbage()
	a.logger.Printf("restored from %s", path)
	writeJSON(w, http.StatusOK, serveapi.CheckpointResponse{Path: path})
}

// freeRestoreGarbage collects what odin.Restore leaves behind and hands the
// memory back to the OS. The gob decoder's garbage is ~90 MB beside a few
// MB of live state; left alone it doubles the heap goal of the first
// serving-time collection, and that transient — not anything serving
// needs — becomes the process's peak RSS. Called once per restore, never
// on the request path.
func freeRestoreGarbage() { debug.FreeOSMemory() }

// shutdown closes every session and the server, then — per the Close →
// Checkpoint contract — writes a final checkpoint to the store when one is
// configured. Close drains the async trainer deterministically first, so
// the shutdown checkpoint captures the final quiescent model set.
func (a *app) shutdown() {
	a.ckptMu.Lock()
	defer a.ckptMu.Unlock()

	a.mu.Lock()
	sessions := make([]*session, 0, len(a.sessions))
	for _, s := range a.sessions {
		sessions = append(sessions, s)
	}
	a.sessions = make(map[string]*session)
	srv := a.srv
	a.mu.Unlock()

	for _, s := range sessions {
		s.close()
	}
	srv.Close()
	if a.store != nil {
		path, err := a.store.Save(func(f *os.File) error { return srv.Checkpoint(f) })
		if err != nil {
			a.logger.Printf("shutdown checkpoint failed: %v", err)
		} else {
			a.logger.Printf("shutdown checkpoint saved to %s", path)
		}
	}
}
