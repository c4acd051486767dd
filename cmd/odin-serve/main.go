// Command odin-serve exposes one ODIN server over HTTP/JSON: stream
// sessions, one-shot and prepared queries, SSE standing-query windows,
// stats, and checkpoint/restore. On SIGINT/SIGTERM it shuts down
// gracefully — open sessions drain, the server closes (which drains the
// async trainer deterministically), and a final checkpoint lands in the
// store, so the next `odin-serve -store DIR -restore latest` warm-starts
// exactly where this process stopped.
//
// Endpoints (see README.md for curl examples):
//
//	GET    /healthz
//	GET    /v1/stats
//	GET    /v1/generate?subset=night&n=10
//	POST   /v1/streams                      {"name","workers","max_batch"}
//	DELETE /v1/streams/{id}
//	POST   /v1/streams/{id}/frames          {"frames":[...]}
//	GET    /v1/streams/{id}/subscribe?prepared=q1&size=25   (SSE)
//	POST   /v1/query                        {"sql","frames"}
//	POST   /v1/prepared                     {"sql"}
//	POST   /v1/prepared/{id}/execute        {"frames"}
//	POST   /v1/checkpoint                   -> {"path"}
//	GET    /v1/checkpoint                   -> raw envelope bytes
//	POST   /v1/restore                      {"path"} (empty = store latest)
//	GET    /metrics                         Prometheus text exposition (-obs)
//	GET    /v1/events?n=50                  recent lifecycle events (-obs)
//	GET    /debug/pprof/                    net/http/pprof (only with -pprof)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"odin"
	"odin/internal/checkpoint"
)

// Front-door timeouts: a client gets readHeaderTimeout to state its
// request, and an idle keep-alive connection is closed after idleTimeout.
// There is no write timeout: /v1/streams/{id}/subscribe is an open-ended
// SSE feed and GET /v1/checkpoint streams the envelope.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// config holds odin-serve's flags, one field a flag, in the order main
// declares them.
type config struct {
	addr                               string
	storeDir, restore                  string
	retain                             int
	seed                               uint64
	policy                             string
	trainAsync, dispatcher             bool
	maxQueue                           int
	dropPolicy                         string
	adaptive                           bool
	labelDelay, maxModels              int
	minScore                           float64
	bootFrames, bootEpochs, baseEpochs int
	obs, pprof                         bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8780", "listen address")
	flag.StringVar(&cfg.storeDir, "store", "", "checkpoint store directory (empty: no durable checkpoints)")
	flag.IntVar(&cfg.retain, "retain", 3, "checkpoints to retain in the store")
	flag.StringVar(&cfg.restore, "restore", "", "warm-start source: a checkpoint path, or 'latest' for the store's newest")
	flag.Uint64Var(&cfg.seed, "seed", 42, "bootstrap seed (ignored when restoring)")
	flag.StringVar(&cfg.policy, "policy", "delta-bm", "selector policy: delta-bm, knn-u, knn-w, most-recent")
	flag.BoolVar(&cfg.trainAsync, "train-async", true, "recover from drift asynchronously")
	flag.BoolVar(&cfg.dispatcher, "dispatcher", false, "enable the cross-stream batch dispatcher")
	flag.IntVar(&cfg.maxQueue, "max-queue", 0, "per-stream admission queue bound (0: no queue; sessions read their input directly, back-pressured by it)")
	flag.StringVar(&cfg.dropPolicy, "drop-policy", "block", "full-queue policy: block, drop-newest, drop-oldest (the last two need -max-queue or -adaptive)")
	flag.BoolVar(&cfg.adaptive, "adaptive", false, "enable load-adaptive fidelity degradation under overload")
	flag.IntVar(&cfg.labelDelay, "label-delay", 0, "frames from a drift until oracle labels arrive and the specialized model replaces the lite one, which trains at the drift (0: the default, 600)")
	flag.IntVar(&cfg.maxModels, "max-models", 8, "maximum concurrent specialized models (ignored when restoring)")
	flag.Float64Var(&cfg.minScore, "min-score", 0, "query score threshold override (0: engine default)")
	flag.IntVar(&cfg.bootFrames, "bootstrap-frames", 200, "frames in the bootstrap set (ignored when restoring)")
	flag.IntVar(&cfg.bootEpochs, "bootstrap-epochs", 3, "DA-GAN bootstrap epochs (ignored when restoring)")
	flag.IntVar(&cfg.baseEpochs, "baseline-epochs", 4, "baseline detector epochs (ignored when restoring)")
	flag.BoolVar(&cfg.obs, "obs", true, "enable the observability layer (/metrics and /v1/events)")
	flag.BoolVar(&cfg.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	logger := log.New(os.Stderr, "odin-serve: ", log.LstdFlags)
	if err := run(cfg, logger); err != nil {
		logger.Fatal(err)
	}
}

func run(cfg config, logger *log.Logger) error {
	policy, err := odin.ParsePolicy(cfg.policy)
	if err != nil {
		return err
	}
	dropPol, err := odin.ParseDropPolicy(cfg.dropPolicy)
	if err != nil {
		return err
	}
	if dropPol != odin.DropBlock && cfg.maxQueue <= 0 && !cfg.adaptive {
		return fmt.Errorf("-drop-policy %s needs -max-queue or -adaptive: without a queue nothing is dropped", cfg.dropPolicy)
	}

	// Serving-topology options, shared by the fresh-boot and every restore
	// path (including POST /v1/restore): the checkpoint carries learned
	// state, these flags carry how to serve it.
	opts := []odin.Option{
		odin.WithPolicy(policy),
		odin.WithTrainAsync(cfg.trainAsync),
		odin.WithDispatcher(cfg.dispatcher),
		odin.WithObservability(cfg.obs),
	}
	if cfg.labelDelay > 0 {
		opts = append(opts, odin.WithLabelDelay(cfg.labelDelay))
	}
	if cfg.minScore > 0 {
		opts = append(opts, odin.WithMinScore(cfg.minScore))
	}
	if cfg.maxQueue > 0 {
		opts = append(opts, odin.WithMaxQueue(cfg.maxQueue))
	}
	if cfg.adaptive {
		opts = append(opts, odin.WithAdaptiveFidelity(odin.AdaptiveFidelity{}))
	}
	if cfg.maxQueue > 0 || cfg.adaptive { // -adaptive implies a queue for the policy to act on
		opts = append(opts, odin.WithDropPolicy(dropPol))
	}

	var store *checkpoint.DirStore
	if cfg.storeDir != "" {
		if store, err = checkpoint.NewDirStore(cfg.storeDir, cfg.retain); err != nil {
			return err
		}
	}

	srv, err := boot(cfg, store, opts, logger)
	if err != nil {
		return err
	}

	freeRestoreGarbage() // bootstrap leaves its training garbage the same way

	a := newApp(srv, store, opts, logger)
	a.pprofOn = cfg.pprof
	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           a.handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", cfg.addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		logger.Printf("received %v, shutting down", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	a.shutdown()
	return nil
}

// boot builds the server: warm-started from a checkpoint when -restore is
// given, cold-bootstrapped otherwise.
func boot(cfg config, store *checkpoint.DirStore, opts []odin.Option, logger *log.Logger) (*odin.Server, error) {
	if cfg.restore != "" {
		start := time.Now()
		srv, path, err := restoreServer(store, cfg.restore, opts)
		if err != nil {
			return nil, err
		}
		st := srv.Stats()
		logger.Printf("warm-started from %s in %v (%d frames seen, gen %d)",
			path, time.Since(start).Round(time.Millisecond), st.Frames, st.ModelGen)
		return srv, nil
	}

	srv, err := odin.New(slices.Concat(opts, []odin.Option{
		odin.WithSeed(cfg.seed),
		odin.WithMaxModels(cfg.maxModels),
		odin.WithBootstrapFrames(cfg.bootFrames),
		odin.WithBootstrapEpochs(cfg.bootEpochs),
		odin.WithBaselineEpochs(cfg.baseEpochs),
	})...)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	logger.Printf("bootstrapping (seed %d, %d frames, %d epochs)", cfg.seed, cfg.bootFrames, cfg.bootEpochs)
	if err := srv.Bootstrap(context.Background(), nil); err != nil {
		return nil, err
	}
	logger.Printf("bootstrapped in %v", time.Since(start).Round(time.Millisecond))
	return srv, nil
}

// errNoStore refuses a restore from the store's newest checkpoint when no
// store is configured.
var errNoStore = errors.New("-restore latest requires -store")

// notFound marks a checkpoint restoreServer could not resolve or open.
type notFound struct{ error }

func (e notFound) Unwrap() error { return e.error }

// restoreServer is the one restore path, -restore's and POST /v1/restore's.
// It resolves path — "latest", or empty, names the store's newest
// checkpoint — opens the file and warm-starts a server from it with opts,
// and returns the path it read. It fails with errNoStore, with notFound
// when it cannot resolve or open the file, or with odin.Restore's error.
func restoreServer(store *checkpoint.DirStore, path string, opts []odin.Option) (*odin.Server, string, error) {
	if path == "" || path == "latest" {
		if store == nil {
			return nil, "", errNoStore
		}
		var err error
		if path, err = store.Latest(); err != nil {
			return nil, "", notFound{err}
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, "", notFound{err}
	}
	defer f.Close()
	srv, err := odin.Restore(f, opts...)
	return srv, path, err
}
