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

func main() {
	addr := flag.String("addr", "127.0.0.1:8780", "listen address")
	storeDir := flag.String("store", "", "checkpoint store directory (empty: no durable checkpoints)")
	retain := flag.Int("retain", 3, "checkpoints to retain in the store")
	restoreFrom := flag.String("restore", "", "warm-start source: a checkpoint path, or 'latest' for the store's newest")
	seed := flag.Uint64("seed", 42, "bootstrap seed (ignored when restoring)")
	policyFlag := flag.String("policy", "delta-bm", "selector policy: delta-bm, knn-u, knn-w, most-recent")
	trainAsync := flag.Bool("train-async", true, "recover from drift asynchronously")
	dispatcher := flag.Bool("dispatcher", false, "enable the cross-stream batch dispatcher")
	maxQueue := flag.Int("max-queue", 0, "per-stream admission queue bound (0: no queue; sessions read their input directly, back-pressured by it)")
	dropPolicy := flag.String("drop-policy", "block", "full-queue policy: block, drop-newest, drop-oldest (the last two need -max-queue or -adaptive)")
	adaptive := flag.Bool("adaptive", false, "enable load-adaptive fidelity degradation under overload")
	labelDelay := flag.Int("label-delay", 0, "frames from a drift until oracle labels arrive and the specialized model replaces the lite one, which trains at the drift (0: the default, 600)")
	maxModels := flag.Int("max-models", 8, "maximum concurrent specialized models (ignored when restoring)")
	minScore := flag.Float64("min-score", 0, "query score threshold override (0: engine default)")
	bootFrames := flag.Int("bootstrap-frames", 200, "frames in the bootstrap set (ignored when restoring)")
	bootEpochs := flag.Int("bootstrap-epochs", 3, "DA-GAN bootstrap epochs (ignored when restoring)")
	baseEpochs := flag.Int("baseline-epochs", 4, "baseline detector epochs (ignored when restoring)")
	obsOn := flag.Bool("obs", true, "enable the observability layer (/metrics and /v1/events)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	logger := log.New(os.Stderr, "odin-serve: ", log.LstdFlags)
	if err := run(*addr, *storeDir, *retain, *restoreFrom, *seed, *policyFlag,
		*trainAsync, *dispatcher, *labelDelay, *maxModels,
		*minScore, *bootFrames, *bootEpochs, *baseEpochs,
		*maxQueue, *dropPolicy, *adaptive, *obsOn, *pprofOn, logger); err != nil {
		logger.Fatal(err)
	}
}

func run(addr, storeDir string, retain int, restoreFrom string, seed uint64,
	policyFlag string, trainAsync, dispatcher bool,
	labelDelay, maxModels int, minScore float64,
	bootFrames, bootEpochs, baseEpochs int,
	maxQueue int, dropPolicyFlag string, adaptive, obsOn, pprofOn bool, logger *log.Logger) error {

	policy, err := odin.ParsePolicy(policyFlag)
	if err != nil {
		return err
	}
	dropPol, err := odin.ParseDropPolicy(dropPolicyFlag)
	if err != nil {
		return err
	}
	if dropPol != odin.DropBlock && maxQueue <= 0 && !adaptive {
		return fmt.Errorf("-drop-policy %s needs -max-queue or -adaptive: without a queue nothing is dropped", dropPolicyFlag)
	}

	// Serving-topology options, shared by the fresh-boot and every restore
	// path (including POST /v1/restore): the checkpoint carries learned
	// state, these flags carry how to serve it.
	opts := func() []odin.Option {
		o := []odin.Option{
			odin.WithPolicy(policy),
			odin.WithTrainAsync(trainAsync),
			odin.WithDispatcher(dispatcher),
			odin.WithObservability(obsOn),
		}
		if labelDelay > 0 {
			o = append(o, odin.WithLabelDelay(labelDelay))
		}
		if minScore > 0 {
			o = append(o, odin.WithMinScore(minScore))
		}
		if maxQueue > 0 {
			o = append(o, odin.WithMaxQueue(maxQueue))
		}
		if adaptive {
			o = append(o, odin.WithAdaptiveFidelity(odin.AdaptiveFidelity{}))
		}
		if maxQueue > 0 || adaptive { // -adaptive implies a queue for the policy to act on
			o = append(o, odin.WithDropPolicy(dropPol))
		}
		return o
	}

	var store *checkpoint.DirStore
	if storeDir != "" {
		if store, err = checkpoint.NewDirStore(storeDir, retain); err != nil {
			return err
		}
	}

	srv, err := boot(store, restoreFrom, seed, maxModels,
		bootFrames, bootEpochs, baseEpochs, opts, logger)
	if err != nil {
		return err
	}

	freeRestoreGarbage() // bootstrap leaves its training garbage the same way

	a := newApp(srv, store, opts, logger)
	a.pprofOn = pprofOn
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           a.handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", addr)
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
func boot(store *checkpoint.DirStore, restoreFrom string, seed uint64,
	maxModels, bootFrames, bootEpochs, baseEpochs int,
	opts func() []odin.Option, logger *log.Logger) (*odin.Server, error) {

	if restoreFrom != "" {
		path := restoreFrom
		if path == "latest" {
			if store == nil {
				return nil, errors.New("-restore latest requires -store")
			}
			var err error
			if path, err = store.Latest(); err != nil {
				return nil, err
			}
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		start := time.Now()
		srv, err := odin.Restore(f, opts()...)
		if err != nil {
			return nil, err
		}
		st := srv.Stats()
		logger.Printf("warm-started from %s in %v (%d frames seen, gen %d)",
			path, time.Since(start).Round(time.Millisecond), st.Frames, st.ModelGen)
		return srv, nil
	}

	all := append(opts(),
		odin.WithSeed(seed),
		odin.WithMaxModels(maxModels),
		odin.WithBootstrapFrames(bootFrames),
		odin.WithBootstrapEpochs(bootEpochs),
		odin.WithBaselineEpochs(baseEpochs),
	)
	srv, err := odin.New(all...)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	logger.Printf("bootstrapping (seed %d, %d frames, %d epochs)", seed, bootFrames, bootEpochs)
	if err := srv.Bootstrap(context.Background(), nil); err != nil {
		return nil, err
	}
	logger.Printf("bootstrapped in %v", time.Since(start).Round(time.Millisecond))
	return srv, nil
}
