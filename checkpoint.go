package odin

import (
	"context"
	"fmt"
	"io"
	"reflect"

	"odin/internal/checkpoint"
	"odin/internal/core"
	"odin/internal/detect"
	"odin/internal/gan"
	"odin/internal/obs"
	"odin/internal/query"
	"odin/internal/synth"
)

// Checkpoint error sentinels, re-exported so callers can errors.Is against
// the failure modes Restore distinguishes.
var (
	// ErrCheckpointBadMagic marks a stream that is not an ODIN checkpoint.
	ErrCheckpointBadMagic = checkpoint.ErrBadMagic
	// ErrCheckpointVersion marks a checkpoint written by an incompatible
	// format version.
	ErrCheckpointVersion = checkpoint.ErrVersionMismatch
	// ErrCheckpointTruncated marks a checkpoint stream that ends early.
	ErrCheckpointTruncated = checkpoint.ErrTruncated
	// ErrCheckpointCorrupt marks a checkpoint whose bytes fail the CRC,
	// whose payload fails to decode, or whose scene or model architectures
	// no Server builds.
	ErrCheckpointCorrupt = checkpoint.ErrCorrupt
)

// Checkpoint serializes the server's full recoverable state to w in the
// versioned binary format of DESIGN.md §10: the bootstrapped DA-GAN
// substrate, the baseline and every specialized detector (keyed by cluster,
// with the ModelGen counter), the cluster/∆-band drift-detector state, the
// outlier ring, the frame generator's position and — for a private fleet
// registry — the registry entries with their regime signatures.
//
// Checkpoint first waits for training quiescence: every scheduled async
// recovery lands or rolls back before state is captured (equivalent to
// WaitRecoveries), so a checkpoint never contains a half-applied model
// swap. Callers must pause frame submission for the duration of the call —
// frames processed concurrently with Checkpoint land nondeterministically
// on one side of the cut. Checkpoint also works after Close (the one
// post-Close operation that does): Close drains the trainer
// deterministically first, which is what makes checkpoint-on-shutdown
// well-defined. Servers sharing a fleet registry checkpoint their own
// state only; the shared registry belongs to the fleet, not to any one
// server's checkpoint.
//
// Restore the result with Restore.
func (s *Server) Checkpoint(w io.Writer) error {
	s.mu.Lock()
	if !s.booted {
		s.mu.Unlock()
		return ErrNotBootstrapped
	}
	pipeline, dagan, baseline := s.pipeline, s.dagan, s.baseline
	trainer := s.trainer
	reg := s.registry
	sharedReg := s.cfg.fleet != nil && s.cfg.fleet.Registry != nil
	s.mu.Unlock()

	// Quiescence: every scheduled recovery must land or roll back before we
	// capture state — the snapshot does not carry in-flight jobs. On a
	// closed server the trainer has already drained; Wait returns at once.
	if trainer != nil {
		if err := trainer.Wait(context.Background()); err != nil {
			return fmt.Errorf("odin: checkpoint: draining trainer: %w", err)
		}
	}

	s.genMu.Lock()
	genState := s.gen.State()
	s.genMu.Unlock()

	payload := &checkpoint.Payload{
		Seed:     s.cfg.seed,
		Scene:    s.scene,
		Gen:      genState,
		DAGAN:    dagan.State(),
		Baseline: baseline.State(),
		Pipeline: pipeline.Snapshot(),
	}
	if reg != nil && !sharedReg {
		st := reg.State()
		payload.Registry = &st
	}
	if err := checkpoint.Write(w, payload); err != nil {
		return err
	}
	s.obs.Event(obs.EvCheckpointSave, "", -1, int(pipeline.ModelGen()),
		fmt.Sprintf("%d models", len(payload.Pipeline.Manager.Models)))
	return nil
}

// Restore rebuilds a Server from a checkpoint written by Checkpoint and
// warm-starts it: the returned server is already bootstrapped (Bootstrap
// returns ErrAlreadyBootstrapped) and continues exactly where the
// checkpointed one stopped — same clusters, same models, same ∆-band
// state, same frame-generator position, same derived training seeds.
//
// Options supply the serving topology exactly as they do for a fresh
// server: workers, dispatcher, async training, fleet recovery, policy,
// label delay, min score. Pass the same options the original server ran
// with to continue bit-identically.
// Learned state always comes from the checkpoint; in particular the stored
// base seed overrides WithSeed (derived seeds must match the original),
// and the restored cluster geometry overrides WithMaxModels. Bootstrap
// schedule options (WithBootstrapFrames/Epochs, WithBaselineEpochs) are
// accepted and ignored — nothing is retrained.
//
// A fleet registry restores as follows: WithFleetRecovery sharing a
// registry adopts the shared (live) one and ignores checkpointed entries;
// WithFleetRecovery without a shared registry restores the checkpointed
// entries into the private registry; no WithFleetRecovery drops them.
func Restore(r io.Reader, opts ...Option) (*Server, error) {
	cfg, err := resolveConfig(opts)
	if err != nil {
		return nil, err
	}

	payload, _, err := checkpoint.Read(r)
	if err != nil {
		return nil, fmt.Errorf("odin: restore: %w", err)
	}
	// The stored seed governs every derived seed (specializer sequence);
	// it must survive restart for post-restore training to match.
	cfg.seed = payload.Seed
	// A Server renders one scene geometry; any other did not come from
	// Checkpoint, and the renderer cannot draw every geometry.
	if want := synth.DefaultSceneConfig(); payload.Scene != want || payload.Gen.Cfg != want {
		return nil, fmt.Errorf("odin: restore: %w: scene %+v, generator scene %+v, want %+v",
			ErrCheckpointCorrupt, payload.Scene, payload.Gen.Cfg, want)
	}
	if err := checkArchitectures(payload); err != nil {
		return nil, fmt.Errorf("odin: restore: %w", err)
	}

	engine := query.NewEngine()
	engine.SetMinScore(cfg.minScore)
	s := &Server{
		cfg:    cfg,
		scene:  payload.Scene,
		gen:    synth.GenFromState(payload.Gen),
		engine: engine,
	}
	if cfg.obs {
		s.obs = obs.New(0)
		s.registerServerMetrics()
	}

	dagan, err := gan.FromState(payload.DAGAN)
	if err != nil {
		return nil, fmt.Errorf("odin: restore projector: %w", err)
	}
	baseline, err := detect.FromState(payload.Baseline)
	if err != nil {
		return nil, fmt.Errorf("odin: restore baseline: %w", err)
	}
	pipeline, trainer, reg, batcher, err := s.assemble(dagan, baseline, &payload.Pipeline, payload.Registry)
	if err != nil {
		return nil, fmt.Errorf("odin: restore: %w", err)
	}

	s.mu.Lock()
	s.pipeline = pipeline
	s.dagan = dagan
	s.baseline = baseline
	s.batcher = batcher
	s.trainer = trainer
	s.registry = reg
	s.booted = true
	s.mu.Unlock()
	s.obs.Event(obs.EvCheckpointRestore, "", -1, int(pipeline.ModelGen()),
		fmt.Sprintf("%d models", len(payload.Pipeline.Manager.Models)))
	return s, nil
}

// checkArchitectures refuses a payload whose projector or any detector
// differs, seeds aside, from the one architecture per kind a Server builds:
// daganConfig, and the scene's YOLO, lite and specialized detectors. Such
// a payload did not come from Checkpoint, and building what it describes
// can divide by zero, panic on an empty convolution or allocate whatever
// widths it declares, so Restore builds nothing before this passes.
func checkArchitectures(p *checkpoint.Payload) error {
	if got, want := p.DAGAN.Cfg, daganConfig(p.Scene, p.DAGAN.Cfg.Seed); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%w: projector %+v, want %+v", ErrCheckpointCorrupt, got, want)
	}
	h, w := p.Scene.H, p.Scene.W
	grids := map[detect.Kind]detect.GridConfig{detect.KindYOLO: detect.YOLOConfig(h, w),
		detect.KindLite: detect.LiteConfig(h, w), detect.KindSpecialized: detect.SpecializedConfig(h, w)}
	// The baseline rides along as cluster -1.
	models := append([]core.ModelState{{Kind: detect.KindYOLO, ClusterID: -1, Det: p.Baseline}}, p.Pipeline.Manager.Models...)
	if own := p.Pipeline.Manager.MostRecentOwn; own != nil {
		models = append(models, *own)
	}
	if p.Registry != nil {
		for _, e := range p.Registry.Entries {
			models = append(models, e.Model)
		}
	}
	for _, m := range models {
		want, ok := grids[m.Kind]
		want.Seed = m.Det.Cfg.Seed
		if !ok || !reflect.DeepEqual(m.Det.Cfg, want) {
			return fmt.Errorf("%w: cluster %d detector %+v, want %+v", ErrCheckpointCorrupt, m.ClusterID, m.Det.Cfg, want)
		}
	}
	return nil
}
