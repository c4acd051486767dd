package qos

// ControllerConfig tunes the hysteresis state machine. Zero values take
// the documented defaults, so an empty config is a working controller.
type ControllerConfig struct {
	// HighWater is the queue occupancy (0..1] at or above which the
	// controller counts an observation toward degrading. Default 0.75.
	HighWater float64
	// LowWater is the occupancy at or below which the controller counts
	// an observation toward restoring. Default 0.25.
	LowWater float64
	// Patience is the number of consecutive observations past a
	// watermark before the level steps once. Default 2.
	Patience int
	// MaxLevel caps how deep the ladder goes (1..MaxLevel). Default
	// MaxLevel (count + subsampling).
	MaxLevel int
}

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.HighWater == 0 {
		c.HighWater = 0.75
	}
	if c.LowWater == 0 {
		c.LowWater = 0.25
	}
	if c.Patience == 0 {
		c.Patience = 2
	}
	if c.MaxLevel == 0 || c.MaxLevel > MaxLevel {
		c.MaxLevel = MaxLevel
	}
	return c
}

// Controller is the per-stream hysteresis state machine. Each call to
// Observe feeds one queue-occupancy sample (one per drained batch) and
// returns the degradation level to apply to that batch. The two
// watermarks plus the patience counter give hysteresis: a single burst
// does not flap the level, and the mid-band (LowWater, HighWater) resets
// both counters so the level holds steady under sustainable load.
//
// Controller is not safe for concurrent use; each stream owns one and
// observes from its single Run loop.
type Controller struct {
	cfg         ControllerConfig
	level       int
	hot, cold   int
	transitions int
}

// NewController returns a controller at level 0 (full fidelity).
func NewController(cfg ControllerConfig) *Controller {
	return &Controller{cfg: cfg.withDefaults()}
}

// Observe feeds one occupancy sample (queued frames / capacity) and
// returns the level to apply to the batch about to be processed.
func (c *Controller) Observe(occupancy float64) int {
	switch {
	case occupancy >= c.cfg.HighWater:
		c.hot++
		c.cold = 0
	case occupancy <= c.cfg.LowWater:
		c.cold++
		c.hot = 0
	default:
		c.hot, c.cold = 0, 0
	}
	if c.hot >= c.cfg.Patience && c.level < c.cfg.MaxLevel {
		c.level++
		c.hot = 0
		c.transitions++
	}
	if c.cold >= c.cfg.Patience && c.level > 0 {
		c.level--
		c.cold = 0
		c.transitions++
	}
	return c.level
}

// Level returns the current degradation level.
func (c *Controller) Level() int { return c.level }

// Transitions returns how many level changes have occurred.
func (c *Controller) Transitions() int { return c.transitions }
