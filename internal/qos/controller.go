package qos

// The hysteresis state machine's tuning.
const (
	// highWater is the queue occupancy at or above which an observation
	// counts toward degrading one level.
	highWater = 0.75
	// lowWater is the occupancy at or below which an observation counts
	// toward restoring one level.
	lowWater = 0.25
	// patience is the number of consecutive observations past a watermark
	// before the level steps once.
	patience = 2
)

// Controller is the per-stream hysteresis state machine. Each call to
// Observe feeds one queue-occupancy sample (one per drained batch) and
// returns the degradation level to apply to that batch. The two
// watermarks plus the patience counter give hysteresis: a single burst
// does not flap the level, and the mid-band (lowWater, highWater) resets
// both counters so the level holds steady under sustainable load.
//
// Controller is not safe for concurrent use; each stream owns one and
// observes from its single Run loop.
type Controller struct {
	level       int
	hot, cold   int
	transitions int
}

// NewController returns a controller at level 0 (full fidelity).
func NewController() *Controller {
	return &Controller{}
}

// Observe feeds one occupancy sample (queued frames / capacity) and
// returns the level to apply to the batch about to be processed.
func (c *Controller) Observe(occupancy float64) int {
	switch {
	case occupancy >= highWater:
		c.hot++
		c.cold = 0
	case occupancy <= lowWater:
		c.cold++
		c.hot = 0
	default:
		c.hot, c.cold = 0, 0
	}
	if c.hot >= patience && c.level < MaxLevel {
		c.level++
		c.hot = 0
		c.transitions++
	}
	if c.cold >= patience && c.level > 0 {
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
