// Package clock implements the virtual cycle clock that orders all events
// in the simulated host.
//
// Real LLC attacks measure latencies with rdtsc; in this reproduction the
// hierarchy model advances a shared virtual clock by each access's modelled
// latency, and "timestamp reads" may add Gaussian jitter to mimic the
// measurement noise of a real timestamp counter. Because every agent
// (attacker, helper thread, victim, background tenants) shares one clock,
// event ordering is deterministic and independent of Go's scheduler.
package clock

import "repro/internal/xrand"

// Cycles is a duration or instant measured in CPU cycles of the simulated
// host (2 GHz in the paper's Cloud Run hosts).
type Cycles uint64

// Frequency definitions used to convert simulated cycles to wall-clock
// time when reporting results in the paper's units.
const (
	// GHz2 is the host frequency reported in the paper (Table 5 caption).
	GHz2 = 2_000_000_000.0
)

// Micros converts cycles to microseconds at the 2 GHz paper frequency.
func (c Cycles) Micros() float64 { return float64(c) / (GHz2 / 1e6) }

// Millis converts cycles to milliseconds at the 2 GHz paper frequency.
func (c Cycles) Millis() float64 { return float64(c) / (GHz2 / 1e3) }

// Seconds converts cycles to seconds at the 2 GHz paper frequency.
func (c Cycles) Seconds() float64 { return float64(c) / GHz2 }

// FromMicros converts microseconds to cycles at 2 GHz.
func FromMicros(us float64) Cycles { return Cycles(us * (GHz2 / 1e6)) }

// FromMillis converts milliseconds to cycles at 2 GHz.
func FromMillis(ms float64) Cycles { return Cycles(ms * (GHz2 / 1e3)) }

// Clock is the shared virtual time source of one simulated host.
type Clock struct {
	now    Cycles
	jitter float64
	rng    *xrand.Rand
}

// New returns a clock starting at cycle 0 with the given timestamp-read
// jitter (standard deviation in cycles; 0 disables jitter). rng may be nil
// when jitter is 0.
func New(jitter float64, rng *xrand.Rand) *Clock {
	return &Clock{jitter: jitter, rng: rng}
}

// Reset rewinds the clock to cycle 0 with a fresh jitter source, restoring
// the state a newly built clock would have. Host pools use it to reuse one
// clock across trials.
func (c *Clock) Reset(jitter float64, rng *xrand.Rand) {
	c.now = 0
	c.jitter = jitter
	c.rng = rng
}

// Now returns the current virtual time without jitter. Use Read for
// attacker-visible timestamps.
func (c *Clock) Now() Cycles { return c.now }

// Advance moves the clock forward by d cycles.
func (c *Clock) Advance(d Cycles) { c.now += d }

// Read returns an attacker-visible timestamp: the current time plus
// Gaussian measurement jitter (never negative).
func (c *Clock) Read() Cycles {
	if c.jitter <= 0 || c.rng == nil {
		return c.now
	}
	j := c.rng.Norm(0, c.jitter)
	t := float64(c.now) + j
	if t < 0 {
		t = 0
	}
	return Cycles(t)
}
