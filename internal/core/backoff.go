package core

import (
	"math/rand"
	"time"
)

// Backoff is a capped exponential backoff with jitter, shared by the
// snippet's poll, channel re-upgrade, and join retry paths. Each Next() doubles
// the delay up to Max and jitters it into [d/2, d] so a classroom of
// snippets that lost the same agent does not reconnect in lockstep.
//
// The zero value is unusable; construct with newBackoff or fill Base/Max.
// Rand is injectable so tests get deterministic sequences.
type Backoff struct {
	Base time.Duration
	Max  time.Duration
	// Rand returns a uniform value in [0, 1); nil uses math/rand. The
	// caller is responsible for serializing calls (Snippet holds s.mu).
	Rand func() float64

	attempts int
}

func newBackoff(base, max time.Duration, rnd func() float64) *Backoff {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 30 * time.Second
	}
	if max < base {
		max = base
	}
	return &Backoff{Base: base, Max: max, Rand: rnd}
}

// Next returns the delay before the next retry and advances the schedule.
func (b *Backoff) Next() time.Duration {
	d := b.Base
	for i := 0; i < b.attempts && d < b.Max; i++ {
		d *= 2
	}
	if d > b.Max {
		d = b.Max
	}
	b.attempts++
	r := rand.Float64
	if b.Rand != nil {
		r = b.Rand
	}
	// Jitter into [d/2, d]: keeps the exponential envelope visible while
	// decorrelating a fleet of clients.
	return time.Duration(float64(d) * (0.5 + 0.5*r()))
}

// Reset snaps the schedule back to Base after a success.
func (b *Backoff) Reset() { b.attempts = 0 }
