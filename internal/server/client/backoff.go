package client

import (
	"sync"
	"time"
)

// Retry schedule bounds: the pre-jitter delay of the first attempt, and
// the cap the doubling stops at.
const (
	backoffBase = 100 * time.Millisecond
	backoffCap  = 5 * time.Second
)

// Backoff computes capped exponential retry delays with deterministic
// jitter. Each call to Next doubles the delay from backoffBase up to
// backoffCap and then jitters it into [d/2, d) using a splitmix64
// stream seeded at construction — deterministic, so tests can assert exact delay
// sequences, yet de-synchronised across clients (each seed yields a
// different stream, so a fleet of workers hammered by the same 429 does
// not retry in lockstep).
//
// A floor passed to Next (the daemon's Retry-After hint) lower-bounds
// the jittered delay: the server's explicit hint is authoritative about
// "not sooner than", the jitter only spreads callers out beyond it.
type Backoff struct {
	mu      sync.Mutex
	attempt int
	rng     uint64
}

// NewBackoff returns a Backoff whose jitter stream is seeded with seed.
func NewBackoff(seed uint64) *Backoff {
	return &Backoff{rng: seed}
}

// splitmix64 advances the jitter stream: tiny, allocation-free, and
// plenty for de-correlating retry schedules.
func (b *Backoff) next64() uint64 {
	b.rng += 0x9e3779b97f4a7c15
	z := b.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Next returns the delay before the next retry and advances the
// schedule. floor (typically a Retry-After hint; 0 for none)
// lower-bounds the result.
func (b *Backoff) Next(floor time.Duration) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := backoffBase << b.attempt
	if d > backoffCap || d <= 0 { // <= 0: shift overflow
		d = backoffCap
	} else {
		b.attempt++
	}
	// Jitter into [d/2, d).
	half := d / 2
	d = half + time.Duration(b.next64()%uint64(half))
	if d < floor {
		d = floor
	}
	return d
}

// Reset rewinds the schedule to the first attempt after a success. The
// jitter stream is not rewound — replaying identical delays after every
// success would re-synchronise a fleet.
func (b *Backoff) Reset() {
	b.mu.Lock()
	b.attempt = 0
	b.mu.Unlock()
}
