package feed

import "time"

// bucket is a token bucket: capacity `burst` tokens, refilled at `rate`
// tokens per second. One bucket exists per registered domain, so a
// campaign funneling thousands of URLs through one domain drains only
// its own bucket — URLs for other domains keep flowing (the
// anti-starvation property the scheduler's rate limiting exists for).
type bucket struct {
	tokens float64
	last   time.Time
}

// take tries to consume one token at time now. On failure it returns how
// long until a token will be available, so the caller can defer the work
// instead of spinning. A zero bucket is full: its last take is long past.
func (b *bucket) take(now time.Time, rate, burst float64) (ok bool, wait time.Duration) {
	if elapsed := now.Sub(b.last).Seconds(); elapsed > 0 {
		b.tokens = min(burst, b.tokens+elapsed*rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	deficit := 1 - b.tokens
	return false, time.Duration(deficit / rate * float64(time.Second))
}
