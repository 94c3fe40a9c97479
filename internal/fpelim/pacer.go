package fpelim

import (
	"netseer/internal/sim"
)

// Pacer is a token-bucket rate limiter the switch CPU applies before
// exporting event batches, so report traffic cannot burst into the
// management network (§3.6 "pacing and reliable transmission").
type Pacer struct {
	rateBps float64  // token refill rate, bits per second
	burst   float64  // bucket depth, bits
	tokens  float64  // current tokens, bits
	last    sim.Time // last refill instant

	sent    uint64
	delayed uint64
}

// NewPacer creates a pacer that sustains rateBps with the given burst
// allowance in bytes.
func NewPacer(rateBps float64, burstBytes int) *Pacer {
	if rateBps <= 0 || burstBytes <= 0 {
		panic("fpelim: pacer rate and burst must be positive")
	}
	b := float64(burstBytes * 8)
	return &Pacer{rateBps: rateBps, burst: b, tokens: b}
}

// Admit asks to send n bytes at virtual time now. It returns 0 if the send
// may proceed immediately, or the delay to wait before sending.
func (p *Pacer) Admit(now sim.Time, n int) sim.Time {
	p.refill(now)
	bits := float64(n * 8)
	if p.tokens >= bits {
		p.tokens -= bits
		p.sent++
		return 0
	}
	deficit := bits - p.tokens
	delay := sim.Time(deficit / p.rateBps * 1e9)
	// The caller is expected to retry at now+delay; model the spend now so
	// back-to-back callers queue behind each other.
	p.tokens -= bits
	p.sent++
	p.delayed++
	return delay
}

// TryTake is Admit's strict form, for capacity with no queue to wait in:
// it spends n bytes of budget at virtual time now and reports true, or
// spends nothing and reports false. It counts no send or delay.
func (p *Pacer) TryTake(now sim.Time, n int) bool {
	p.refill(now)
	bits := float64(n * 8)
	if p.tokens < bits {
		return false
	}
	p.tokens -= bits
	return true
}

// refill adds tokens for the elapsed time, capped at the burst depth.
func (p *Pacer) refill(now sim.Time) {
	if now <= p.last {
		return
	}
	elapsed := (now - p.last).Seconds()
	p.last = now
	p.tokens += elapsed * p.rateBps
	if p.tokens > p.burst {
		p.tokens = p.burst
	}
}

// Stats reports total admitted sends and how many required a delay.
func (p *Pacer) Stats() (sent, delayed uint64) { return p.sent, p.delayed }
