package catchup

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Pool is the collaborative catch-up protocol: a height-keyed request pool
// in the shape of Tendermint's blocksync. One Sync round discovers an
// envelope quorum, then round-robins chunk and block-range requests across
// every agreeing donor under per-peer in-flight caps. Donors that time out
// are demoted and eventually dropped for the round; donors whose payloads
// fail verification are banned outright. All their work is requeued to the
// survivors, so a single correct reachable donor suffices to finish.
type Pool struct {
	mu sync.Mutex    // guards ch and every step of m, for Stats and isBanned
	ch chan Response // non-nil while a round is active
	// m is the protocol; Pool is only the runtime around it, and Sync the only
	// one to step it. The runtime alone owns the reply channel, the caller's
	// context, the clock and its one timer, and the calls into the Fetcher.
	m *machine // bans and stats persist across rounds
}

// NewPool returns a Pool with the given tuning.
func NewPool(cfg Config) *Pool {
	return &Pool{m: &machine{cfg: cfg.withDefaults(), banned: make(map[int32]bool)}}
}

// Deliver routes an incoming donor reply to the round in progress. Safe
// from any goroutine and never blocks: a full round buffer or an idle pool
// drops the reply (the pool re-requests on timeout anyway).
func (p *Pool) Deliver(r Response) {
	p.mu.Lock()
	ch := p.ch
	p.mu.Unlock()
	if ch == nil {
		return
	}
	select {
	case ch <- r:
	default:
	}
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.stats
}

func (p *Pool) isBanned(id int32) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.banned[id]
}

// Sync drives one collaborative catch-up round against peers and reports
// whether any state was installed or applied. Rounds do not overlap: a
// Sync while another is in progress fails.
func (p *Pool) Sync(ctx context.Context, f Fetcher, peers []int32) (bool, error) {
	if len(peers) == 0 {
		return false, nil
	}
	// Room for every reply a full wave can draw, with slack for duplicates.
	ch := make(chan Response, 4*len(peers)*p.m.cfg.InFlightPerPeer+64)
	p.mu.Lock()
	if p.ch != nil {
		p.mu.Unlock()
		return false, errors.New("catchup: sync already in progress")
	}
	p.ch = ch
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.ch = nil
		p.mu.Unlock()
	}()
	// While armed, the earliest deadline only moves later (what is assigned later
	// expires later) and an early tick is harmless: re-arm only once it has fired.
	timer, armed := time.NewTimer(time.Hour), false
	defer timer.Stop()
	timer.Stop()
	// A refused request comes back as an event; the one local effect a step may
	// end with runs here, on the caller's goroutine, and is answered first.
	queue := []event{{kind: evStart, peers: peers, height: f.Height()}}
	for {
		var ev event
		if len(queue) > 0 {
			ev, queue = queue[0], queue[1:]
		} else {
			select {
			case <-ctx.Done():
				ev = event{kind: evCancel, err: ctx.Err()}
			case resp := <-ch:
				ev = event{kind: evResponse, resp: resp}
			case <-timer.C:
				armed = false
				ev = event{kind: evTick}
			}
		}
		now := time.Now()
		p.mu.Lock()
		fxs := p.m.step(now, ev)
		p.mu.Unlock()
		for _, fx := range fxs {
			if fx.kind == fxFinish {
				return fx.progressed, fx.err
			}
			switch err := perform(f, fx); {
			case fx.kind != fxRequest:
				queue = append([]event{{kind: evLocalDone, err: err}}, queue...)
			case err != nil:
				queue = append(queue, event{kind: evSendRefused, peer: fx.peer})
			}
		}
		if next := p.m.nextDeadline(); !armed && !next.IsZero() {
			timer.Reset(next.Sub(now))
			armed = true
		}
	}
}

// perform carries out one request or local effect against the Fetcher.
func perform(f Fetcher, fx effect) error {
	switch fx.kind {
	case fxVerify:
		return f.VerifyBlocks(fx.env, fx.blocks)
	case fxInstall:
		return f.InstallSnapshot(fx.env, fx.state)
	case fxApply:
		if fx.verified {
			return f.ReplayBlocks(fx.blocks)
		}
		return f.ApplyBlocks(fx.blocks)
	}
	switch fx.what {
	case KindEnvelope:
		return f.RequestEnvelope(fx.peer)
	case KindChunk:
		return f.RequestChunk(fx.peer, fx.height, fx.index)
	}
	return f.RequestRange(fx.peer, fx.from, fx.to)
}
