package catchup

import (
	"errors"
	"sync"
	"time"
)

// Pool is the collaborative catch-up protocol: a height-keyed request pool
// in the shape of Tendermint's blocksync. One round discovers an envelope
// quorum, then round-robins chunk and block-range requests across every
// agreeing donor under per-peer in-flight caps. Donors that time out are
// demoted and eventually dropped for the round; donors whose payloads fail
// verification are banned outright. All their work is requeued to the
// survivors, so a single correct reachable donor suffices to finish.
//
// Pool is only the runtime around the protocol (m), and it has no loop: the
// round's owner — one goroutine: in a node the ordering driver — opens it with
// Begin and hands it every donor reply (Handle) and an instant no later than
// NextDeadline (Tick). No call blocks on anything but the Fetcher.
type Pool struct {
	mu sync.Mutex // guards every step of m, for Stats
	m  *machine   // bans and stats persist across rounds
	// The round in flight, nil and zero between rounds: the mechanism its
	// effects are performed on, and the instant it is given up.
	f      Fetcher
	giveUp time.Time
}

// NewPool returns a Pool with the given tuning.
func NewPool(cfg Config) *Pool {
	return &Pool{m: &machine{cfg: cfg.withDefaults(), banned: make(map[int32]bool)}}
}

// Stats returns a snapshot of the pool's counters. Safe from any goroutine.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.stats
}

// Begin opens one collaborative catch-up round against peers, to be given up
// at now+timeout. Like Handle and Tick it reports whether the round is over
// and, if so, whether any state was installed or applied and why it ended.
// Rounds do not overlap: the owner begins none while one is in flight.
func (p *Pool) Begin(now time.Time, f Fetcher, peers []int32, timeout time.Duration) (done, progressed bool, err error) {
	p.f, p.giveUp = f, now.Add(timeout)
	return p.run(now, event{kind: evStart, peers: peers, height: f.Height()})
}

// Handle takes one donor reply. Between rounds it is ignored.
func (p *Pool) Handle(now time.Time, resp Response) (done, progressed bool, err error) {
	return p.run(now, event{kind: evResponse, resp: resp})
}

// Tick says time has passed: a request deadline, the grace window or the
// round's own timeout may be due.
func (p *Pool) Tick(now time.Time) (done, progressed bool, err error) {
	if p.f != nil && !now.Before(p.giveUp) {
		return p.run(now, event{kind: evCancel, err: errors.New("catchup: round timed out")})
	}
	return p.run(now, event{kind: evTick})
}

// NextDeadline is the instant the round in flight needs a Tick by; zero
// between rounds.
func (p *Pool) NextDeadline() time.Time {
	if next := p.m.nextDeadline(); !next.IsZero() && next.Before(p.giveUp) {
		return next
	}
	return p.giveUp
}

// run steps the machine with ev and then with what performing the effects
// feeds back — a refused request, and first the verdict on the one local
// effect a step may end with. Between rounds the machine ignores every event.
func (p *Pool) run(now time.Time, ev event) (done, progressed bool, err error) {
	for queue := []event{ev}; len(queue) > 0; {
		ev, queue = queue[0], queue[1:]
		p.mu.Lock()
		fxs := p.m.step(now, ev)
		p.mu.Unlock()
		for _, fx := range fxs {
			if fx.kind == fxFinish {
				p.f, p.giveUp = nil, time.Time{}
				return true, fx.progressed, fx.err
			}
			switch verdict := perform(p.f, fx); {
			case fx.kind != fxRequest:
				queue = append([]event{{kind: evLocalDone, err: verdict}}, queue...)
			case verdict != nil:
				queue = append(queue, event{kind: evSendRefused, peer: fx.peer})
			}
		}
	}
	return false, false, nil
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
