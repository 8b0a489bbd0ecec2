package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"smartchain/internal/client"
	"smartchain/internal/coin"
)

// satInflight is the closed-loop depth per proxy in the saturation phase.
const satInflight = 64

// sample is one issued op as the load generator saw it. Times are offsets
// from the phase's start.
type sample struct {
	kind   opKind
	proxy  int
	in     coin.CoinID
	due    time.Duration // when the schedule said to send it (closed loop: when it was sent)
	sent   time.Duration // when InvokeAsync was called
	submit time.Duration // how long that call took (sign, encode, broadcast)
	done   time.Duration // when the reply quorum (or the failure) arrived
	ok     bool
	err    string
}

func (s *sample) latency() time.Duration { return s.done - s.due }

// phase is one stretch of load on a deployment: closed loop when rate is 0,
// open loop at rate ops/s otherwise.
type phase struct {
	d      *deployment
	start  time.Time
	length time.Duration
	rate   int
	// opTimeout, when set, bounds each op more tightly than invokeTimeout.
	opTimeout time.Duration

	mu      sync.Mutex
	samples []sample
	genErr  error
	wg      sync.WaitGroup
}

// run drives the phase from one generator goroutine per proxy and returns
// once every issued op has completed or failed. Each sidecar runs on its own
// goroutine alongside the load (counter snapshots, the fault schedule) and
// is waited for.
func (ph *phase) run(sidecars ...func(start time.Time)) []sample {
	ph.start = time.Now()
	var gens sync.WaitGroup
	for p := range ph.d.proxies {
		gens.Add(1)
		go func(p int) {
			defer gens.Done()
			var err error
			if ph.rate > 0 {
				err = ph.openLoop(p)
			} else {
				err = ph.closedLoop(p)
			}
			if err != nil {
				ph.mu.Lock()
				ph.genErr = err
				ph.mu.Unlock()
			}
		}(p)
	}
	for _, sidecar := range sidecars {
		gens.Add(1)
		go func() {
			defer gens.Done()
			sidecar(ph.start)
		}()
	}
	gens.Wait()
	ph.wg.Wait()
	return ph.samples
}

// closedLoop keeps satInflight ops outstanding on one proxy until the phase
// ends.
func (ph *phase) closedLoop(p int) error {
	slots := make(chan struct{}, satInflight)
	end := time.NewTimer(ph.length)
	defer end.Stop()
	for {
		select {
		case <-end.C:
			return nil
		case slots <- struct{}{}:
		}
		op, err := ph.d.proxies[p].stream.next()
		if err != nil {
			return err
		}
		ph.issue(p, op, time.Since(ph.start), func() { <-slots })
	}
}

// openLoop sends on a fixed schedule regardless of completions: op i of
// proxy p is due at (i·numProxies + p) / rate, so the two proxies interleave.
// The next op is generated before its due time, so signing the transaction
// is off the timed path unless the generator falls behind — which the
// reported lateness shows.
func (ph *phase) openLoop(p int) error {
	period := time.Duration(float64(time.Second) * numProxies / float64(ph.rate))
	offset := period * time.Duration(p) / numProxies
	for i := 0; ; i++ {
		due := offset + period*time.Duration(i)
		if due >= ph.length {
			return nil
		}
		op, err := ph.d.proxies[p].stream.next()
		if err != nil {
			return err
		}
		if wait := due - time.Since(ph.start); wait > 0 {
			time.Sleep(wait)
		}
		ph.issue(p, op, due, nil)
	}
}

// issue submits one op and arranges for its completion to be checked and
// recorded. A read's allowed range is fixed here: it may not show a spend
// this proxy has not submitted by the time the read completes, and must show
// every spend acknowledged to this proxy before the read was issued.
func (ph *phase) issue(p int, op genOp, due time.Duration, release func()) {
	ps := ph.d.proxies[p]
	ps.mu.Lock()
	if op.kind == opSpend {
		ps.submitted++
	}
	ackedBefore := ps.acked
	ps.mu.Unlock()

	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if ph.opTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, ph.opTimeout)
	}
	sent := time.Since(ph.start)
	var fut *client.Future
	if op.kind == opRead {
		fut = ps.proxy.InvokeUnorderedAsync(ctx, op.payload)
	} else {
		fut = ps.proxy.InvokeAsync(ctx, op.payload)
	}
	s := sample{kind: op.kind, proxy: p, in: op.in, due: due, sent: sent, submit: time.Since(ph.start) - sent}

	ph.wg.Add(1)
	go func() {
		defer ph.wg.Done()
		defer cancel()
		res, err := fut.Result()
		s.done = time.Since(ph.start)
		ps.mu.Lock()
		switch {
		case err != nil:
			s.err = err.Error()
		case op.kind == opSpend:
			if code, _, perr := coin.ParseResult(res); perr != nil || code != coin.ResultOK {
				s.err = fmt.Sprintf("spend result code %d", code)
			} else {
				ps.acked++
				ps.ackedOut = append(ps.ackedOut, op.out)
			}
		default:
			balance, perr := coin.ParseUint64Result(res)
			lo := ph.d.initial - uint64(ps.submitted)*coinValue
			hi := ph.d.initial - uint64(ackedBefore)*coinValue
			if perr != nil {
				s.err = perr.Error()
			} else if balance < lo || balance > hi {
				s.err = fmt.Sprintf("balance %d outside [%d, %d]", balance, lo, hi)
			}
		}
		ps.mu.Unlock()
		s.ok = s.err == ""
		ph.mu.Lock()
		ph.samples = append(ph.samples, s)
		ph.mu.Unlock()
		if release != nil {
			release()
		}
	}()
}
