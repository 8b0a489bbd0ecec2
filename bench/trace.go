package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smartchain/internal/coin"
	"smartchain/internal/core"
	"smartchain/internal/smr"
	"smartchain/internal/transport"
	"smartchain/internal/view"
)

// span is one timed interval of a traced run. Spans of one op share its
// identifier, the input coin of its SPEND; parent names the span that
// caused this one. Times are microseconds from the start of the rate phase.
type span struct {
	Name    string  `json:"name"`
	Op      string  `json:"op"`
	Parent  string  `json:"parent,omitempty"`
	Replica int32   `json:"replica"`
	Start   float64 `json:"start_us"`
	End     float64 `json:"end_us"`
}

// tracer holds what the traced pass records from outside the program: the
// wrappers it installs live in this package, and the program itself carries
// no stamp. Recording is switched on for the second half of the rate window
// only, so the first half gives the same run's untraced latency and the
// difference is the tracing overhead.
type tracer struct {
	on atomic.Bool
	// loaded is set while a load phase runs; Snapshot calls outside it (the
	// audit's state comparison) are not checkpoints.
	loaded atomic.Bool

	mu    sync.Mutex
	apps  []*timedApp
	eps   []*timedEndpoint
	execs map[coin.CoinID][]execSpan
}

type execSpan struct {
	replica    int32
	start, end time.Time
}

func newTracer() *tracer { return &tracer{execs: map[coin.CoinID][]execSpan{}} }

// reset forgets the wrappers of a deployment that was only built to time
// its set-up.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.apps, t.eps = nil, nil
}

func (t *tracer) hooks() hooks {
	return hooks{
		wrapApp: func(svc *coin.Service) core.Application {
			a := &timedApp{svc: svc, tr: t}
			a.replica.Store(-1)
			t.mu.Lock()
			t.apps = append(t.apps, a)
			t.mu.Unlock()
			return a
		},
		wrapEndpoint: func(id int32, ep transport.Endpoint) transport.Endpoint {
			e := &timedEndpoint{Endpoint: ep, tr: t}
			t.mu.Lock()
			t.eps = append(t.eps, e)
			t.mu.Unlock()
			return e
		},
	}
}

// labelApps tells each application wrapper which replica it serves. A
// wrapper built for a recovering replica is labelled only once Recover has
// returned, so executions replayed during recovery are not mistaken for the
// live execution of an op.
func (t *tracer) labelApps(d *deployment) {
	for id, cn := range d.cluster.Nodes {
		if a, ok := cn.App.(*timedApp); ok {
			a.replica.Store(id)
		}
	}
}

func (t *tracer) app(replica int32) *timedApp {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range t.apps {
		if a.replica.Load() == replica {
			return a
		}
	}
	return nil
}

// sendTotals sums the replicas' Endpoint.Send calls and payload bytes.
func (t *tracer) sendTotals() (calls, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.eps {
		calls += e.calls.Load()
		bytes += e.bytes.Load()
	}
	return calls, bytes
}

// timedApp is the timing core.Application around one replica's coin service.
type timedApp struct {
	svc     *coin.Service
	tr      *tracer
	replica atomic.Int32

	verifyN, verifyNS atomic.Int64

	mu        sync.Mutex
	execBusy  time.Duration
	execOps   int
	readBusy  time.Duration
	readsUS   []float64
	snapsMS   []float64
	gapsMS    []float64
	lastExec  time.Time // end of the latest ExecuteBatch
	snapAfter time.Time // lastExec as it was when Snapshot ran; zero when none is pending
}

func (a *timedApp) ExecuteBatch(bc smr.BatchContext, reqs []smr.Request) [][]byte {
	t0 := time.Now() //smartlint:allow detexec timing wrapper; the clock never reaches state or results
	out := a.svc.ExecuteBatch(bc, reqs)
	t1 := time.Now() //smartlint:allow detexec timing wrapper; the clock never reaches state or results
	recording := a.tr.on.Load()

	a.mu.Lock()
	if !a.snapAfter.IsZero() {
		a.gapsMS = append(a.gapsMS, ms(t0.Sub(a.snapAfter)))
		a.snapAfter = time.Time{}
	}
	a.lastExec = t1
	if recording {
		a.execBusy += t1.Sub(t0)
		a.execOps += len(reqs)
	}
	a.mu.Unlock()

	if replica := a.replica.Load(); recording && replica >= 0 {
		a.tr.mu.Lock()
		for i := range reqs {
			if tx, err := coin.Decode(reqs[i].Op); err == nil && len(tx.Inputs) == 1 {
				a.tr.execs[tx.Inputs[0]] = append(a.tr.execs[tx.Inputs[0]], execSpan{replica, t0, t1})
			}
		}
		a.tr.mu.Unlock()
	}
	return out
}

func (a *timedApp) ExecuteUnordered(req smr.Request) []byte {
	t0 := time.Now()
	out := a.svc.ExecuteUnordered(req)
	if a.tr.on.Load() {
		d := time.Since(t0)
		a.mu.Lock()
		a.readBusy += d
		a.readsUS = append(a.readsUS, us(d))
		a.mu.Unlock()
	}
	return out
}

func (a *timedApp) VerifyOp(req *smr.Request) bool {
	t0 := time.Now()
	ok := a.svc.VerifyOp(req)
	if a.tr.on.Load() {
		a.verifyN.Add(1)
		a.verifyNS.Add(int64(time.Since(t0)))
	}
	return ok
}

// Snapshot is timed over the whole run, not only while spans are recorded:
// checkpoints are too rare for half a window to hold enough of them.
func (a *timedApp) Snapshot() []byte {
	t0 := time.Now()
	out := a.svc.Snapshot()
	if a.tr.loaded.Load() {
		a.mu.Lock()
		a.snapsMS = append(a.snapsMS, ms(time.Since(t0)))
		a.snapAfter = a.lastExec
		a.mu.Unlock()
	}
	return out
}

func (a *timedApp) Restore(snapshot []byte) error { return a.svc.Restore(snapshot) }

// timedEndpoint counts and times one replica's sends.
type timedEndpoint struct {
	transport.Endpoint
	tr           *tracer
	calls, bytes atomic.Int64

	mu      sync.Mutex
	sendsUS []float64
}

func (e *timedEndpoint) Send(to int32, typ uint16, payload []byte) error {
	e.calls.Add(1)
	e.bytes.Add(int64(len(payload)))
	if !e.tr.on.Load() {
		return e.Endpoint.Send(to, typ, payload)
	}
	t0 := time.Now()
	err := e.Endpoint.Send(to, typ, payload)
	d := us(time.Since(t0))
	e.mu.Lock()
	e.sendsUS = append(e.sendsUS, d)
	e.mu.Unlock()
	return err
}

// tracedHalf is the sidecar that switches recording on halfway through the
// rate window and off at its end.
func (t *tracer) tracedHalf(pl plan) func(time.Time) {
	return func(start time.Time) {
		time.Sleep(time.Until(start.Add(pl.rateWarm + pl.rateWin/2)))
		t.on.Store(true)
		time.Sleep(time.Until(start.Add(pl.rateWarm + pl.rateWin)))
		t.on.Store(false)
	}
}

// report derives the trace-sourced metrics and writes the span file. The
// per-op budget is cut at the replica that completes the client's reply
// quorum — the third (2f+1-th) of four to enter the ExecuteBatch call
// containing the op: order = due → that entry, exec = that
// call, persist_reply = its return → the client's reply quorum.
func (t *tracer) report(res *runResult, d *deployment, rate *phase, samples []sample, pl plan) {
	half := pl.rateWarm + pl.rateWin/2
	n := len(d.cluster.Nodes)
	quorum := view.ByzantineQuorum(n, view.FaultTolerance(n)) // the client's reply quorum
	var plain, traced, order, exec, reply []float64
	var spans []span
	rel := func(at time.Time) float64 { return us(at.Sub(rate.start)) }
	for k := range samples {
		s := &samples[k]
		if !s.ok || s.kind != opSpend || s.due < pl.rateWarm {
			continue
		}
		if s.due < half {
			// An op due just before the switch may complete after it; it still
			// ran almost wholly untraced.
			plain = append(plain, ms(s.latency()))
			continue
		}
		traced = append(traced, ms(s.latency()))
		id := hex.EncodeToString(s.in[:8])
		spans = append(spans,
			span{Name: "op", Op: id, Replica: -1, Start: us(s.due), End: us(s.done)},
			span{Name: "client.submit", Op: id, Parent: "op", Replica: -1, Start: us(s.sent), End: us(s.sent + s.submit)})

		first := map[int32]execSpan{}
		for _, e := range t.execs[s.in] {
			if _, seen := first[e.replica]; !seen {
				first[e.replica] = e
			}
		}
		execs := make([]execSpan, 0, len(first))
		for _, e := range first {
			execs = append(execs, e)
			spans = append(spans, span{Name: "replica.exec", Op: id, Parent: "op", Replica: e.replica, Start: rel(e.start), End: rel(e.end)})
		}
		if len(execs) < quorum {
			continue // entered ExecuteBatch before recording began on too many replicas
		}
		sort.Slice(execs, func(i, j int) bool { return execs[i].start.Before(execs[j].start) })
		cut := execs[quorum-1]
		order = append(order, ms(cut.start.Sub(rate.start)-s.due))
		exec = append(exec, ms(cut.end.Sub(cut.start)))
		reply = append(reply, ms(s.done-cut.end.Sub(rate.start)))
	}
	res.set("core.order_ms_p50", percentile(order, 50), "ms", len(order))
	res.set("core.exec_ms_p50", percentile(exec, 50), "ms", len(exec))
	res.set("core.persist_reply_ms_p50", percentile(reply, 50), "ms", len(reply))
	res.set("core.trace_overhead_pct", 100*(percentile(traced, 50)/percentile(plain, 50)-1), "%", len(plain))

	wall := (pl.rateWin / 2).Seconds()
	if a := t.app(d.ref); a != nil {
		a.mu.Lock()
		res.set("coin.exec_us_per_op", ratio(us(a.execBusy), float64(a.execOps)), "us", a.execOps)
		res.set("coin.exec_busy_share", (a.execBusy+a.readBusy).Seconds()/wall, "ratio", a.execOps+len(a.readsUS))
		res.set("coin.read_us_p50", orZero(percentile(a.readsUS, 50)), "us", len(a.readsUS))
		res.set("coin.snapshot_ms_p50", orZero(percentile(a.snapsMS, 50)), "ms", len(a.snapsMS))
		res.set("core.ckpt_gap_ms_p50", orZero(percentile(a.gapsMS, 50)), "ms", len(a.gapsMS))
		a.mu.Unlock()
		verified := a.verifyN.Load()
		res.set("coin.verifyop_us", ratio(float64(a.verifyNS.Load())/1e3, float64(verified)), "us", int(verified))
	}
	var sends []float64
	t.mu.Lock()
	for _, e := range t.eps {
		e.mu.Lock()
		sends = append(sends, e.sendsUS...)
		e.mu.Unlock()
	}
	t.mu.Unlock()
	res.set("transport.send_us_p99", percentile(sends, 99), "us", len(sends))

	if err := writeTrace(d.w.name, spans); err != nil {
		res.problem("trace: %v", err)
	}
}

// outDir is where a run leaves its files, relative to the checkout root.
const outDir = "bench/out"

func writeTrace(workload string, spans []span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s.json", workload))
	return os.WriteFile(path, data, 0o644)
}
