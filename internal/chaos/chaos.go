// Package chaos is the scheduled fault-injection and churn subsystem: it
// composes fault actions — partitions (symmetric and one-way), targeted
// loss and delay distributions, replica crash/restart, leader equivocation
// through a Byzantine transport wrapper, and continuous membership churn —
// over time, while open-loop clients sustain traffic.
//
// A schedule is data: an ordered list of timed steps, either written by
// hand (the bespoke fault tests rewritten as schedules) or produced by the
// seeded generator (Generate), so every run is replayable from its seed.
// Actions stack — the MemNetwork filter stack means two overlapping
// scenarios compose instead of clobbering each other.
//
// The package deliberately depends only on the transport and consensus
// layers: the deployment under test is reached through the narrow Network
// and Cluster interfaces (satisfied by transport.MemNetwork and
// core.Cluster), so integration tests inside internal/core can drive chaos
// schedules without an import cycle.
package chaos

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"smartchain/internal/transport"
)

// Network is the fault surface of the wire: the composable filter stack
// plus per-link delay distributions. *transport.MemNetwork satisfies it.
type Network interface {
	AddFilter(f func(transport.Message) bool) transport.FilterID
	RemoveFilter(id transport.FilterID)
	SetLinkDelay(from, to int32, d *transport.DelayDist)
}

// Cluster is the process-level fault surface: crash/restart and membership
// churn. *core.Cluster satisfies it.
type Cluster interface {
	Members() []int32
	Crash(id int32) error
	Recover(id int32) error
	Join(id int32, timeout time.Duration) error
	Leave(id int32, timeout time.Duration) error
}

// Env is everything a schedule acts on. Net is required; Cluster, Byz, and
// Leader are needed only by the actions that use them (crash/churn,
// Byzantine modes, leader-targeted faults). One Env serves one Run at a
// time.
type Env struct {
	Net     Network
	Cluster Cluster
	Byz     *Byzantine
	// Leader resolves the current consensus leader for leader-targeted
	// actions (nil or -1 falls back to the action's literal target).
	Leader func() int32
	// ChurnTimeout bounds one join or leave (default 30 s).
	ChurnTimeout time.Duration

	mu     sync.Mutex
	start  time.Time
	events []Event
	wg     sync.WaitGroup
}

// event records one timeline entry at the current run offset.
func (e *Env) event(kind EventKind, name string, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ev := Event{T: time.Since(e.start), Kind: kind, Name: name}
	if err != nil {
		ev.Err = err.Error()
	}
	e.events = append(e.events, ev)
}

func (e *Env) churnTimeout() time.Duration {
	if e.ChurnTimeout > 0 {
		return e.ChurnTimeout
	}
	return 30 * time.Second
}

// Action is one fault: Apply injects it, Clear undoes it. Stateful actions
// (partitions, delays, Byzantine modes) keep their undo handle between the
// two calls; instantaneous actions (join, leave, probes) make Clear a
// no-op. Actions are one-shot: a schedule step owns its action value.
type Action interface {
	Name() string
	Apply(env *Env) error
	Clear(env *Env) error
}

// Step schedules one action: Apply at At, and — when Dur > 0 — Clear at
// At+Dur. Dur == 0 means the action is instantaneous or holds until the
// run ends (the runner never auto-clears it).
type Step struct {
	At     time.Duration
	Dur    time.Duration
	Action Action
}

func (s Step) String() string {
	if s.Dur > 0 {
		return fmt.Sprintf("t=%5.2fs +%4.1fs  %s", s.At.Seconds(), s.Dur.Seconds(), s.Action.Name())
	}
	return fmt.Sprintf("t=%5.2fs        %s", s.At.Seconds(), s.Action.Name())
}

// Schedule is a fault timeline: pure data, replayable, printable. Seed
// records how it was generated (0 for handwritten schedules).
type Schedule struct {
	Seed  int64
	Steps []Step
}

func (s Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule seed=%d steps=%d\n", s.Seed, len(s.Steps))
	for _, st := range s.Steps {
		fmt.Fprintf(&b, "  %s\n", st)
	}
	return b.String()
}

// EventKind classifies timeline events.
type EventKind uint8

const (
	// EventApply marks a fault injection.
	EventApply EventKind = iota + 1
	// EventClear marks a fault being undone — the moment the recovery
	// budget starts counting.
	EventClear
	// EventError marks an action that failed (a join that never
	// committed, a recover that could not restart). The invariant checker
	// treats these as violations.
	EventError
)

func (k EventKind) String() string {
	switch k {
	case EventApply:
		return "apply"
	case EventClear:
		return "clear"
	case EventError:
		return "error"
	}
	return "?"
}

// Event is one entry of the run's fault timeline: what happened, when
// (offset from run start), and — for EventError — why.
type Event struct {
	T    time.Duration
	Kind EventKind
	Name string
	Err  string
}

func (e Event) String() string {
	if e.Err != "" {
		return fmt.Sprintf("t=%5.2fs %-5s %s: %s", e.T.Seconds(), e.Kind, e.Name, e.Err)
	}
	return fmt.Sprintf("t=%5.2fs %-5s %s", e.T.Seconds(), e.Kind, e.Name)
}

// timedOp is one runner operation: apply or clear a step at an offset.
type timedOp struct {
	at    time.Duration
	step  int
	clear bool
}

// Run plays a schedule against env in real time: each step's action is
// applied at its offset and auto-cleared Dur later. Apply/Clear/Error
// events are recorded with their actual offsets and returned sorted.
// Cancelling ctx clears every still-active stateful fault before
// returning, so a test that bails early does not leak filters into the
// cluster teardown. Run blocks until asynchronous actions (churn) finish.
func Run(ctx context.Context, env *Env, s Schedule) []Event {
	ops := make([]timedOp, 0, 2*len(s.Steps))
	for i, st := range s.Steps {
		ops = append(ops, timedOp{at: st.At, step: i})
		if st.Dur > 0 {
			ops = append(ops, timedOp{at: st.At + st.Dur, step: i, clear: true})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })

	env.mu.Lock()
	env.start = time.Now()
	env.events = nil
	env.mu.Unlock()

	applied := make([]bool, len(s.Steps))
	cancelled := false
	for _, op := range ops {
		if !cancelled {
			select {
			case <-time.After(time.Until(env.start.Add(op.at))):
			case <-ctx.Done():
				cancelled = true
			}
		}
		st := s.Steps[op.step]
		if op.clear {
			if !applied[op.step] {
				continue
			}
			applied[op.step] = false
			if err := st.Action.Clear(env); err != nil {
				env.event(EventError, st.Action.Name(), err)
			} else {
				env.event(EventClear, st.Action.Name(), nil)
			}
			continue
		}
		if cancelled {
			continue // never inject new faults after cancellation
		}
		if err := st.Action.Apply(env); err != nil {
			env.event(EventError, st.Action.Name(), err)
			continue
		}
		applied[op.step] = true
		if st.Dur == 0 {
			applied[op.step] = false // instantaneous or held-forever: no auto-clear
		}
		env.event(EventApply, st.Action.Name(), nil)
	}
	// A cancelled run may have skipped clears: undo what is still active.
	for i := range s.Steps {
		if applied[i] {
			if err := s.Steps[i].Action.Clear(env); err != nil {
				env.event(EventError, s.Steps[i].Action.Name(), err)
			} else {
				env.event(EventClear, s.Steps[i].Action.Name(), nil)
			}
		}
	}
	env.wg.Wait()

	env.mu.Lock()
	out := make([]Event, len(env.events))
	copy(out, env.events)
	env.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}
