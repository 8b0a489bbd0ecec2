package chaos

import (
	"fmt"
	"math/rand"
	"sync"

	"smartchain/internal/transport"
)

// PartitionAction drops every message crossing a group boundary, both
// directions. Processes not listed in any group (other replicas, clients)
// stay together in the default group — partitioning [][]int32{{3}} cuts
// replica 3 away from everyone else while the rest of the world, clients
// included, keeps talking. Built on the filter stack, so it composes with
// concurrent faults.
type PartitionAction struct {
	Groups [][]int32

	id transport.FilterID
}

func (a *PartitionAction) Name() string {
	parts := make([]string, 0, len(a.Groups))
	for _, g := range a.Groups {
		parts = append(parts, fmt.Sprintf("%v", g))
	}
	return "partition" + fmt.Sprintf("%v", parts)
}

func (a *PartitionAction) Apply(env *Env) error {
	group := make(map[int32]int, 8)
	for gi, g := range a.Groups {
		for _, id := range g {
			group[id] = gi + 1
		}
	}
	a.id = env.Net.AddFilter(func(m transport.Message) bool {
		return group[m.From] != group[m.To]
	})
	return nil
}

func (a *PartitionAction) Clear(env *Env) error {
	env.Net.RemoveFilter(a.id)
	return nil
}

// OneWayAction drops messages from any process in From to any process in
// To — the asymmetric link failure a symmetric partition cannot express
// (the stale-campaigner scenario: a replica that is heard but cannot
// hear).
type OneWayAction struct {
	From, To []int32

	id transport.FilterID
}

func (a *OneWayAction) Name() string {
	return fmt.Sprintf("oneway%v->%v", a.From, a.To)
}

func (a *OneWayAction) Apply(env *Env) error {
	from := idSet(a.From)
	to := idSet(a.To)
	a.id = env.Net.AddFilter(func(m transport.Message) bool {
		return from[m.From] && to[m.To]
	})
	return nil
}

func (a *OneWayAction) Clear(env *Env) error {
	env.Net.RemoveFilter(a.id)
	return nil
}

// LossAction drops messages on the selected links independently with
// probability Rate, from its own seeded RNG (replayable). Empty From/To
// match every sender/receiver.
type LossAction struct {
	Rate     float64
	Seed     int64
	From, To []int32

	id transport.FilterID
}

func (a *LossAction) Name() string {
	return fmt.Sprintf("loss(%.0f%%,%v->%v)", a.Rate*100, a.From, a.To)
}

func (a *LossAction) Apply(env *Env) error {
	from := idSet(a.From)
	to := idSet(a.To)
	rng := rand.New(rand.NewSource(a.Seed))
	var mu sync.Mutex
	rate := a.Rate
	a.id = env.Net.AddFilter(func(m transport.Message) bool {
		if len(from) > 0 && !from[m.From] {
			return false
		}
		if len(to) > 0 && !to[m.To] {
			return false
		}
		mu.Lock()
		lost := rng.Float64() < rate
		mu.Unlock()
		return lost
	})
	return nil
}

func (a *LossAction) Clear(env *Env) error {
	env.Net.RemoveFilter(a.id)
	return nil
}

// DelayAction installs a delivery-delay distribution on one directed link
// (transport.AnyProcess wildcards either end): latency faults expressed as
// distributions, not just drops.
type DelayAction struct {
	From, To int32
	Dist     transport.DelayDist
}

func (a *DelayAction) Name() string {
	return fmt.Sprintf("delay(%s->%s,%v±%v)", idName(a.From), idName(a.To), a.Dist.Base, a.Dist.Jitter)
}

func (a *DelayAction) Apply(env *Env) error {
	d := a.Dist
	env.Net.SetLinkDelay(a.From, a.To, &d)
	return nil
}

func (a *DelayAction) Clear(env *Env) error {
	env.Net.SetLinkDelay(a.From, a.To, nil)
	return nil
}

// CrashAction crashes a replica on Apply and recovers it (local storage +
// state transfer) on Clear.
type CrashAction struct {
	ID           int32
	TargetLeader bool

	victim int32
}

func (a *CrashAction) Name() string {
	if a.TargetLeader {
		return "crash(leader)"
	}
	return fmt.Sprintf("crash(%d)", a.ID)
}

func (a *CrashAction) Apply(env *Env) error {
	a.victim = resolveTarget(env, a.ID, a.TargetLeader)
	return env.Cluster.Crash(a.victim)
}

func (a *CrashAction) Clear(env *Env) error {
	return env.Cluster.Recover(a.victim)
}

// ByzantineAction turns one replica Byzantine for the step's duration:
// ModeEquivocate forks its leader proposals (different values to different
// peers), ModeSilent withholds them. TargetLeader aims the fault at the
// consensus leader resolved at Apply time — the interesting victim, since
// only leaders propose.
type ByzantineAction struct {
	ID           int32
	TargetLeader bool
	Mode         ByzMode

	victim int32
}

func (a *ByzantineAction) Name() string {
	who := idName(a.ID)
	if a.TargetLeader {
		who = "leader"
	}
	return fmt.Sprintf("byz-%s(%s)", a.Mode, who)
}

func (a *ByzantineAction) Apply(env *Env) error {
	if env.Byz == nil {
		return fmt.Errorf("chaos: no Byzantine controller wired into the env")
	}
	a.victim = resolveTarget(env, a.ID, a.TargetLeader)
	env.Byz.SetMode(a.victim, a.Mode)
	return nil
}

func (a *ByzantineAction) Clear(env *Env) error {
	env.Byz.SetMode(a.victim, ByzOff)
	return nil
}

// JoinAction spawns a brand-new replica and drives the join protocol.
// Asynchronous: the protocol takes seconds under load, and stalling the
// schedule timeline on it would skew every later step. Failures surface as
// EventError entries, which the invariant checker treats as violations.
type JoinAction struct {
	ID int32
}

func (a *JoinAction) Name() string { return fmt.Sprintf("join(%d)", a.ID) }

func (a *JoinAction) Apply(env *Env) error {
	id := a.ID
	name := a.Name()
	env.wg.Add(1)
	go func() {
		defer env.wg.Done()
		if err := env.Cluster.Join(id, env.churnTimeout()); err != nil {
			env.event(EventError, name, err)
			return
		}
		env.event(EventClear, name, nil) // the join completed: churn "fault" over
	}()
	return nil
}

func (a *JoinAction) Clear(env *Env) error { return nil }

// LeaveAction makes a replica depart voluntarily. Asynchronous, like
// JoinAction.
type LeaveAction struct {
	ID int32
}

func (a *LeaveAction) Name() string { return fmt.Sprintf("leave(%d)", a.ID) }

func (a *LeaveAction) Apply(env *Env) error {
	id := a.ID
	name := a.Name()
	env.wg.Add(1)
	go func() {
		defer env.wg.Done()
		if err := env.Cluster.Leave(id, env.churnTimeout()); err != nil {
			env.event(EventError, name, err)
			return
		}
		env.event(EventClear, name, nil)
	}()
	return nil
}

func (a *LeaveAction) Clear(env *Env) error { return nil }

// resolveTarget picks the action's victim: the current leader when asked
// (and resolvable), the literal ID otherwise.
func resolveTarget(env *Env, id int32, leader bool) int32 {
	if leader && env.Leader != nil {
		if l := env.Leader(); l >= 0 {
			return l
		}
	}
	return id
}

func idSet(ids []int32) map[int32]bool {
	s := make(map[int32]bool, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

func idName(id int32) string {
	if id == transport.AnyProcess {
		return "*"
	}
	return fmt.Sprintf("%d", id)
}
