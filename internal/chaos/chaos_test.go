package chaos

import (
	"context"
	"reflect"
	"testing"
	"time"

	"smartchain/internal/codec"
	"smartchain/internal/consensus"
	"smartchain/internal/transport"
)

// TestGenerateDeterministic: the same (config, seed) pair must yield a
// bit-identical schedule — the replayability contract.
func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Duration: 12 * time.Second, Replicas: []int32{0, 1, 2, 3}, Churn: true}
	a := Generate(cfg, 42)
	b := Generate(cfg, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%s\nvs\n%s", a, b)
	}
	c := Generate(cfg, 43)
	if reflect.DeepEqual(a.Steps, c.Steps) {
		t.Fatal("different seeds produced identical schedules")
	}
	if len(a.Steps) < 6 {
		t.Fatalf("palette incomplete: %d steps\n%s", len(a.Steps), a)
	}
	// Every palette kind must be present — the acceptance gate needs the
	// equivocating leader on any seed.
	kinds := map[string]bool{}
	for _, st := range a.Steps {
		switch st.Action.(type) {
		case *ByzantineAction:
			kinds["byz"] = true
		case *PartitionAction:
			kinds["partition"] = true
		case *CrashAction:
			kinds["crash"] = true
		case *OneWayAction:
			kinds["oneway"] = true
		case *LossAction:
			kinds["loss"] = true
		case *DelayAction:
			kinds["delay"] = true
		case *JoinAction:
			kinds["join"] = true
		case *LeaveAction:
			kinds["leave"] = true
		}
	}
	for _, k := range []string{"byz", "partition", "crash", "oneway", "loss", "delay", "join", "leave"} {
		if !kinds[k] {
			t.Fatalf("generated schedule missing %s fault:\n%s", k, a)
		}
	}
	if end := a.End(); end > cfg.Duration {
		t.Fatalf("schedule overruns its window: end %v > %v", end, cfg.Duration)
	}
}

func pingable(net *transport.MemNetwork, from, to int32) bool {
	a := net.Endpoint(from)
	b := net.Endpoint(to)
	defer a.Close()
	defer b.Close()
	if err := a.Send(to, 7, []byte("ping")); err != nil {
		return false
	}
	select {
	case _, ok := <-b.Receive():
		return ok
	case <-time.After(200 * time.Millisecond):
		return false
	}
}

// TestPartitionActionBlocksBothWays: partitioning {3} away cuts both
// directions while the majority side keeps talking, and Clear heals it.
func TestPartitionActionBlocksBothWays(t *testing.T) {
	net := transport.NewMemNetwork()
	env := &Env{Net: net}
	act := &PartitionAction{Groups: [][]int32{{3}}}
	if err := act.Apply(env); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if pingable(net, 0, 3) || pingable(net, 3, 0) {
		t.Fatal("partitioned link still delivers")
	}
	if !pingable(net, 0, 1) {
		t.Fatal("majority-side link was cut by an unrelated partition")
	}
	if err := act.Clear(env); err != nil {
		t.Fatalf("clear: %v", err)
	}
	if !pingable(net, 0, 3) || !pingable(net, 3, 0) {
		t.Fatal("partition did not heal on Clear")
	}
}

// TestOneWayActionIsAsymmetric: a one-way fault drops From→To only.
func TestOneWayActionIsAsymmetric(t *testing.T) {
	net := transport.NewMemNetwork()
	env := &Env{Net: net}
	act := &OneWayAction{From: []int32{0}, To: []int32{3}}
	if err := act.Apply(env); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if pingable(net, 0, 3) {
		t.Fatal("faulted direction still delivers")
	}
	if !pingable(net, 3, 0) {
		t.Fatal("reverse direction was cut by a one-way fault")
	}
	if err := act.Clear(env); err != nil {
		t.Fatalf("clear: %v", err)
	}
	if !pingable(net, 0, 3) {
		t.Fatal("one-way fault did not heal on Clear")
	}
}

// TestRunAppliesAndAutoClears: the runner applies each step at its offset,
// auto-clears timed steps, leaves Dur==0 steps held, and the event timeline
// reflects it all in order.
func TestRunAppliesAndAutoClears(t *testing.T) {
	net := transport.NewMemNetwork()
	env := &Env{Net: net}
	held := &PartitionAction{Groups: [][]int32{{2}}}
	s := Schedule{Steps: []Step{
		{At: 10 * time.Millisecond, Dur: 60 * time.Millisecond, Action: &OneWayAction{From: []int32{0}, To: []int32{1}}},
		{At: 30 * time.Millisecond, Action: held},
	}}
	events := Run(context.Background(), env, s)
	if len(events) != 3 {
		t.Fatalf("want apply+apply+clear, got %d events: %v", len(events), events)
	}
	if events[0].Kind != EventApply || events[1].Kind != EventApply || events[2].Kind != EventClear {
		t.Fatalf("event order wrong: %v", events)
	}
	if !pingable(net, 0, 1) {
		t.Fatal("timed fault was not auto-cleared")
	}
	if pingable(net, 0, 2) {
		t.Fatal("held (Dur==0) fault was cleared by the runner")
	}
	_ = held.Clear(env)
}

// TestRunCancelClearsActiveFaults: cancelling mid-run must not leak
// still-active filters.
func TestRunCancelClearsActiveFaults(t *testing.T) {
	net := transport.NewMemNetwork()
	env := &Env{Net: net}
	ctx, cancel := context.WithCancel(context.Background())
	s := Schedule{Steps: []Step{
		{At: 0, Dur: 10 * time.Second, Action: &PartitionAction{Groups: [][]int32{{1}}}},
		{At: 5 * time.Second, Action: &FuncAction{Label: "never", Do: func(*Env) error { t.Error("ran after cancel"); return nil }}},
	}}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	events := Run(ctx, env, s)
	if !pingable(net, 0, 1) {
		t.Fatal("cancelled run leaked an active partition")
	}
	var cleared bool
	for _, ev := range events {
		if ev.Kind == EventClear {
			cleared = true
		}
	}
	if !cleared {
		t.Fatalf("no clear event after cancellation: %v", events)
	}
}

// TestCheckerAnalyze: flatline and recovery budgets, and action errors,
// turn into violations; a healthy timeline passes.
func TestCheckerAnalyze(t *testing.T) {
	mk := func(samples []Sample) *Checker {
		c := NewChecker(func() int64 { return 0 }, time.Second)
		c.samples = samples
		return c
	}
	healthy := []Sample{{1 * time.Second, 100}, {2 * time.Second, 0}, {3 * time.Second, 80}, {12 * time.Second, 90}}
	if v := mk(healthy).Analyze(nil, Budgets{MaxStall: 5 * time.Second}); len(v) != 0 {
		t.Fatalf("healthy timeline flagged: %v", v)
	}

	flat := []Sample{{1 * time.Second, 100}}
	for s := 2; s <= 14; s++ {
		flat = append(flat, Sample{time.Duration(s) * time.Second, 0})
	}
	if v := mk(flat).Analyze(nil, Budgets{MaxStall: 5 * time.Second}); len(v) == 0 {
		t.Fatal("12s flatline not flagged against a 5s budget")
	}

	// Fault clears at t=3s, goodput never returns though sampling ran far
	// past the budget: recovery violation.
	events := []Event{{T: 3 * time.Second, Kind: EventClear, Name: "crash(2)"}}
	if v := mk(flat).Analyze(events, Budgets{MaxStall: 30 * time.Second, RecoveryBudget: 4 * time.Second}); len(v) == 0 {
		t.Fatal("missed recovery budget not flagged")
	}

	// Action errors are violations outright.
	errEvents := []Event{{T: 1 * time.Second, Kind: EventError, Name: "join(4)", Err: "timed out"}}
	if v := mk(healthy).Analyze(errEvents, Budgets{}); len(v) != 1 {
		t.Fatalf("action error not surfaced as a violation: %v", v)
	}
}

// TestByzantineEquivocateForksProposal: an equivocating replica's PROPOSE
// (wire format instance|epoch|value) reaches odd-numbered peers with the
// same instance and epoch but an empty value, even-numbered peers
// unchanged, and the fork is counted.
func TestByzantineEquivocateForksProposal(t *testing.T) {
	net := transport.NewMemNetwork()
	byz := NewByzantine()
	leader := byz.Endpoint(0, net.Endpoint(0))
	odd, even := net.Endpoint(1), net.Endpoint(2)
	defer leader.Close()
	defer odd.Close()
	defer even.Close()

	enc := codec.NewEncoder(32)
	enc.Int64(9)
	enc.Int64(0)
	enc.WriteBytes([]byte("batch"))
	propose := enc.Bytes()

	byz.SetMode(0, ByzEquivocate)
	for _, to := range []int32{1, 2} {
		if err := leader.Send(to, consensus.MsgPropose, propose); err != nil {
			t.Fatalf("send to %d: %v", to, err)
		}
	}
	valueAt := func(ep transport.Endpoint) string {
		t.Helper()
		select {
		case m := <-ep.Receive():
			d := codec.NewDecoder(m.Payload)
			inst, epoch, value := d.Int64(), d.Int64(), d.ReadBytesCopy()
			if err := d.Finish(); err != nil || inst != 9 || epoch != 0 {
				t.Fatalf("replica %d got a malformed PROPOSE (instance %d, epoch %d): %v", ep.ID(), inst, epoch, err)
			}
			return string(value)
		case <-time.After(time.Second):
			t.Fatalf("replica %d never received the PROPOSE", ep.ID())
			return ""
		}
	}
	if v := valueAt(odd); v != "" {
		t.Fatalf("odd peer received value %q, want the forked empty value", v)
	}
	if v := valueAt(even); v != "batch" {
		t.Fatalf("even peer received value %q, want the original", v)
	}
	if n := byz.Equivocations(); n != 1 {
		t.Fatalf("Equivocations() = %d, want 1", n)
	}
}

// End is the offset at which the last step has applied and cleared.
func (s Schedule) End() time.Duration {
	var end time.Duration
	for _, st := range s.Steps {
		if t := st.At + st.Dur; t > end {
			end = t
		}
	}
	return end
}

// FuncAction runs an arbitrary callback at its step's offset — schedules
// use it for mid-fault probes (record a height, assert a stall) without
// abandoning the schedule abstraction.
type FuncAction struct {
	Label string
	Do    func(env *Env) error
}

func (a *FuncAction) Name() string { return a.Label }

func (a *FuncAction) Apply(env *Env) error { return a.Do(env) }

func (a *FuncAction) Clear(env *Env) error { return nil }
