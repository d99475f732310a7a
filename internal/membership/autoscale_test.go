package membership

import (
	"context"
	"strings"
	"testing"
	"time"

	"roar/internal/clock"
	"roar/internal/proto"
	"roar/internal/ring"
)

// asEnv is an autoscale test environment: a coordinator over real (but
// empty) nodes, a fake clock, and a synthetic-telemetry pump.
type asEnv struct {
	t   *testing.T
	c   *Coordinator
	clk *clock.Fake
	ids []ring.NodeID
	seq uint64
}

func newASEnv(t *testing.T, nodes, rings, p int) *asEnv {
	t.Helper()
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	c, err := New(Config{P: p, Rings: rings, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	enc := slimEncoder()
	_, addrs := startNodes(t, enc, nodes)
	env := &asEnv{t: t, c: c, clk: clk}
	for i := 0; i < nodes; i++ {
		jr, err := c.Join(context.Background(), addrs[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		env.ids = append(env.ids, ring.NodeID(jr.ID))
	}
	return env
}

// report pushes one synthetic fleet-wide health report: every node at
// the given queue depth, plus optional shed and failure counts.
func (e *asEnv) report(depth, shed int, fails map[ring.NodeID]int) {
	e.t.Helper()
	e.seq++
	rep := proto.HealthReport{FE: "fe-test", Seq: e.seq, Shed: shed}
	for _, id := range e.ids {
		rep.Nodes = append(rep.Nodes, proto.NodeHealth{ID: int(id), QueueDepth: depth, Fails: fails[id]})
	}
	e.c.ReportHealth(rep)
}

func actionsOf(ds []AutoscaleDecision) []AutoscaleAction {
	var out []AutoscaleAction
	for _, d := range ds {
		out = append(out, d.Action)
	}
	return out
}

// TestAutoscaleHysteresis: pressure must hold above the high-water mark
// for SustainTicks CONSECUTIVE ticks before anything moves; a single
// tick back inside the dead band resets the streak, so flapping across
// the threshold boundary never accumulates toward an action.
func TestAutoscaleHysteresis(t *testing.T) {
	env := newASEnv(t, 4, 2, 2)
	if err := env.c.SetRingEnabled(context.Background(), 1, false); err != nil {
		t.Fatal(err)
	}
	a := env.c.NewAutoscaler(AutoscaleConfig{
		DepthRef: 8, SustainTicks: 3,
	})
	ctx := context.Background()
	step := func() []AutoscaleDecision {
		env.clk.Advance(time.Second)
		return a.Step(ctx)
	}

	// Two high ticks, one mid-band tick, two high ticks: the mid-band
	// tick must have reset the streak, so still no action.
	for i, depth := range []int{16, 16, 4, 16, 16} {
		env.report(depth, 0, nil)
		if ds := step(); len(ds) != 0 {
			t.Fatalf("tick %d (depth %d): premature action %v", i, depth, actionsOf(ds))
		}
	}
	// Third consecutive high tick: now the controller moves, and the
	// cheap lever (the powered-down ring) is chosen.
	env.report(16, 0, nil)
	ds := step()
	if len(ds) != 1 || ds[0].Action != ActionRingUp {
		t.Fatalf("sustained pressure: got %v, want [ring-up]", actionsOf(ds))
	}
	if ds[0].Ring != 1 {
		t.Fatalf("powered up ring %d, want 1", ds[0].Ring)
	}
	// The ring really is serving again.
	v := env.c.View()
	rings := map[int]bool{}
	for _, ni := range v.Nodes {
		rings[ni.Ring] = true
	}
	if !rings[1] {
		t.Fatal("ring 1 still hidden from the view after ring-up")
	}
}

// TestAutoscaleCooldown: after one action the controller must hold its
// fire for the cooldown window even under continued pressure, then act
// again once the window and a fresh sustain streak have both passed.
func TestAutoscaleCooldown(t *testing.T) {
	env := newASEnv(t, 4, 2, 4)
	if err := env.c.SetRingEnabled(context.Background(), 1, false); err != nil {
		t.Fatal(err)
	}
	a := env.c.NewAutoscaler(AutoscaleConfig{
		DepthRef: 8, SustainTicks: 1, Cooldown: time.Minute,
	})
	ctx := context.Background()
	env.report(20, 0, nil)
	if ds := a.Step(ctx); len(ds) != 1 || ds[0].Action != ActionRingUp {
		t.Fatalf("first action: %v, want ring-up", actionsOf(ds))
	}
	// Pressure stays high, clock creeps inside the cooldown: no action.
	for i := 0; i < 5; i++ {
		env.clk.Advance(5 * time.Second)
		env.report(20, 0, nil)
		if ds := a.Step(ctx); len(ds) != 0 {
			t.Fatalf("action %v inside cooldown at tick %d", actionsOf(ds), i)
		}
	}
	// Past the cooldown the next lever fires (no disabled ring remains,
	// so it is the cost-gated p step).
	env.clk.Advance(time.Minute)
	env.report(20, 0, nil)
	ds := a.Step(ctx)
	if len(ds) != 1 || ds[0].Action != ActionPDown {
		t.Fatalf("post-cooldown action: %v, want p-down", actionsOf(ds))
	}
	if got := env.c.P(); got != 3 {
		t.Fatalf("p = %d after p-down from 4, want 3", got)
	}
}

// TestAutoscaleCostGateRefusal: with pressure sustained but the §6.3
// model pricing the p step above the configured budget, the controller
// must record a hold and leave the topology alone.
func TestAutoscaleCostGateRefusal(t *testing.T) {
	env := newASEnv(t, 4, 1, 2) // p 2→1 doubles r: 2.0 corpus copies
	a := env.c.NewAutoscaler(AutoscaleConfig{
		DepthRef: 8, SustainTicks: 1, CostGateFraction: 1.0,
	})
	ctx := context.Background()
	epoch := env.c.Epoch()
	env.report(20, 0, nil)
	ds := a.Step(ctx)
	if len(ds) != 1 || ds[0].Action != ActionHold {
		t.Fatalf("got %v, want [hold]", actionsOf(ds))
	}
	if !strings.Contains(ds[0].Reason, "cost gate") {
		t.Fatalf("hold reason %q does not name the cost gate", ds[0].Reason)
	}
	if got := env.c.P(); got != 2 {
		t.Fatalf("cost-gated hold still changed p to %d", got)
	}
	if env.c.Epoch() != epoch {
		t.Fatal("cost-gated hold published a view")
	}
	// The refusal is recorded once per sustained episode, not re-logged
	// every tick the pressure stays high.
	for i := 0; i < 3; i++ {
		env.clk.Advance(time.Second)
		env.report(20, 0, nil)
		if ds := a.Step(ctx); len(ds) != 0 {
			t.Fatalf("hold re-emitted on sustained tick %d: %v", i, actionsOf(ds))
		}
	}
	if got := len(a.Decisions()); got != 1 {
		t.Fatalf("decision log has %d entries after a sustained refused episode, want 1", got)
	}

	// Raising the budget clears the gate: the same pressure now buys
	// the step.
	a2 := env.c.NewAutoscaler(AutoscaleConfig{
		DepthRef: 8, SustainTicks: 1, CostGateFraction: 2.5,
	})
	env.report(20, 0, nil)
	ds = a2.Step(ctx)
	if len(ds) != 1 || ds[0].Action != ActionPDown {
		t.Fatalf("generous gate: got %v, want [p-down]", actionsOf(ds))
	}
	if got := env.c.P(); got != 1 {
		t.Fatalf("p = %d, want 1", got)
	}
}

// TestAutoscaleScaleDownRestoresThenPowersOff: when pressure clears,
// the controller first restores p toward its baseline (free), then
// powers a ring down — and never touches the last serving ring.
func TestAutoscaleScaleDownRestoresThenPowersOff(t *testing.T) {
	env := newASEnv(t, 4, 2, 3)
	a := env.c.NewAutoscaler(AutoscaleConfig{
		DepthRef: 8, SustainTicks: 1, Cooldown: time.Millisecond,
		CostGateFraction: 10,
	})
	ctx := context.Background()
	// Drive one emergency p-down (both rings already serve).
	env.report(20, 0, nil)
	if ds := a.Step(ctx); len(ds) != 1 || ds[0].Action != ActionPDown {
		t.Fatalf("setup p-down: %v", actionsOf(ds))
	}
	if env.c.P() != 2 {
		t.Fatalf("p = %d, want 2", env.c.P())
	}
	// Load vanishes: first give back the replication (p 2→3)...
	env.report(0, 0, nil)
	env.clk.Advance(time.Second)
	if ds := a.Step(ctx); len(ds) != 1 || ds[0].Action != ActionPUp {
		t.Fatalf("first scale-down: %v, want p-up", actionsOf(ds))
	}
	if env.c.P() != 3 {
		t.Fatalf("p = %d after restore, want baseline 3", env.c.P())
	}
	// ...then power a ring down...
	env.clk.Advance(time.Second)
	if ds := a.Step(ctx); len(ds) != 1 || ds[0].Action != ActionRingDown {
		t.Fatalf("second scale-down: %v, want ring-down", actionsOf(ds))
	}
	// ...and then hold: the last ring must keep serving.
	env.clk.Advance(time.Second)
	if ds := a.Step(ctx); len(ds) != 0 {
		t.Fatalf("scale-down past the last ring: %v", actionsOf(ds))
	}
	if len(env.c.View().Nodes) == 0 {
		t.Fatal("controller powered off the whole cluster")
	}
}

// TestAutoscaleQuarantineDeadline: a node quarantined past the deadline
// is auto-decommissioned — removed from the topology, its range
// redistributed — while a freshly quarantined node is left alone.
func TestAutoscaleQuarantineDeadline(t *testing.T) {
	env := newASEnv(t, 4, 1, 2)
	a := env.c.NewAutoscaler(AutoscaleConfig{
		DepthRef: 1000, SustainTicks: 100, // capacity loop effectively off
		QuarantineDeadline: time.Minute,
	})
	ctx := context.Background()
	victim := env.ids[1]
	env.report(0, 0, map[ring.NodeID]int{victim: 4})
	if got := env.c.Quarantined(); len(got) != 1 || got[0] != int(victim) {
		t.Fatalf("quarantined = %v, want [%d]", got, victim)
	}
	// Before the deadline: nothing happens.
	env.clk.Advance(30 * time.Second)
	if ds := a.Step(ctx); len(ds) != 0 {
		t.Fatalf("decommission before deadline: %v", actionsOf(ds))
	}
	// Past it: the node is removed outright.
	env.clk.Advance(45 * time.Second)
	ds := a.Step(ctx)
	if len(ds) != 1 || ds[0].Action != ActionDecommission || ds[0].Node != int(victim) {
		t.Fatalf("got %v (%+v), want decommission of node %d", actionsOf(ds), ds, victim)
	}
	if ds[0].Err != "" {
		t.Fatalf("decommission failed: %s", ds[0].Err)
	}
	for _, ni := range env.c.View().Nodes {
		if ni.ID == int(victim) {
			t.Fatal("decommissioned node still in the view")
		}
	}
	if got := env.c.Quarantined(); len(got) != 0 {
		t.Fatalf("quarantine set not cleaned: %v", got)
	}
}

// TestAutoscaleDryRun: with DryRun set the controller must emit the
// same decisions it would execute — marked dry-run — while mutating
// nothing: no p change, no ring power change, no decommission, no view
// epoch movement.
func TestAutoscaleDryRun(t *testing.T) {
	env := newASEnv(t, 4, 2, 2)
	if err := env.c.SetRingEnabled(context.Background(), 1, false); err != nil {
		t.Fatal(err)
	}
	epoch := env.c.Epoch()
	a := env.c.NewAutoscaler(AutoscaleConfig{
		DryRun: true, DepthRef: 8, SustainTicks: 1,
		QuarantineDeadline: time.Minute,
	})
	ctx := context.Background()
	victim := env.ids[0]
	env.report(20, 0, map[ring.NodeID]int{victim: 4})
	epochAfterQuarantine := env.c.Epoch()
	env.clk.Advance(2 * time.Minute)
	ds := a.Step(ctx)
	if len(ds) != 2 {
		t.Fatalf("got %v, want [decommission ring-up]", actionsOf(ds))
	}
	if ds[0].Action != ActionDecommission || ds[1].Action != ActionRingUp {
		t.Fatalf("got %v, want [decommission ring-up]", actionsOf(ds))
	}
	for _, d := range ds {
		if !d.DryRun {
			t.Fatalf("decision %s not marked dry-run", d.Action)
		}
	}
	// Nothing moved.
	if env.c.P() != 2 {
		t.Fatalf("dry run changed p to %d", env.c.P())
	}
	if got := env.c.Quarantined(); len(got) != 1 {
		t.Fatalf("dry run decommissioned the node: %v", got)
	}
	found := false
	for _, ni := range env.c.View().Nodes {
		if ni.ID == int(victim) {
			found = true
		}
		if ni.Ring == 1 {
			t.Fatal("dry run powered ring 1 up")
		}
	}
	if !found {
		t.Fatal("dry run removed the quarantined node from the view")
	}
	if got := env.c.Epoch(); got != epochAfterQuarantine {
		t.Fatalf("dry run moved the epoch %d → %d", epoch, got)
	}
	if len(a.Decisions()) != 2 {
		t.Fatalf("decision log has %d entries, want 2", len(a.Decisions()))
	}
}
