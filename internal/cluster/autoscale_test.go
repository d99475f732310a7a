package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roar/internal/clock"
	"roar/internal/frontend"
	"roar/internal/membership"
)

// Elasticity end-to-end test: the autonomic controller closes the loop
// a human drives today. Under a sustained load ramp it powers the
// standby ring up (shed rate falls, result id sets stay identical to
// the healthy baseline throughout); a node killed and quarantined past
// the deadline is auto-decommissioned; and when the load drops the
// standby ring is powered back down. The control plane runs on a
// clock.Fake, so cooldowns and the quarantine deadline advance
// deterministically; the frontend and the nodes run on real time.

func TestClusterAutoscaleElasticity(t *testing.T) {
	if testing.Short() {
		t.Skip("elasticity e2e is not short")
	}
	const (
		nodes        = 8
		rings        = 2
		p            = 2
		workers      = 20 // closed-loop background load
		shedHW       = 5  // mean reported depth triggering overload
		probesPerTck = 4
		sustainTicks = 2
	)
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	c, err := start(Options{
		Nodes: nodes, Rings: rings, P: p, Seed: 17,
		FixedQueryCost: 4 * time.Millisecond,
		Frontend: frontend.Config{
			Name:            "fe-0",
			SubQueryTimeout: 150 * time.Millisecond,
			ProbeInterval:   25 * time.Millisecond,
			ShedHighWater:   shedHW,
		},
		Health: membership.HealthConfig{QuarantineThreshold: 2},
		Autoscale: &membership.AutoscaleConfig{
			ShedRef:      1,    // one shed per tick is already pressure 1.0
			DepthRef:     1000, // de-emphasize the noisy depth gauge
			HighPressure: 1, LowPressure: 0.25,
			SustainTicks:       sustainTicks,
			Cooldown:           time.Minute,
			QuarantineDeadline: 30 * time.Second,
			Logf:               t.Logf,
		},
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want, q := chaosCorpus(t, c)
	ctx := context.Background()

	// The standby ring starts powered down: half the fleet is dark.
	if err := c.SetRingEnabled(ctx, 1, false); err != nil {
		t.Fatal(err)
	}
	if got := len(c.FE.View().Nodes); got != nodes/2 {
		t.Fatalf("standby ring disabled but view has %d nodes", got)
	}

	// Static reference run (no controller involvement yet): every later
	// id set must equal this one.
	res, err := c.FE.Query(ctx, frontend.QuerySpec{Enc: q})
	if err != nil {
		t.Fatal(err)
	}
	checkIDSet(t, res, want, "static reference")

	// Background closed-loop load at PriorityNormal; every result is
	// checked against the reference set.
	var loadErr atomic.Value
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := c.FE.Query(ctx, frontend.QuerySpec{Enc: q})
				if err != nil {
					loadErr.CompareAndSwap(nil, err)
					return
				}
				if len(res.IDs) != len(want) {
					loadErr.CompareAndSwap(nil, errors.New("background query id set diverged"))
					return
				}
			}
		}()
	}
	checkLoad := func(phase string) {
		t.Helper()
		if e := loadErr.Load(); e != nil {
			t.Fatalf("%s: background load failed: %v", phase, e)
		}
	}
	// probeSheds fires n sequential PriorityLow probes and reports how
	// many were shed; successes are checked against the reference.
	probeSheds := func(n int, phase string) int {
		t.Helper()
		shed := 0
		for i := 0; i < n; i++ {
			res, err := c.FE.Query(ctx, frontend.QuerySpec{Enc: q, Priority: frontend.PriorityLow})
			switch {
			case errors.Is(err, frontend.ErrShed):
				shed++
			case err != nil:
				t.Fatalf("%s: low-priority probe: %v", phase, err)
			default:
				checkIDSet(t, res, want, phase)
			}
			time.Sleep(5 * time.Millisecond)
		}
		return shed
	}

	// --- Phase A: load ramp → the controller powers the ring up. ---
	time.Sleep(100 * time.Millisecond) // let depth gauges fill
	rampSheds, rampProbes, rangUp := 0, 0, false
	for tick := 0; tick < 40 && !rangUp; tick++ {
		rampSheds += probeSheds(probesPerTck, "during ramp")
		rampProbes += probesPerTck
		c.PumpHealth()
		clk.Advance(time.Second)
		ds, err := c.StepAutoscale(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			if d.Action == membership.ActionRingUp {
				rangUp = true
			}
		}
		checkLoad("ramp")
	}
	if !rangUp {
		t.Fatalf("controller never powered the standby ring up (sheds %d/%d, pressure telemetry %+v)",
			rampSheds, rampProbes, c.Coord.FleetPressure())
	}
	if rampSheds == 0 {
		t.Fatal("ramp produced no sheds; the overload signal never engaged")
	}
	if got := len(c.FE.View().Nodes); got != nodes {
		t.Fatalf("after ring-up the view has %d nodes, want %d", got, nodes)
	}

	// --- Shed rate falls with the doubled capacity, same offered load. ---
	time.Sleep(150 * time.Millisecond) // fresh nodes absorb their share
	afterProbes := 20
	afterSheds := probeSheds(afterProbes, "after ring-up")
	rampRate := float64(rampSheds) / float64(rampProbes)
	afterRate := float64(afterSheds) / float64(afterProbes)
	t.Logf("shed rate: ramp %.2f (%d/%d) → after ring-up %.2f (%d/%d)",
		rampRate, rampSheds, rampProbes, afterRate, afterSheds, afterProbes)
	if afterRate >= rampRate {
		t.Fatalf("shed rate did not fall after ring-up: %.2f → %.2f", rampRate, afterRate)
	}
	checkLoad("after ring-up")

	// --- Phase B: kill a node (load still running, so the depth-driven
	// scheduler keeps exercising the whole fleet); the health loop
	// quarantines it, the controller decommissions it once the deadline
	// passes. ---
	var killIdx int
	killRing := map[int]int{}
	for _, ni := range c.Coord.View().Nodes {
		killRing[ni.ID] = ni.Ring
	}
	for i, id := range c.ids {
		if killRing[int(id)] == 0 {
			killIdx = i
			break
		}
	}
	killID := int(c.ids[killIdx])
	if err := c.KillNode(killIdx); err != nil {
		t.Fatal(err)
	}
	quarantined := func() bool {
		for _, qid := range c.Coord.Quarantined() {
			if qid == killID {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(15 * time.Second)
	for !quarantined() {
		if time.Now().After(deadline) {
			t.Fatalf("node %d never quarantined; score %.1f", killID, c.Coord.HealthScore(c.ids[killIdx]))
		}
		res, err := c.FE.Query(ctx, frontend.QuerySpec{Enc: q})
		if err != nil {
			t.Fatalf("query during failure accumulation: %v", err)
		}
		checkIDSet(t, res, want, "during suspicion")
		c.PumpHealth()
	}
	// Deadline not yet reached: stepping must NOT decommission.
	ds, err := c.StepAutoscale(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if d.Action == membership.ActionDecommission {
			t.Fatalf("decommissioned before the deadline: %+v", d)
		}
	}
	clk.Advance(45 * time.Second) // past the 30s quarantine deadline
	ds, err = c.StepAutoscale(ctx)
	if err != nil {
		t.Fatal(err)
	}
	decommissioned := false
	for _, d := range ds {
		if d.Action == membership.ActionDecommission && d.Node == killID {
			decommissioned = true
			if d.Err != "" {
				t.Fatalf("auto-decommission failed: %s", d.Err)
			}
		}
	}
	if !decommissioned {
		t.Fatalf("no auto-decommission past the deadline; decisions %+v, quarantined %v",
			ds, c.Coord.Quarantined())
	}
	for _, ni := range c.FE.View().Nodes {
		if ni.ID == killID {
			t.Fatal("decommissioned node still in the frontend's view")
		}
	}
	res, err = c.FE.Query(ctx, frontend.QuerySpec{Enc: q})
	if err != nil {
		t.Fatal(err)
	}
	checkIDSet(t, res, want, "after decommission")

	// --- Load drop. ---
	close(stop)
	wg.Wait()
	checkLoad("load stopped")

	// --- Phase C: with pressure gone and the cooldown elapsed, the
	// standby ring is powered back down (diurnal scale-down). ---
	clk.Advance(2 * time.Minute)
	rangDown := false
	for tick := 0; tick < sustainTicks+2 && !rangDown; tick++ {
		c.PumpHealth()
		clk.Advance(time.Second)
		ds, err := c.StepAutoscale(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			if d.Action == membership.ActionRingDown {
				rangDown = true
			}
		}
	}
	if !rangDown {
		t.Fatalf("controller never powered the standby ring down; decisions %+v", c.AS.Decisions())
	}
	for _, ni := range c.FE.View().Nodes {
		if ni.Ring == 1 {
			t.Fatal("ring 1 still serving after ring-down")
		}
	}
	res, err = c.FE.Query(ctx, frontend.QuerySpec{Enc: q})
	if err != nil {
		t.Fatal(err)
	}
	checkIDSet(t, res, want, "after ring-down")
	t.Logf("elasticity loop closed: ramp → ring-up → shed fell (%.2f→%.2f) → quarantine → auto-decommission → ring-down",
		rampRate, afterRate)
}
