// Autonomic elasticity controller (§4.5, §4.9.1, §6.3 as a live
// admission gate): the closed loop that turns the coordinator's
// reconfiguration *mechanisms* — ChangeP, SetRingEnabled, Decommission —
// into *policy*. Frontends already push the telemetry (shed counts per
// priority, admission-queue waits, hedge-budget denials, per-node
// latency digests, queue depths) inside their periodic HealthReports;
// the controller folds those into one scalar fleet pressure and, with
// hysteresis and cooldown windows, decides to:
//
//   - power rings up and down for diurnal load (§4.9.1): a disabled
//     ring's nodes kept their ranges and data, so re-enabling is a
//     delta push, and enabling one roughly doubles serving capacity;
//   - step the partitioning level p down (more replication, fewer
//     sub-queries per query, less fixed overhead — Badue et al.'s
//     capacity-planning direction under sustained load) when the §6.3
//     reconfiguration-cost model says the data movement amortizes, and
//     back up toward its baseline when pressure clears (free: nodes
//     trim replicas in their own time, §4.5);
//   - auto-Decommission nodes stuck in quarantine beyond a deadline —
//     the explicit removal path the health loop deliberately does not
//     take on its own.
//
// Every decision is recorded (and optionally logged); dry-run mode
// records without acting, so an operator can watch what the controller
// *would* do before handing it the keys.
package membership

import (
	"context"
	"fmt"
	"sync"
	"time"

	"roar/internal/clock"
	"roar/internal/sim"
)

// AutoscaleAction names one controller decision type.
type AutoscaleAction string

const (
	// ActionRingUp / ActionRingDown power a ring on or off (§4.9.1).
	ActionRingUp   AutoscaleAction = "ring-up"
	ActionRingDown AutoscaleAction = "ring-down"
	// ActionPDown lowers p (grow replication arcs — data moves), and
	// ActionPUp restores it toward the baseline (free trim).
	ActionPDown AutoscaleAction = "p-down"
	ActionPUp   AutoscaleAction = "p-up"
	// ActionDecommission removes a node quarantined past the deadline.
	ActionDecommission AutoscaleAction = "decommission"
	// ActionHold records a considered-but-refused reconfiguration (cost
	// gate, no lever available) so refusals are observable.
	ActionHold AutoscaleAction = "hold"
)

// AutoscaleDecision is one recorded controller verdict.
type AutoscaleDecision struct {
	At       time.Time
	Action   AutoscaleAction
	Pressure float64
	// Ring is the affected ring (ring actions), Node the affected node
	// id (decommission), FromP/ToP the p transition (p actions).
	Ring       int
	Node       int
	FromP, ToP int
	Reason     string
	DryRun     bool
	Err        string // execution failure, if any
}

func (d AutoscaleDecision) String() string {
	s := fmt.Sprintf("%s (pressure %.2f): %s", d.Action, d.Pressure, d.Reason)
	if d.DryRun {
		s = "DRY-RUN " + s
	}
	if d.Err != "" {
		s += " [error: " + d.Err + "]"
	}
	return s
}

// AutoscaleConfig tunes the elasticity controller. Zero values take the
// documented defaults.
type AutoscaleConfig struct {
	// DryRun records and logs decisions without executing them.
	DryRun bool
	// Interval is the background evaluation cadence for Start; Step may
	// also be driven manually (tests, harnesses). Default 5s.
	Interval time.Duration

	// Pressure normalization: each telemetry stream contributes
	// observed/reference to the scalar fleet pressure, so a stream at
	// its reference level alone pushes pressure to 1.0. The other three
	// streams' references are the constants below.
	ShedRef  float64 // sheds (both classes) per tick; default 20
	DepthRef float64 // mean reported queue depth; default 8

	// HighPressure / LowPressure bound the dead band: pressure at or
	// above High for SustainTicks consecutive ticks scales up, at or
	// below Low for SustainTicks scales down, and anything between
	// resets both streaks (hysteresis — flapping across one boundary
	// never accumulates a streak). Defaults 1.0 / 0.25.
	HighPressure float64
	LowPressure  float64
	// SustainTicks is the consecutive-tick streak required before
	// acting. Default 3.
	SustainTicks int
	// Cooldown is the minimum time between reconfigurations, so one
	// pressure episode produces one measured response, not a volley.
	// Default 1 minute.
	Cooldown time.Duration

	// MinP bounds emergency p-down steps. Default 1.
	MinP int
	// CostGateFraction is the §6.3 admission gate on p-down: the move is
	// refused when the ROAR reconfiguration-cost model says more than
	// this many extra replica copies per stored object must be pushed
	// (1.0 = one full corpus copy). Default 1.0.
	CostGateFraction float64

	// QuarantineDeadline auto-Decommissions a node quarantined longer
	// than this. 0 disables auto-decommission.
	QuarantineDeadline time.Duration

	// Logf, when set, receives one line per recorded decision.
	Logf func(format string, args ...any)
}

// Pressure references of the streams no deployment tunes.
const (
	hedgeDeniedRef = 50.0                   // hedge-budget denials per tick
	queueWaitRef   = 100 * time.Millisecond // admission-wait p99
	nodeLatRef     = 500 * time.Millisecond // per-node latency p99
)

func (ac AutoscaleConfig) withDefaults() AutoscaleConfig {
	if ac.Interval <= 0 {
		ac.Interval = 5 * time.Second
	}
	if ac.ShedRef <= 0 {
		ac.ShedRef = 20
	}
	if ac.DepthRef <= 0 {
		ac.DepthRef = 8
	}
	if ac.HighPressure <= 0 {
		ac.HighPressure = 1.0
	}
	if ac.LowPressure <= 0 {
		ac.LowPressure = 0.25
	}
	if ac.SustainTicks <= 0 {
		ac.SustainTicks = 3
	}
	if ac.Cooldown <= 0 {
		ac.Cooldown = time.Minute
	}
	if ac.MinP <= 0 {
		ac.MinP = 1
	}
	if ac.CostGateFraction <= 0 {
		ac.CostGateFraction = 1.0
	}
	return ac
}

// maxDecisions bounds the retained decision log.
const maxDecisions = 256

// Autoscaler is the elasticity controller. Build with
// Coordinator.NewAutoscaler or Replica.NewAutoscaler; drive with Start
// (background loop) or Step (one evaluation).
type Autoscaler struct {
	// lead returns the coordinator each tick acts on. A replica's returns
	// an error on followers, so every replica can run an autoscaler
	// without three controllers fighting; the leader's decisions commit
	// to the decision log like any other reconfiguration.
	lead func() (*Coordinator, error)
	cfg  AutoscaleConfig
	clk  clock.Clock // the coordinator's Config.Clock
	// baselineP is the level p-up restores toward when pressure clears:
	// the p when the controller was built.
	baselineP int

	mu         sync.Mutex
	prev       FleetPressure // counter snapshot the next tick diffs against
	hiStreak   int
	loStreak   int
	lastAction time.Time
	decisions  []AutoscaleDecision

	stopOnce sync.Once
	stop     chan struct{}
	started  bool
}

// NewAutoscaler builds a controller bound to the coordinator. The
// telemetry counters are snapshotted now, so pressure accumulated
// before the controller existed is not charged to its first tick.
func (c *Coordinator) NewAutoscaler(cfg AutoscaleConfig) *Autoscaler {
	return newAutoscaler(func() (*Coordinator, error) { return c, nil }, c.P(), c.cfg.Clock, cfg)
}

func newAutoscaler(lead func() (*Coordinator, error), baselineP int, clk clock.Clock, cfg AutoscaleConfig) *Autoscaler {
	a := &Autoscaler{lead: lead, cfg: cfg.withDefaults(), clk: clk, baselineP: baselineP, stop: make(chan struct{})}
	if c, err := lead(); err == nil {
		a.prev = c.FleetPressure()
	}
	return a
}

// Start runs the evaluation loop on the configured interval until the
// context ends or Stop is called. Each tick's reconfiguration RPCs are
// scoped to ctx, so cancelling it aborts in-flight retain/drop traffic
// as well as the loop.
func (a *Autoscaler) Start(ctx context.Context) {
	a.mu.Lock()
	if a.started {
		a.mu.Unlock()
		return
	}
	a.started = true
	a.mu.Unlock()
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-a.stop:
				return
			case <-clock.After(a.clk, a.cfg.Interval):
				a.Step(ctx)
			}
		}
	}()
}

// Stop ends the background loop (idempotent; Step remains usable).
func (a *Autoscaler) Stop() { a.stopOnce.Do(func() { close(a.stop) }) }

// Decisions returns the recorded decision log, oldest first.
func (a *Autoscaler) Decisions() []AutoscaleDecision {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]AutoscaleDecision(nil), a.decisions...)
}

func (a *Autoscaler) record(d AutoscaleDecision) {
	a.decisions = append(a.decisions, d)
	if len(a.decisions) > maxDecisions {
		a.decisions = a.decisions[len(a.decisions)-maxDecisions:]
	}
	if a.cfg.Logf != nil {
		a.cfg.Logf("autoscale: %s", d)
	}
}

// Pressure computes the current scalar fleet pressure from a telemetry
// snapshot and the per-tick counter deltas. Exposed for observability;
// Step uses the same formula.
func (a *Autoscaler) pressure(fp FleetPressure, prev FleetPressure) float64 {
	dShed := float64(fp.ShedLow - prev.ShedLow + fp.ShedNormal - prev.ShedNormal)
	dDenied := float64(fp.HedgeDenied - prev.HedgeDenied)
	p := dShed/a.cfg.ShedRef +
		dDenied/hedgeDeniedRef +
		fp.MeanQueueDepth/a.cfg.DepthRef +
		float64(fp.QueueWaitP99)/float64(queueWaitRef) +
		float64(fp.NodeLatP99)/float64(nodeLatRef)
	return p
}

// ringPowerState snapshots ring indices by power state, counting only
// rings that actually hold nodes (an empty ring is not capacity).
func (c *Coordinator) ringPowerState() (disabled, enabled []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, r := range c.rings {
		if r.Len() == 0 {
			continue
		}
		if c.disabled[k] {
			disabled = append(disabled, k)
		} else {
			enabled = append(enabled, k)
		}
	}
	return disabled, enabled
}

// Step runs one control evaluation: refresh telemetry, update the
// hysteresis streaks, and execute (or dry-run) at most one capacity
// action plus any overdue quarantine decommissions. It returns the
// decisions recorded this tick.
func (a *Autoscaler) Step(ctx context.Context) []AutoscaleDecision {
	// On a replicated control plane only the lease holder acts; follower
	// controllers stay silent rather than recording decisions they have
	// no authority (or telemetry) to make.
	c, err := a.lead()
	if err != nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.clk.Now()
	fp := c.FleetPressure()
	press := a.pressure(fp, a.prev)
	a.prev = fp
	var out []AutoscaleDecision
	emit := func(d AutoscaleDecision) {
		d.At, d.Pressure, d.DryRun = now, press, a.cfg.DryRun
		a.record(d)
		out = append(out, d)
	}

	// Quarantine-deadline decommissions run regardless of pressure and
	// cooldown: a node the health loop gave up on is not a capacity
	// decision, it is garbage collection of the topology.
	if a.cfg.QuarantineDeadline > 0 {
		for _, qi := range fp.Quarantined {
			held := now.Sub(qi.Since)
			if held < a.cfg.QuarantineDeadline {
				continue
			}
			d := AutoscaleDecision{
				Action: ActionDecommission, Node: int(qi.ID),
				Reason: fmt.Sprintf("node %d quarantined %v ≥ deadline %v", qi.ID, held.Round(time.Millisecond), a.cfg.QuarantineDeadline),
			}
			if !a.cfg.DryRun {
				if err := c.Decommission(ctx, qi.ID); err != nil {
					d.Err = err.Error()
				}
			}
			emit(d)
		}
	}

	// Hysteresis: only an unbroken streak on one side of the dead band
	// accumulates; touching the band resets both streaks.
	switch {
	case press >= a.cfg.HighPressure:
		a.hiStreak++
		a.loStreak = 0
	case press <= a.cfg.LowPressure:
		a.loStreak++
		a.hiStreak = 0
	default:
		a.hiStreak, a.loStreak = 0, 0
	}
	inCooldown := !a.lastAction.IsZero() && now.Sub(a.lastAction) < a.cfg.Cooldown

	// apply handles one lever verdict. Only a SUCCESSFUL action (or its
	// dry-run equivalent) consumes the cooldown and resets the streaks:
	// a lever that errored added no capacity, so the controller retries
	// on the next tick instead of sitting out a cooldown it never spent.
	// Refusals (cost gate, no lever) are recorded once per sustained
	// episode — the streak keeps growing past SustainTicks, so emitting
	// only at the threshold crossing keeps the decision log and the
	// operator's log free of tick-rate repeats.
	apply := func(d AutoscaleDecision, acted bool, streak int) {
		switch {
		case acted && d.Err == "":
			a.lastAction = now
			a.hiStreak, a.loStreak = 0, 0
			emit(d)
		case acted:
			emit(d) // executed and failed: visible, but no cooldown spent
		case d.Action != "" && streak == a.cfg.SustainTicks:
			emit(d) // refusal, logged at the episode's first eligible tick
		}
	}
	switch {
	case a.hiStreak >= a.cfg.SustainTicks && !inCooldown:
		d, acted := a.scaleUp(ctx, c)
		apply(d, acted, a.hiStreak)
	case a.loStreak >= a.cfg.SustainTicks && !inCooldown:
		d, acted := a.scaleDown(ctx, c)
		apply(d, acted, a.loStreak)
	}
	return out
}

// scaleUp picks the cheapest capacity lever: power up a ring that holds
// nodes, else step p down under the §6.3 cost gate. acted reports
// whether a reconfiguration ran (or would have, in dry-run); a decision
// with acted=false and a non-empty Action is a recorded refusal.
func (a *Autoscaler) scaleUp(ctx context.Context, c *Coordinator) (AutoscaleDecision, bool) {
	disabled, enabled := c.ringPowerState()
	if len(disabled) > 0 {
		k := disabled[0]
		d := AutoscaleDecision{
			Action: ActionRingUp, Ring: k,
			Reason: fmt.Sprintf("sustained high pressure; powering ring %d up (%d rings were serving)", k, len(enabled)),
		}
		if !a.cfg.DryRun {
			if err := c.SetRingEnabled(ctx, k, true); err != nil {
				d.Err = err.Error()
			}
		}
		return d, true
	}
	p := c.P()
	if p-1 < a.cfg.MinP {
		return AutoscaleDecision{
			Action: ActionHold, FromP: p, ToP: p,
			Reason: fmt.Sprintf("high pressure but no lever: all rings serving, p already at floor %d", a.cfg.MinP),
		}, false
	}
	n := len(c.serving()) // the n of the live cost model
	frac, _, err := sim.ReconfigurationCost(n, p, p-1)
	if err != nil {
		return AutoscaleDecision{
			Action: ActionHold, FromP: p, ToP: p - 1,
			Reason: fmt.Sprintf("cost model rejected p %d→%d with n=%d: %v", p, p-1, n, err),
		}, false
	}
	if frac > a.cfg.CostGateFraction {
		return AutoscaleDecision{
			Action: ActionHold, FromP: p, ToP: p - 1,
			Reason: fmt.Sprintf("cost gate: p %d→%d moves %.2f corpus copies > budget %.2f", p, p-1, frac, a.cfg.CostGateFraction),
		}, false
	}
	d := AutoscaleDecision{
		Action: ActionPDown, FromP: p, ToP: p - 1,
		Reason: fmt.Sprintf("sustained high pressure; p %d→%d cuts per-query fan-out (move cost %.2f ≤ %.2f)", p, p-1, frac, a.cfg.CostGateFraction),
	}
	if !a.cfg.DryRun {
		if err := c.ChangeP(ctx, p-1); err != nil {
			d.Err = err.Error()
		}
	}
	return d, true
}

// scaleDown undoes emergency capacity in reverse preference: restore p
// toward its baseline first (free — nodes trim replicas), then power a
// ring down for diurnal savings (never the last one; SetRingEnabled
// enforces that independently).
func (a *Autoscaler) scaleDown(ctx context.Context, c *Coordinator) (AutoscaleDecision, bool) {
	p := c.P()
	if p < a.baselineP {
		d := AutoscaleDecision{
			Action: ActionPUp, FromP: p, ToP: p + 1,
			Reason: fmt.Sprintf("pressure cleared; restoring p %d→%d toward baseline %d (replica trim is free)", p, p+1, a.baselineP),
		}
		if !a.cfg.DryRun {
			if err := c.ChangeP(ctx, p+1); err != nil {
				d.Err = err.Error()
			}
		}
		return d, true
	}
	_, enabled := c.ringPowerState()
	if len(enabled) > 1 {
		k := enabled[len(enabled)-1]
		d := AutoscaleDecision{
			Action: ActionRingDown, Ring: k,
			Reason: fmt.Sprintf("sustained low pressure; powering ring %d down (%d rings serving)", k, len(enabled)),
		}
		if !a.cfg.DryRun {
			if err := c.SetRingEnabled(ctx, k, false); err != nil {
				d.Err = err.Error()
			}
		}
		return d, true
	}
	return AutoscaleDecision{}, false // nothing to give back: stay quiet
}
