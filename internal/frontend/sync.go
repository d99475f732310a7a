// Coordinator synchronisation: the frontend's half of the §4.9 control
// loop, factored out of the command binary so it can run against a
// single coordinator (wire.Client) or a replicated control plane
// (coordclient.Client) unchanged — MemberCaller is the only coupling.
//
// The Syncer owns two cadences: view pulls (install the cluster map,
// fenced by ApplyView on (Term, Epoch)) and health pushes (ship the
// destructively-snapshotted observation deltas). A health push that
// fails for ANY reason re-credits the report, so evidence is never lost
// to a flaky control plane.
package frontend

import (
	"context"
	"fmt"
	"sync"
	"time"

	"roar/internal/clock"
	"roar/internal/pps"
	"roar/internal/proto"
)

// MemberCaller is the coordinator transport: satisfied by wire.Client
// (one coordinator) and coordclient.Client (replicated, failover).
type MemberCaller interface {
	Call(ctx context.Context, method string, in, out interface{}) error
}

// SyncConfig tunes a Syncer. Zero values take the documented defaults.
type SyncConfig struct {
	// Poll is the view refresh cadence. Default 1s.
	Poll time.Duration
	// HealthInterval is the health report push cadence. Default 1s.
	HealthInterval time.Duration
	// Logf, when set, receives one line per rejected view refresh.
	Logf func(format string, args ...any)
}

func (sc SyncConfig) withDefaults() SyncConfig {
	if sc.Poll <= 0 {
		sc.Poll = time.Second
	}
	if sc.HealthInterval <= 0 {
		sc.HealthInterval = time.Second
	}
	return sc
}

// Syncer keeps one frontend synchronised with the control plane.
type Syncer struct {
	fe  *Frontend
	mc  MemberCaller
	cfg SyncConfig

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewSyncer binds a frontend to its coordinator transport, and installs
// the coordinator's log, read over member.drained, as the frontend's
// drained-record source.
func NewSyncer(fe *Frontend, mc MemberCaller, cfg SyncConfig) *Syncer {
	fe.setDrainSource(memberDrained{mc})
	return &Syncer{fe: fe, mc: mc, cfg: cfg.withDefaults(), stop: make(chan struct{})}
}

// memberDrained is a DrainSource that asks the coordinator. A
// coordinator that does not serve member.drained answers
// wire.UnknownMethodError, which the frontend takes as a gap.
type memberDrained struct{ mc MemberCaller }

func (m memberDrained) DrainedSince(ctx context.Context, after uint64, max int) ([]pps.Encoded, error) {
	var resp proto.DrainedResp
	if err := m.mc.Call(ctx, proto.MMemberDrained, proto.DrainedReq{After: after, Max: max}, &resp); err != nil {
		return nil, err
	}
	return resp.Records, nil
}

func (s *Syncer) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// pullView fetches the coordinator's current view and installs it.
// An empty view (membership has no nodes yet) and a stale view
// (ErrStaleView — a deposed leader answered) both error without
// changing the installed view.
func (s *Syncer) pullView(ctx context.Context) error {
	var v proto.View
	if err := s.mc.Call(ctx, proto.MMemberView, nil, &v); err != nil {
		return err
	}
	if len(v.Nodes) == 0 {
		return fmt.Errorf("frontend: membership has no nodes yet")
	}
	return s.fe.ApplyView(v)
}

// Poll fetches the coordinator's view and installs it only when its
// (Term, Epoch) moved, so polling does not rebuild placements for
// identical views or reset local suspicion. A view with the installed
// (Term, Epoch) still carries the drained watermark, which a drain moves
// without an epoch bump: that goes to ObserveIngest, once the records up
// to it are read into the cache's window (Frontend.readAhead), so the
// hits that follow patch their entries instead of dropping them. The
// poll loop runs it on every tick; an empty view installs nothing.
func (s *Syncer) Poll(ctx context.Context) error {
	var v proto.View
	if err := s.mc.Call(ctx, proto.MMemberView, nil, &v); err != nil {
		return err
	}
	s.fe.readAhead(ctx, v.Drained)
	installed := s.fe.View()
	if v.Epoch == installed.Epoch && v.Term == installed.Term {
		s.fe.ObserveIngest(0, v.Drained)
		return nil
	}
	if len(v.Nodes) == 0 {
		return nil
	}
	if err := s.fe.ApplyView(v); err != nil {
		s.logf("frontend: view refresh rejected: %v", err)
		return err
	}
	return nil
}

// WaitFirstView retries pullView on a one-second cadence until a
// usable view installs, attempts runs out, or ctx ends.
func (s *Syncer) WaitFirstView(ctx context.Context, attempts int) error {
	var err error
	for i := 0; i < attempts; i++ {
		if err = s.pullView(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.stop:
			return fmt.Errorf("frontend: syncer stopped: %w", err)
		case <-clock.After(s.fe.cfg.Clock, time.Second):
		}
	}
	return fmt.Errorf("frontend: no usable view after %d attempts: %w", attempts, err)
}

// Ingest forwards a client write batch to the coordinator's durable
// ingest WAL (member.ingest) — the frontend's async put path. The reply
// acknowledges durability; delivery to the owning nodes is asynchronous
// (poll IngestResp.Drained against Seq when delivery matters). The
// coordclient transport retries NotLeader redirects, so a failover
// mid-append surfaces here only as a retriable error — record-ID dedup
// makes the producer-side retry safe.
func (s *Syncer) Ingest(ctx context.Context, recs []pps.Encoded) (proto.IngestResp, error) {
	var resp proto.IngestResp
	if err := s.mc.Call(ctx, proto.MMemberIngest, proto.IngestReq{Records: recs}, &resp); err != nil {
		return proto.IngestResp{}, err
	}
	// The ack carries the drained watermark too: the cache learns of an
	// advance ahead of the next view poll.
	s.fe.ObserveIngest(resp.Seq, resp.Drained)
	return resp, nil
}

// PushHealthOnce ships one health report. When the coordinator's reply
// names an epoch other than the installed view's (a quarantine or
// recovery just published — or a new leader took over), the view is
// re-pulled immediately rather than waiting out the poll timer.
//
// Any failure re-credits the snapshotted report: the counters are
// deltas, and dropping them exactly when the control plane is flaky
// (transport error, failover in progress, a rejecting coordinator)
// would silence failure evidence when it matters most.
func (s *Syncer) PushHealthOnce(ctx context.Context) error {
	rep := s.fe.HealthReport()
	var hr proto.HealthResp
	if err := s.mc.Call(ctx, proto.MMemberHealth, rep, &hr); err != nil {
		s.fe.RestoreHealthReport(rep)
		return err
	}
	if hr.Epoch != s.fe.View().Epoch {
		_ = s.Poll(ctx)
	}
	return nil
}

// Start launches the view-poll and health-push loops; ctx scopes their
// RPCs and cancelling it (or calling Stop) halts both.
func (s *Syncer) Start(ctx context.Context) {
	s.wg.Add(2)
	go s.every(ctx, s.cfg.Poll, s.Poll)
	go s.every(ctx, s.cfg.HealthInterval, s.PushHealthOnce)
}

// every runs fn every d on the frontend's clock until ctx ends or the
// Syncer stops.
func (s *Syncer) every(ctx context.Context, d time.Duration, fn func(context.Context) error) {
	defer s.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.stop:
			return
		case <-clock.After(s.fe.cfg.Clock, d):
			_ = fn(ctx)
		}
	}
}

// Stop halts the loops (idempotent) and waits for them to exit.
func (s *Syncer) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}
