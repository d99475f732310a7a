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
	// After injects the loop timer (tests). Nil means real time.
	After func(time.Duration) <-chan time.Time
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
	if sc.After == nil {
		sc.After = time.After //lint:allow wallclock — clock-injection default
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

// NewSyncer binds a frontend to its coordinator transport.
func NewSyncer(fe *Frontend, mc MemberCaller, cfg SyncConfig) *Syncer {
	return &Syncer{fe: fe, mc: mc, cfg: cfg.withDefaults(), stop: make(chan struct{})}
}

func (s *Syncer) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// PullViewOnce fetches the coordinator's current view and installs it.
// An empty view (membership has no nodes yet) and a stale view
// (ErrStaleView — a deposed leader answered) both error without
// changing the installed view.
func (s *Syncer) PullViewOnce(ctx context.Context) error {
	var v proto.View
	if err := s.mc.Call(ctx, proto.MMemberView, nil, &v); err != nil {
		return err
	}
	if len(v.Nodes) == 0 {
		return fmt.Errorf("frontend: membership has no nodes yet")
	}
	return s.fe.ApplyView(v)
}

// pullIfStale refreshes only when the coordinator's epoch moved, so the
// poll loop does not rebuild placements for identical views.
func (s *Syncer) pullIfStale(ctx context.Context) {
	var v proto.View
	if err := s.mc.Call(ctx, proto.MMemberView, nil, &v); err != nil {
		return
	}
	installed := s.fe.View()
	if (v.Epoch != installed.Epoch || v.Term != installed.Term) && len(v.Nodes) > 0 {
		if err := s.fe.ApplyView(v); err != nil {
			s.logf("frontend: view refresh rejected: %v", err)
		}
	}
}

// WaitFirstView retries PullViewOnce on a one-second cadence until a
// usable view installs, attempts runs out, or ctx ends.
func (s *Syncer) WaitFirstView(ctx context.Context, attempts int) error {
	var err error
	for i := 0; i < attempts; i++ {
		if err = s.PullViewOnce(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.stop:
			return fmt.Errorf("frontend: syncer stopped: %w", err)
		case <-s.cfg.After(time.Second):
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
	// A write acknowledged THROUGH this frontend invalidates its result
	// cache immediately — the tightest read-your-writes signal there
	// is, ahead of the next view poll carrying the same watermarks.
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
		s.pullIfStale(ctx)
	}
	return nil
}

// Start launches the view-poll and health-push loops; ctx scopes their
// RPCs and cancelling it (or calling Stop) halts both.
func (s *Syncer) Start(ctx context.Context) {
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		for {
			select {
			case <-ctx.Done():
				return
			case <-s.stop:
				return
			case <-s.cfg.After(s.cfg.Poll):
				s.pullIfStale(ctx)
			}
		}
	}()
	go func() {
		defer s.wg.Done()
		for {
			select {
			case <-ctx.Done():
				return
			case <-s.stop:
				return
			case <-s.cfg.After(s.cfg.HealthInterval):
				_ = s.PushHealthOnce(ctx)
			}
		}
	}()
}

// Stop halts the loops (idempotent) and waits for them to exit.
func (s *Syncer) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}
