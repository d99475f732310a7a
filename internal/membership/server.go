// Control-plane process: one coordinator, standalone or one replica of
// a replicated set, behind its member.* wire surface. roar-member and
// the cluster harness both build theirs with Serve, so the process a
// test starts is the one a deployment runs.
package membership

import (
	"fmt"
	"net"
	"sync"
	"time"

	"roar/internal/ingest"
	"roar/internal/wire"
)

// ServerConfig configures one control-plane process.
type ServerConfig struct {
	// Coordinator is the coordinator configuration. It names no WAL:
	// the process opens its log from WALDir.
	Coordinator Config
	// WALDir is the log directory every record enters through
	// (required). A replica set shares one.
	WALDir string
	// Ingest tunes the drain the coordinator runs.
	Ingest IngestConfig
	// Peers, when set, makes the process one replica of a replicated
	// control plane: it lists every replica's address, this one's
	// included. Empty means a standalone coordinator.
	Peers []string
	// Self is this replica's address in Peers. Default: the listener's.
	Self string
	// Lease, Heartbeat and OnIntentCommitted tune a replica (see
	// ReplicaConfig); a standalone coordinator ignores them.
	Lease             time.Duration
	Heartbeat         time.Duration
	OnIntentCommitted func(newP int)
	// Logf, when set, receives a replica's role transitions.
	Logf func(format string, args ...any)
}

// Server is one running control-plane process. Exactly one of Coord and
// Replica is set.
type Server struct {
	// Coord is the standalone coordinator; nil for a replica.
	Coord *Coordinator
	// Replica is the replica; nil for a standalone coordinator.
	Replica *Replica

	srv       *wire.Server
	closeOnce sync.Once
}

// Serve builds a control-plane process and serves it on ln, which it
// owns from then on. A standalone coordinator opens its log and starts
// its drain at once: there is no election to wait for. A replica opens
// the log on winning an election (ReplicaConfig.OpenWAL), and starts
// campaigning once it serves.
func Serve(ln net.Listener, cfg ServerConfig) (*Server, error) {
	s, err := build(ln.Addr().String(), cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	d := wire.NewDispatcher()
	if s.Replica != nil {
		s.Replica.RegisterHandlers(d)
	}
	RegisterHandlers(d, s.Lead)
	s.srv = wire.ServeListener(ln, d.Handle)
	if s.Replica != nil {
		s.Replica.Start()
	}
	return s, nil
}

func build(addr string, cfg ServerConfig) (*Server, error) {
	if cfg.WALDir == "" {
		return nil, fmt.Errorf("membership: a control-plane process needs a WAL directory")
	}
	openWAL := func() (*ingest.WAL, error) { return ingest.Open(cfg.WALDir, ingest.Options{}) }
	if len(cfg.Peers) > 0 {
		if cfg.Self == "" {
			cfg.Self = addr
		}
		rep, err := NewReplica(ReplicaConfig{
			Self:              cfg.Self,
			Peers:             cfg.Peers,
			Lease:             cfg.Lease,
			Heartbeat:         cfg.Heartbeat,
			Coordinator:       cfg.Coordinator,
			Ingest:            cfg.Ingest,
			OpenWAL:           openWAL,
			Logf:              cfg.Logf,
			OnIntentCommitted: cfg.OnIntentCommitted,
		})
		if err != nil {
			return nil, err
		}
		return &Server{Replica: rep}, nil
	}
	wal, err := openWAL()
	if err != nil {
		return nil, err
	}
	coordCfg := cfg.Coordinator
	coordCfg.WAL = wal
	coord, err := New(coordCfg)
	if err != nil {
		wal.Close()
		return nil, err
	}
	coord.StartIngest(cfg.Ingest)
	return &Server{Coord: coord}, nil
}

// Addr is the address the process serves on.
func (s *Server) Addr() string { return s.srv.Addr() }

// Lead returns the coordinator that answers the member.* surface: the
// standalone one, or the replica's while it leads (else a
// NotLeaderError).
func (s *Server) Lead() (*Coordinator, error) {
	if s.Replica != nil {
		return s.Replica.LeaderCoord()
	}
	return s.Coord, nil
}

// NewAutoscaler binds the elasticity controller to the process's
// coordinator; on a replica its ticks do nothing while it follows.
func (s *Server) NewAutoscaler(cfg AutoscaleConfig) *Autoscaler {
	if s.Replica != nil {
		return s.Replica.NewAutoscaler(cfg)
	}
	return s.Coord.NewAutoscaler(cfg)
}

// Close stops serving, then stops the replica or closes the coordinator
// (and with it the log). Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.srv.Close()
		if s.Replica != nil {
			s.Replica.Stop()
		} else {
			s.Coord.Close()
		}
	})
}
