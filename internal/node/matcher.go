package node

import (
	"context"
	"errors"
	"time"

	"roar/internal/index"
	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/ring"
	"roar/internal/store"
)

// Matcher is the node's pluggable data plane: given a sub-query and its
// duplicate-avoidance arc (lo, hi], return the matching record ids
// (ascending), the amount of work examined (records scanned, or the
// posting entries the index examined inside the arc's ordinal windows:
// entries visited plus probes of the other terms' postings, which a
// Limit cut stops short — the unit the stats and speed estimators
// consume), and any error. The ring/hedge/quarantine/autoscale machinery above is
// oblivious to which engine answers; it sees only ids and scanned work.
//
// Two implementations ship: the PPS encrypted scan over the record
// store (the paper's workload) and the plaintext roaring-bitmap index
// (internal/index). A request selects the plane via QueryReq.Plain.
type Matcher interface {
	MatchArc(ctx context.Context, req proto.QueryReq, lo, hi ring.Point) (ids []uint64, scanned int, err error)
}

// ErrNoIndex rejects plaintext queries on nodes that were not started
// with an index attached.
var ErrNoIndex = errors.New("node: no plaintext index configured")

// storeMatcher is the encrypted data plane: the §5.6.3 producer/consumer
// pipeline over the sorted record store, optionally throttled to emulate
// a calibrated hardware profile. A request that sets QueryMemo or
// QueryMemoRefill goes through the store's match memo, which runs the
// same pipeline over only the ring buckets it cannot answer from memory.
type storeMatcher struct {
	store         *store.Store
	matcher       *pps.Matcher
	threads       int
	objectsPerSec float64
}

func (sm *storeMatcher) MatchArc(ctx context.Context, req proto.QueryReq, lo, hi ring.Point) ([]uint64, int, error) {
	opts := store.MatchOptions{Threads: sm.threads}
	if sm.objectsPerSec > 0 {
		perSec := sm.objectsPerSec
		opts.Limiter = func(ctx context.Context, k int) error {
			// The emulated scan time must abort the moment the caller
			// cancels (hedge loss, client deadline): a cancelled sub-query
			// sleeping out its throttle would hold the matching thread
			// exactly when the frontend has already re-dispatched the work.
			t := time.NewTimer(time.Duration(float64(k) / perSec * float64(time.Second)))
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	if req.Flags&(proto.QueryMemo|proto.QueryMemoRefill) != 0 {
		refill := req.Flags&proto.QueryMemoRefill != 0
		return sm.store.MatchArcMemo(ctx, sm.matcher, req.Q, lo, hi, opts, refill)
	}
	return sm.store.MatchArc(ctx, sm.matcher, req.Q, lo, hi, opts)
}

// indexMatcher is the plaintext data plane: roaring-bitmap posting
// lists behind the memory-budgeted segment cache. The ring arc converts
// to id space through the same IDOf the store's arc walk uses, so both
// planes agree on which records a sub-query owns.
type indexMatcher struct {
	ix *index.Index
}

func (im *indexMatcher) MatchArc(ctx context.Context, req proto.QueryReq, lo, hi ring.Point) ([]uint64, int, error) {
	q := index.Query{
		Terms:    req.Plain.Terms,
		Mode:     index.Mode(req.Plain.Mode),
		MinMatch: req.Plain.MinMatch,
		Limit:    req.Plain.Limit,
	}
	full := ring.MatchSpan(lo, hi) >= 1
	return im.ix.SearchArc(ctx, q, store.IDOf(lo), store.IDOf(hi), full)
}
