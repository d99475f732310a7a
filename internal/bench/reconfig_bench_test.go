package bench

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"roar/internal/frontend"
	"roar/internal/pps"
	"roar/internal/stats"
	"roar/internal/workload"
)

// errIDSetDiverged flags a query whose result set changed size across
// the live reconfiguration — the §4.5 safety violation.
var errIDSetDiverged = errors.New("bench: id set diverged across live ChangeP")

// Reconfiguration-under-load benchmark (§4.5's headline claim as a
// number CI tracks): closed-loop clients hammer the cluster while the
// coordinator performs a live ChangeP — the p-down direction, the one
// that moves data — and the run reports sustained queries/s and p99
// across the whole window, including the transition. The id-set check
// pins the §4.5 safety property: no query observes a partial level.

const (
	reconfigNodes   = 8
	reconfigP       = 4 // stepped down to 3 mid-run
	reconfigCorpus  = 400
	reconfigClients = 32
)

// reconfigRun drives load for dur with a ChangeP(p-1) fired at dur/3,
// returning queries/s and the delay sample.
func reconfigRun(dur time.Duration) (float64, *stats.Sample, error) {
	c, docs, err := benchCluster(reconfigNodes, reconfigP, reconfigCorpus,
		workload.UniformSpeeds(reconfigNodes, 150000),
		frontend.Config{PoolSize: 4}, 2*time.Millisecond)
	if err != nil {
		return 0, nil, err
	}
	defer c.Close()
	q, err := slimEncoder.EncryptQuery(pps.And,
		pps.Predicate{Kind: pps.Keyword, Word: popularWord(docs)})
	if err != nil {
		return 0, nil, err
	}
	// Warm pools and speed EWMAs out of band, and capture the reference
	// id-set size.
	ref, err := c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q})
	if err != nil {
		return 0, nil, err
	}
	wantIDs := len(ref.IDs)

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		total   int
		delays  = stats.NewSample(1024)
		firstEr error
	)
	deadline := time.Now().Add(dur)
	for w := 0; w < reconfigClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				res, err := c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q})
				mu.Lock()
				if err == nil && len(res.IDs) != wantIDs {
					err = errIDSetDiverged
				}
				if err != nil {
					if firstEr == nil {
						firstEr = err
					}
					mu.Unlock()
					return
				}
				total++
				delays.Add(res.Delay.Seconds())
				mu.Unlock()
			}
		}()
	}
	// The live reconfiguration, mid-window: p-down grows every node's
	// replica arc, so the coordinator is pushing data while the workers
	// above keep querying.
	time.Sleep(dur / 3)
	if err := c.Coord.ChangeP(context.Background(), reconfigP-1); err != nil {
		mu.Lock()
		if firstEr == nil {
			firstEr = err
		}
		mu.Unlock()
	}
	_ = c.SyncView()
	wg.Wait()
	if firstEr != nil {
		return 0, nil, firstEr
	}
	return float64(total) / dur.Seconds(), delays, nil
}

// BenchmarkReconfigUnderLoad reports sustained queries/s and p99 across
// a live ChangeP (4→3) under 32 closed-loop clients.
func BenchmarkReconfigUnderLoad(b *testing.B) {
	var qps, p99 float64
	for i := 0; i < b.N; i++ {
		r, delays, err := reconfigRun(900 * time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		qps += r
		p99 += delays.Percentile(99)
	}
	b.ReportMetric(qps/float64(b.N), "queries/s")
	b.ReportMetric(p99/float64(b.N)*1000, "p99-ms")
}

// TestReconfigUnderLoadKeepsResults is the correctness side of the
// benchmark at test scale: every query across the live ChangeP returns
// the reference id set.
func TestReconfigUnderLoadKeepsResults(t *testing.T) {
	if testing.Short() {
		t.Skip("reconfiguration-under-load e2e is not short")
	}
	if _, _, err := reconfigRun(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
}
