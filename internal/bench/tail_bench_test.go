package bench

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"roar/internal/cluster"
	"roar/internal/frontend"
	"roar/internal/pps"
	"roar/internal/stats"
)

// Tail-latency benchmark: 8 nodes at pq = 8 (every query must touch
// every node), one of which stalls on an occasional query — the
// "slow-but-alive machine" hiccup (a pause, a compaction) that
// dominates p99 in any fan-out system. The timer-only baseline waits
// for the stall; the hedged configuration re-sends the stalled
// sub-query to a replica bracket after its hedge delay and cancels the
// loser. Stalls are rare enough (one query in tailStallEvery) for the
// hedge budget, 5 % of sub-queries, to pay for every one of them; a
// node slow on every leg is 12.5 % of sub-queries, and the budget
// refuses most of those hedges by design (TestClusterChaosHedgeBudget).
// Equal speed hints keep placement symmetric so neither configuration
// can schedule around the stalled node.

const (
	tailNodes      = 8
	tailP          = 4
	tailCorpus     = 400
	tailSpeed      = 200000 // objects/s: sub-millisecond sub-queries
	tailStall      = 40 * time.Millisecond
	tailStallEvery = 25 // node 0 stalls on one query in 25
)

var tailConfigs = []struct {
	name string
	fe   frontend.Config
}{
	// Failure-timer-only re-dispatch: the seed behaviour.
	{"timer-only", frontend.Config{PQ: tailNodes, SubQueryTimeout: 2 * time.Second}},
	// Hedged: a sub-query slower than 8 ms (or than the p95 of its
	// node's legs) races a replica, under the 5 % token-bucket budget.
	// One slow node out of eight is 12.5 % of sub-queries wanting a
	// hedge, so the budget bites once its burst is spent.
	{"hedged-8ms", frontend.Config{PQ: tailNodes, SubQueryTimeout: 2 * time.Second,
		HedgeDelay: 8 * time.Millisecond}},
}

// tailRun drives `queries` closed-loop queries and returns the delay
// sample plus each query's deduplicated id set (as sorted slices) for
// the correctness comparison.
func tailRun(fe frontend.Config, queries int) (*stats.Sample, [][]uint64, error) {
	speeds := make([]float64, tailNodes)
	hints := make([]float64, tailNodes)
	for i := range speeds {
		speeds[i] = tailSpeed
		hints[i] = 1
	}
	c, err := cluster.Start(cluster.Options{
		Nodes: tailNodes, P: tailP, NodeSpeeds: speeds, SpeedHints: hints,
		Frontend: fe, FixedQueryCost: time.Millisecond,
		Seed: 42, Encoder: &benchEncoderConfig,
	})
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()
	docs, recs, err := sharedCorpus(tailCorpus)
	if err != nil {
		return nil, nil, err
	}
	if err := c.LoadEncoded(recs); err != nil {
		return nil, nil, err
	}
	q, err := slimEncoder.EncryptQuery(pps.And,
		pps.Predicate{Kind: pps.Keyword, Word: popularWord(docs)})
	if err != nil {
		return nil, nil, err
	}
	// Warm pools and speed EWMAs out of band.
	if _, err := c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q}); err != nil {
		return nil, nil, err
	}
	delays := stats.NewSample(queries)
	sets := make([][]uint64, 0, queries)
	for i := 0; i < queries; i++ {
		stall := i%tailStallEvery == tailStallEvery-1
		if stall {
			c.Nodes()[0].SetDelay(tailStall)
		}
		res, err := c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q})
		if stall {
			c.Nodes()[0].SetDelay(0)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("query %d: %w", i, err)
		}
		delays.Add(res.Delay.Seconds())
		ids := append([]uint64(nil), res.IDs...)
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		sets = append(sets, ids)
	}
	return delays, sets, nil
}

func sameIDSet(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkTailLatency reports p50/p99 query delay for the timer-only
// and hedged frontends against one occasionally stalled node.
func BenchmarkTailLatency(b *testing.B) {
	for _, tc := range tailConfigs {
		b.Run(tc.name, func(b *testing.B) {
			var p50, p99 float64
			for i := 0; i < b.N; i++ {
				delays, _, err := tailRun(tc.fe, 40)
				if err != nil {
					b.Fatal(err)
				}
				p50 += delays.Percentile(50)
				p99 += delays.Percentile(99)
			}
			b.ReportMetric(p50/float64(b.N)*1000, "p50-ms")
			b.ReportMetric(p99/float64(b.N)*1000, "p99-ms")
		})
	}
}

// TestHedgingLowersTailLatency pins the acceptance bar: with one node
// that stalls on rare queries, budgeted hedging must cut p99 query delay
// versus timer-only re-dispatch, with zero correctness loss — every
// query in both configurations returns the identical deduplicated id
// set.
func TestHedgingLowersTailLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("tail-latency comparison is not short")
	}
	const queries = 50
	timerDelays, timerSets, err := tailRun(tailConfigs[0].fe, queries)
	if err != nil {
		t.Fatal(err)
	}
	hedgeDelays, hedgeSets, err := tailRun(tailConfigs[1].fe, queries)
	if err != nil {
		t.Fatal(err)
	}
	want := timerSets[0]
	if len(want) == 0 {
		t.Fatal("reference query matched nothing; popular-word corpus broken")
	}
	for i, s := range timerSets {
		if !sameIDSet(s, want) {
			t.Fatalf("timer-only query %d returned %d ids, reference %d", i, len(s), len(want))
		}
	}
	for i, s := range hedgeSets {
		if !sameIDSet(s, want) {
			t.Fatalf("hedged query %d id set diverged: %d ids vs reference %d", i, len(s), len(want))
		}
	}
	tp99 := timerDelays.Percentile(99)
	hp99 := hedgeDelays.Percentile(99)
	t.Logf("timer-only p50 %.1fms p99 %.1fms; hedged p50 %.1fms p99 %.1fms",
		timerDelays.Percentile(50)*1000, tp99*1000,
		hedgeDelays.Percentile(50)*1000, hp99*1000)
	if hp99 >= tp99*0.8 {
		t.Errorf("hedged p99 %.1fms is not clearly below timer-only p99 %.1fms", hp99*1000, tp99*1000)
	}
}
