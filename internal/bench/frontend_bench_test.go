package bench

import (
	"context"
	"testing"
	"time"

	"roar/internal/frontend"
	"roar/internal/workload"
)

// Frontend execution-pipeline benchmarks: the serial single-connection
// baseline (one query at a time, one TCP conn per node) against the
// pipelined executor (pooled connections, unbounded admission) at 64
// concurrent closed-loop clients. The interesting number is the
// queries/s metric, not ns/op.

const throughputClients = 64

var throughputConfigs = []struct {
	name string
	fe   frontend.Config
}{
	// The pre-pipeline frontend: one query in flight at a time over one
	// connection per node.
	{"serial-1conn", frontend.Config{MaxInFlight: 1, PoolSize: 1}},
	// The pipelined executor with a 4-wide connection pool per node.
	{"pipelined-pool4", frontend.Config{PoolSize: 4}},
}

// throughputQPS measures closed-loop queries/sec for one frontend
// configuration on a fresh cluster. The per-sub-query fixed cost (5ms,
// the §2 fixed overhead) dominates the small corpus scan, so the
// measurement rewards overlapping remote waits — the thing the pipeline
// exists for — rather than this machine's core count.
func throughputQPS(fe frontend.Config, clients int, dur time.Duration) (float64, error) {
	c, _, err := benchCluster(8, 4, 400, workload.UniformSpeeds(8, 150000), fe, 5*time.Millisecond)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	q, err := missQuery()
	if err != nil {
		return 0, err
	}
	// Warm the connection pools and speed EWMAs out of band.
	if _, err := c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q}); err != nil {
		return 0, err
	}
	qps, _, err := throughput(c, q, clients, dur)
	return qps, err
}

func BenchmarkFrontendThroughput(b *testing.B) {
	for _, bc := range throughputConfigs {
		b.Run(bc.name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				qps, err := throughputQPS(bc.fe, throughputClients, 400*time.Millisecond)
				if err != nil {
					b.Fatal(err)
				}
				total += qps
			}
			b.ReportMetric(total/float64(b.N), "queries/s")
		})
	}
}

// TestFrontendThroughputSpeedup pins the acceptance bar: the pipelined
// pooled frontend must beat the serial single-connection baseline by at
// least 2x at 64 concurrent clients.
func TestFrontendThroughputSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput comparison is not short")
	}
	serial, err := throughputQPS(throughputConfigs[0].fe, throughputClients, 600*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := throughputQPS(throughputConfigs[1].fe, throughputClients, 600*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("serial %.1f q/s, pipelined %.1f q/s (%.1fx)", serial, pooled, pooled/serial)
	if pooled < 2*serial {
		t.Errorf("pipelined frontend %.1f q/s is under 2x the serial baseline %.1f q/s", pooled, serial)
	}
}
