//go:build !race

package frontend

import (
	"context"
	"testing"
)

// The race detector instruments allocations (and sync.Pool drops what it
// is given), so the count below is only meaningful without -race.

// fanoutAllocsCeiling is what one fanoutBed query may allocate, in the
// whole process: frontend, both ends of the wire and the eight node
// handlers. Measured 230 on this dispatcher (341 with a goroutine, a
// context and a channel per leg); the room is under one allocation per
// leg, for a buffer pool refilling after a GC.
const fanoutAllocsCeiling = 237

// TestFanoutAllocsPerQuery is the count gate on the per-leg fixed cost:
// the next allocation added to every leg fails here, not in a benchmark
// run.
func TestFanoutAllocsPerQuery(t *testing.T) {
	fe, spec := fanoutBed(t)
	got := testing.AllocsPerRun(200, func() {
		if _, err := fe.Query(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per p = 8 query", got)
	if got > fanoutAllocsCeiling {
		t.Errorf("a p = 8 query allocates %.0f objects, ceiling %d", got, fanoutAllocsCeiling)
	}
}
