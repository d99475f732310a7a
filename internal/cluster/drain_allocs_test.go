//go:build !race

package cluster

import (
	"context"
	"math/rand"
	"testing"

	"roar/internal/frontend"
	"roar/internal/pps"
)

// The race detector instruments allocations (and sync.Pool drops what it
// is given), so the count below is only meaningful without -race.

// drainAllocsCeiling is what one accepted record may allocate, in the
// whole process, on its way from IngestAppend to every replica: the WAL
// append and group commit, the drain's read, order, route and pushes,
// both ends of the wire and each holder's decode and apply. Measured 2.4
// since the store keeps the only copy of a record's bytes and overwrites
// a held id's in place (8.4 while the drain's read and every holder's
// decode copied each record, 8.6 while a batch insert allocated its ids'
// positions, 24.8 when the drain routed each record under its own lock
// and every decode allocated nonce and filter apart); the room is one
// allocation per record.
const drainAllocsCeiling = 3.4

// TestDrainAllocsPerRecord is the count gate on the write path's per
// record cost: 8 nodes at p = 2 (each record lands on about five), a
// universe of ids every node already holds, rewritten in 64-record
// IngestPuts and drained. The drain batch is one put, so every batch
// holds exactly 64 records however the drain and the writer interleave,
// and the count is exact. At the default round cap of 1 024 a round
// takes every put the writer got in ahead of the drain, and the count,
// 6.2 in eight runs, depends on that interleaving.
func TestDrainAllocsPerRecord(t *testing.T) {
	c, err := Start(Options{
		Nodes: 8, P: 2, IngestDir: t.TempDir(), IngestBatch: 64, Seed: 1,
		Frontend: frontend.Config{ProbeInterval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const universe, put = 2048, 64
	rng := rand.New(rand.NewSource(1))
	recs := make([]pps.Encoded, universe)
	for i := range recs {
		recs[i] = pps.Encoded{ID: rng.Uint64(), BloomMetadata: pps.BloomMetadata{Nonce: make([]byte, 16), Filter: make([]byte, 96)}}
		rng.Read(recs[i].Nonce)
		rng.Read(recs[i].Filter)
	}
	ctx := context.Background()
	rewrite := func() {
		var last uint64
		for off := 0; off < universe; off += put {
			seq, err := c.IngestPut(ctx, recs[off:off+put]...)
			if err != nil {
				t.Fatal(err)
			}
			last = seq
		}
		if err := c.WaitIngestDrained(ctx, last); err != nil {
			t.Fatal(err)
		}
	}
	rewrite() // every id is held from here on
	got := testing.AllocsPerRun(10, rewrite) / universe
	t.Logf("%.1f allocations per accepted record", got)
	if got > drainAllocsCeiling {
		t.Errorf("an accepted record allocates %.1f objects on its way to its replicas, ceiling %.1f", got, drainAllocsCeiling)
	}
}
