package cluster

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"roar/internal/core"
	"roar/internal/frontend"
	"roar/internal/node"
	"roar/internal/pps"
	"roar/internal/ring"
	"roar/internal/store"
)

// TestJoinRacingAppendsKeepsEveryHolder: a Join copies the new node's
// stored set out of the coordinator's backend while the drain keeps
// delivering under the epoch before it, so the backend must hold every
// record the drain can route before the drain routes it. Six appenders
// race four Joins on a 4-node, p = 2 cluster; once the last append has
// drained, every holder the final view places a record on stores it.
func TestJoinRacingAppendsKeepsEveryHolder(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		if missing := joinRacingAppends(t, int64(trial)); missing > 0 {
			t.Errorf("trial %d: %d holder copies missing", trial, missing)
		}
	}
}

// joinRacingAppends runs one trial and returns the number of (holder,
// record) pairs the final view places but the holder does not store.
func joinRacingAppends(t *testing.T, seed int64) int {
	t.Helper()
	const appenders, joins, puts, put = 6, 4, 40, 16
	c, err := Start(Options{Nodes: 4, P: 2, Seed: seed, Frontend: frontend.Config{ProbeInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	nodes := map[ring.NodeID]*node.Node{}
	for i, id := range c.NodeIDs() {
		nodes[id] = c.Nodes()[i]
	}
	ctx := context.Background()

	var wg sync.WaitGroup
	appended := make([][]pps.Encoded, appenders)
	lasts := make([]uint64, appenders)
	errs := make([]error, appenders)
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*appenders + int64(a)))
			for range puts {
				batch := make([]pps.Encoded, put)
				for i := range batch {
					batch[i] = pps.Encoded{ID: rng.Uint64(), BloomMetadata: pps.BloomMetadata{Nonce: make([]byte, 16), Filter: make([]byte, 32)}}
				}
				if lasts[a], errs[a] = c.IngestPut(ctx, batch...); errs[a] != nil {
					return
				}
				appended[a] = append(appended[a], batch...)
			}
		}()
	}
	appending := make(chan struct{})
	go func() {
		wg.Wait()
		close(appending)
	}()
	// Spread the joins over the appends: join j waits for j+1 fifths of
	// the records to be accepted, or for the appenders to stop.
	waitAccepted := func(seq uint64) {
		for c.Coord.IngestSeq() < seq {
			select {
			case <-appending:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}
	for j := 0; j < joins; j++ {
		waitAccepted(uint64((j + 1) * appenders * puts * put / (joins + 1)))
		nd, err := node.New(node.Config{Params: c.Enc.ServerParams()})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := nd.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		jr, err := c.Coord.Join(ctx, srv.Addr(), 1)
		if err != nil {
			t.Fatal(err)
		}
		nodes[ring.NodeID(jr.ID)] = nd
	}
	<-appending
	var last uint64
	for a := range errs {
		if errs[a] != nil {
			t.Fatal(errs[a])
		}
		last = max(last, lasts[a])
	}
	if err := c.WaitIngestDrained(ctx, last); err != nil {
		t.Fatal(err)
	}

	v := c.Coord.View()
	r := ring.New()
	for _, n := range v.Nodes {
		if err := r.Insert(ring.NodeID(n.ID), ring.Point(n.Start)); err != nil {
			t.Fatal(err)
		}
	}
	pl, err := core.NewPlacement(v.P, r)
	if err != nil {
		t.Fatal(err)
	}
	missing := 0
	for _, recs := range appended {
		for _, rec := range recs {
			for _, h := range pl.Holders(store.PointOf(rec.ID)) {
				if _, ok := nodes[h].Store().Get(rec.ID); !ok {
					missing++
				}
			}
		}
	}
	return missing
}
