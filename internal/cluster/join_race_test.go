package cluster

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"roar/internal/frontend"
	"roar/internal/node"
	"roar/internal/pps"
	"roar/internal/ring"
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
	const joins = 4
	c, err := Start(Options{Nodes: 4, P: 2, Seed: seed, Frontend: frontend.Config{ProbeInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	nodes := nodesByID(c)
	ctx := context.Background()

	race := startAppends(c, seed)
	// Spread the joins over the appends: join j waits for j+1 fifths of
	// the records to be accepted, or for the appenders to stop.
	for j := 0; j < joins; j++ {
		race.waitAccepted(c, uint64((j+1)*raceRecords/(joins+1)))
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
	recs, last := race.finish(t)
	return missingHolderCopies(t, c, nodes, recs, last)
}

// TestChangePDownRacingAppendsKeepsEveryHolder: a p decrease pushes each
// node the arc it gains out of the backend, one node after another, and
// publishes the new p only after the last push, so a record the drain
// delivers between a node's push and the publish must still reach that
// node: from before the first push the drain routes by the target p.
// Six appenders race ChangeP(8 -> 2) on an 8-node cluster that holds a
// 20 000-record corpus, which keeps the pushes long; once the last
// append has drained, every holder the final view places a record on
// stores it.
func TestChangePDownRacingAppendsKeepsEveryHolder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	corpus := make([]pps.Encoded, 20000)
	for i := range corpus {
		corpus[i] = raceRecord(rng)
	}
	for trial := 0; trial < 10; trial++ {
		if missing := changePDownRacingAppends(t, int64(trial), corpus); missing > 0 {
			t.Errorf("trial %d: %d holder copies missing", trial, missing)
		}
	}
}

// changePDownRacingAppends runs one trial and returns the number of
// (holder, record) pairs the final view places but the holder does not
// store.
func changePDownRacingAppends(t *testing.T, seed int64, corpus []pps.Encoded) int {
	t.Helper()
	c, err := Start(Options{Nodes: 8, P: 8, Seed: seed, Frontend: frontend.Config{ProbeInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadEncoded(corpus); err != nil {
		t.Fatal(err)
	}
	race := startAppends(c, seed)
	race.waitAccepted(c, uint64(len(corpus)+raceRecords/5))
	if err := c.Coord.ChangeP(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if p := c.Coord.P(); p != 2 {
		t.Fatalf("p = %d after ChangeP(2)", p)
	}
	recs, last := race.finish(t)
	return missingHolderCopies(t, c, nodesByID(c), recs, last)
}

// The appenders of a race: each makes racePuts IngestPuts of racePut
// fresh records.
const (
	raceAppenders = 6
	racePuts      = 40
	racePut       = 16
	raceRecords   = raceAppenders * racePuts * racePut
)

// appendRace is a set of appenders running against a cluster.
type appendRace struct {
	done     chan struct{} // closed once every appender has stopped
	appended [][]pps.Encoded
	lasts    []uint64
	errs     []error
}

// raceRecord is a record with a random id and the nonce and filter
// lengths of the slim encoder.
func raceRecord(rng *rand.Rand) pps.Encoded {
	return pps.Encoded{ID: rng.Uint64(), BloomMetadata: pps.BloomMetadata{Nonce: make([]byte, 16), Filter: make([]byte, 32)}}
}

// startAppends starts the appenders, seeded from seed.
func startAppends(c *Cluster, seed int64) *appendRace {
	r := &appendRace{
		done:     make(chan struct{}),
		appended: make([][]pps.Encoded, raceAppenders),
		lasts:    make([]uint64, raceAppenders),
		errs:     make([]error, raceAppenders),
	}
	var wg sync.WaitGroup
	for a := 0; a < raceAppenders; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*raceAppenders + int64(a)))
			for range racePuts {
				batch := make([]pps.Encoded, racePut)
				for i := range batch {
					batch[i] = raceRecord(rng)
				}
				if r.lasts[a], r.errs[a] = c.IngestPut(context.Background(), batch...); r.errs[a] != nil {
					return
				}
				r.appended[a] = append(r.appended[a], batch...)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(r.done)
	}()
	return r
}

// waitAccepted returns once the log has accepted seq records, or the
// appenders have stopped.
func (r *appendRace) waitAccepted(c *Cluster, seq uint64) {
	for c.Coord.IngestSeq() < seq {
		select {
		case <-r.done:
			return
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// finish waits for the appenders to stop and returns the records they
// got accepted and the sequence of the last one.
func (r *appendRace) finish(t *testing.T) (recs []pps.Encoded, last uint64) {
	t.Helper()
	<-r.done
	for a := range r.errs {
		if r.errs[a] != nil {
			t.Fatal(r.errs[a])
		}
		last = max(last, r.lasts[a])
		recs = append(recs, r.appended[a]...)
	}
	return recs, last
}

// nodesByID maps the cluster's nodes by their membership ids.
func nodesByID(c *Cluster) map[ring.NodeID]*node.Node {
	nodes := map[ring.NodeID]*node.Node{}
	for i, id := range c.NodeIDs() {
		nodes[id] = c.Nodes()[i]
	}
	return nodes
}

// missingHolderCopies waits for the drain to deliver through last, then
// counts the (holder, record) pairs of recs that the coordinator's final
// view places but the holder does not store: every node whose stored
// spans hold the record's id.
func missingHolderCopies(t *testing.T, c *Cluster, nodes map[ring.NodeID]*node.Node, recs []pps.Encoded, last uint64) int {
	t.Helper()
	if err := c.WaitIngestDrained(context.Background(), last); err != nil {
		t.Fatal(err)
	}
	missing := 0
	for h, spans := range viewHeld(t, c.Coord.View()) {
		for _, rec := range recs {
			if _, ok := nodes[h].Store().Get(rec.ID); inSpans(spans, rec.ID) && !ok {
				missing++
			}
		}
	}
	return missing
}
