package frontend

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roar/internal/node"
	"roar/internal/pps"
	"roar/internal/proto"
)

// testLog is a DrainSource over the records a test appends, in order,
// standing in for the coordinator's log. Its drained watermark may run
// ahead of what the frontend has been told, as a coordinator's does
// between two view polls: stage appends records only the log holds,
// deliver puts the next ones on every node and hands the frontend the
// watermark as a Syncer's poll does (read ahead, then observe), so a
// fan-out at watermark W sees exactly the log's first W records.
type testLog struct {
	mu        sync.Mutex
	recs      []pps.Encoded
	delivered int
	reads     int
	failing   bool // fail every read while set
}

func (l *testLog) DrainedSince(_ context.Context, after uint64, max int) ([]pps.Encoded, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reads++
	if l.failing {
		return nil, errors.New("testLog: read failed")
	}
	end := min(uint64(len(l.recs)), after+uint64(max))
	if after >= end {
		return nil, nil
	}
	return slices.Clone(l.recs[after:end]), nil
}

func (l *testLog) stage(recs ...pps.Encoded) {
	l.mu.Lock()
	l.recs = append(l.recs, recs...)
	l.mu.Unlock()
}

func (l *testLog) deliver(fe *Frontend, nodes []*node.Node, n int) uint64 {
	l.mu.Lock()
	recs := l.recs[l.delivered : l.delivered+n]
	l.delivered += n
	w := uint64(l.delivered)
	l.mu.Unlock()
	for _, nd := range nodes {
		nd.Put(proto.PutReq{Records: slices.Clone(recs)}) // Insert orders its argument
	}
	fe.readAhead(context.Background(), w)
	fe.ObserveIngest(w, w)
	return w
}

// write appends recs and delivers them.
func (l *testLog) write(fe *Frontend, nodes []*node.Node, recs ...pps.Encoded) uint64 {
	l.stage(recs...)
	return l.deliver(fe, nodes, len(recs))
}

func (l *testLog) setFailing(failing bool) {
	l.mu.Lock()
	l.failing = failing
	l.mu.Unlock()
}

func (l *testLog) readCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reads
}

// patchingFrontend is a cached frontend that reads drained records from
// src and has probed its nodes once, so it knows their MBits. The probe
// loop itself never fires within a test.
func patchingFrontend(t *testing.T, v proto.View, src DrainSource) *Frontend {
	t.Helper()
	fe := New(Config{CacheBudget: 1 << 20, ProbeInterval: time.Hour})
	t.Cleanup(fe.Close)
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	fe.setDrainSource(src)
	fe.probeAll(time.Second)
	if fe.patcher() == nil {
		t.Fatal("frontend cannot patch after probing its nodes")
	}
	return fe
}

func docRec(t testing.TB, enc *pps.Encoder, id uint64, words ...string) pps.Encoded {
	t.Helper()
	rec, err := enc.EncryptDocument(pps.Document{
		ID: id, Path: "/x", Size: 5, Modified: time.Unix(1.2e9, 0), Keywords: words,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestCacheCountsFencesPatchesAndDrops pins the three counters across
// the three events that age an entry: a drain the frontend can read
// (the entry is patched), a drain whose read fails (dropped on the
// lookup), and a newer view (the generation moves, and the entry is
// dropped).
func TestCacheCountsFencesPatchesAndDrops(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 2, 1)
	loadAll(t, nodes, enc, []string{"aa"})
	log := &testLog{}
	fe := patchingFrontend(t, v, log)
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	ask := func(step string, wantIDs int, wantSource string, want CacheStats) {
		t.Helper()
		res, err := fe.Query(context.Background(), QuerySpec{Enc: q})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.IDs) != wantIDs || res.Source != wantSource {
			t.Fatalf("%s: %d ids via %s, want %d via %s", step, len(res.IDs), res.Source, wantIDs, wantSource)
		}
		st := fe.CacheStats()
		if st.Fences != want.Fences || st.Patched != want.Patched || st.Invalidations != want.Invalidations {
			t.Fatalf("%s: fences %d, patched %d, invalidations %d; want %d, %d, %d", step,
				st.Fences, st.Patched, st.Invalidations, want.Fences, want.Patched, want.Invalidations)
		}
	}
	ask("cold", 1, SourceFanout, CacheStats{Fences: 1})
	ask("warm", 1, SourceCache, CacheStats{Fences: 1})

	log.write(fe, nodes, docRec(t, enc, 2<<40, "aa"))
	ask("a drain with a source", 2, SourceCache, CacheStats{Fences: 1, Patched: 1})
	ask("repeat", 2, SourceCache, CacheStats{Fences: 1, Patched: 1})
	if n := log.readCount(); n != 1 {
		t.Errorf("the log was read %d times, want once (the drain)", n)
	}

	log.setFailing(true)
	log.write(fe, nodes, docRec(t, enc, 3<<40, "aa"))
	ask("a drain whose read fails", 3, SourceFanout, CacheStats{Fences: 1, Patched: 1, Invalidations: 1})

	v2 := v
	v2.Epoch++
	if err := fe.ApplyView(v2); err != nil {
		t.Fatal(err)
	}
	ask("a newer view", 3, SourceFanout, CacheStats{Fences: 2, Patched: 1, Invalidations: 2})
}

// TestNoPatchWithoutCacheSourceOrMBits: a frontend patches only with a
// cache, a source, and nodes that all reported one MBits to a probe.
// Otherwise it never reads its source, and a drain drops a cached answer
// at its next hit, as a frontend without patching does.
func TestNoPatchWithoutCacheSourceOrMBits(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 2, 1)
	loadAll(t, nodes, enc, []string{"aa"})
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	log := &testLog{}
	run := func(name string, fe *Frontend, wantSource string) {
		t.Helper()
		for i := 0; i < 3; i++ {
			if _, err := fe.Query(context.Background(), QuerySpec{Enc: q}); err != nil {
				t.Fatal(err)
			}
			w := log.write(fe, nodes, docRec(t, enc, uint64(len(log.recs)+10)<<40, "aa"))
			res, err := fe.Query(context.Background(), QuerySpec{Enc: q})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.IDs) != int(w)+1 || res.Source != wantSource {
				t.Fatalf("%s: %d ids via %s after drain %d, want %d via %s", name, len(res.IDs), res.Source, w, w+1, wantSource)
			}
		}
		if n := log.readCount(); n != 0 {
			t.Fatalf("%s read its source %d times", name, n)
		}
	}

	uncached := New(Config{ProbeInterval: time.Hour})
	defer uncached.Close()
	if err := uncached.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	uncached.setDrainSource(log)
	uncached.probeAll(time.Second)
	run("a frontend without a cache", uncached, SourceFanout)

	unprobed := New(Config{CacheBudget: 1 << 20, ProbeInterval: -1})
	defer unprobed.Close()
	if err := unprobed.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	unprobed.setDrainSource(log)
	run("a frontend that does not probe", unprobed, SourceFanout)

	older := patchingFrontend(t, v, log)
	older.nodes[1].mbits.Store(0) // a node that reports no MBits
	run("a frontend beside a node that reports no MBits", older, SourceFanout)
	older.nodes[1].mbits.Store(older.nodes[0].mbits.Load() * 2)
	run("a frontend beside nodes that disagree", older, SourceFanout)
}

// hangingLog is a DrainSource whose reads hang until their context
// ends: a coordinator that is slow or unreachable.
type hangingLog struct{ reads atomic.Int64 }

func (h *hangingLog) DrainedSince(ctx context.Context, _ uint64, _ int) ([]pps.Encoded, error) {
	h.reads.Add(1)
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestHitsNeverWaitOnTheSource: while the read of a drain hangs, hits on
// entries computed before it drop them and fan out, each well inside a
// deadline shorter than one read's bound; none queues behind the read
// or behind another hit.
func TestHitsNeverWaitOnTheSource(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 2, 1)
	loadAll(t, nodes, enc, []string{"aa"})
	src := &hangingLog{}
	fe := patchingFrontend(t, v, src)
	var specs []QuerySpec
	for _, second := range []string{"", "bb", "cc", "zz"} {
		preds := []pps.Predicate{{Kind: pps.Keyword, Word: "aa"}}
		if second != "" {
			preds = append(preds, pps.Predicate{Kind: pps.Keyword, Word: second})
		}
		q, err := enc.EncryptQuery(pps.Or, preds...)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, QuerySpec{Enc: q})
		if _, err := fe.Query(context.Background(), specs[len(specs)-1]); err != nil {
			t.Fatal(err)
		}
	}
	rec := docRec(t, enc, 2<<40, "aa")
	for _, nd := range nodes {
		nd.Put(proto.PutReq{Records: []pps.Encoded{rec}})
	}
	fe.ObserveIngest(1, 1)
	for src.reads.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	const deadline = drainReadTimeout / 4
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(specs))
	for i := 0; i < 4; i++ {
		for _, spec := range specs {
			wg.Add(1)
			go func(spec QuerySpec) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), deadline)
				defer cancel()
				res, err := fe.Query(ctx, spec)
				switch {
				case err != nil:
					errs <- err
				case len(res.IDs) != 2:
					errs <- fmt.Errorf("%d ids via %s, want 2", len(res.IDs), res.Source)
				}
			}(spec)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := fe.CacheStats(); st.Patched != 0 || st.Invalidations < int64(len(specs)) {
		t.Errorf("patched %d, dropped %d; want none patched and every entry dropped", st.Patched, st.Invalidations)
	}
}

// propertyWords are the keywords the property test's documents draw
// from; "zz" is in no query.
var propertyWords = []string{"aa", "bb", "cc", "zz"}

// TestCachePatchMatchesUncached is the property: a cached, patching
// frontend and an uncached one return the same id set at every step,
// over fresh writes, rewrites of held ids to a match and to a miss, an
// id written twice in one drain, a view change, a failing log read, a
// log window that has moved past an entry, and a flight that started
// before a drain.
func TestCachePatchMatchesUncached(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 3, 1)
	log := &testLog{}
	fe := patchingFrontend(t, v, log)
	fe.drained.size = 8 // small enough that entries fall behind it
	plain := New(Config{ProbeInterval: -1})
	defer plain.Close()
	if err := plain.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	var queries []pps.Query
	for _, qs := range []struct {
		op    pps.BoolOp
		words []string
	}{{pps.And, []string{"aa"}}, {pps.Or, []string{"aa", "bb"}}, {pps.And, []string{"aa", "bb"}}, {pps.Or, []string{"cc"}}} {
		var preds []pps.Predicate
		for _, w := range qs.words {
			preds = append(preds, pps.Predicate{Kind: pps.Keyword, Word: w})
		}
		q, err := enc.EncryptQuery(qs.op, preds...)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	rng := rand.New(rand.NewSource(17))
	var held []uint64
	nextID := uint64(1)
	randWords := func() []string {
		var ws []string
		for _, w := range propertyWords {
			if rng.Intn(3) == 0 {
				ws = append(ws, w)
			}
		}
		if len(ws) == 0 {
			ws = []string{"zz"}
		}
		return ws
	}
	fresh := func() pps.Encoded {
		id := nextID << 32
		nextID++
		held = append(held, id)
		return docRec(t, enc, id, randWords()...)
	}
	for i := 0; i < 12; i++ {
		rec := fresh()
		for _, nd := range nodes {
			nd.Put(proto.PutReq{Records: []pps.Encoded{rec}})
		}
	}
	answer := func(f *Frontend, q pps.Query) (Result, map[uint64]bool) {
		t.Helper()
		res, err := f.Query(context.Background(), QuerySpec{Enc: q})
		if err != nil {
			t.Fatal(err)
		}
		set := make(map[uint64]bool, len(res.IDs))
		for _, id := range res.IDs {
			set[id] = true
		}
		return res, set
	}
	compare := func(step string, q int, got Result) {
		t.Helper()
		_, want := answer(plain, queries[q])
		if len(got.IDs) != len(want) {
			t.Fatalf("%s, query %d: cached %d ids via %s, uncached %d", step, q, len(got.IDs), got.Source, len(want))
		}
		for _, id := range got.IDs {
			if !want[id] {
				t.Fatalf("%s, query %d: cached id %d via %s is not in the uncached answer", step, q, id, got.Source)
			}
		}
	}
	check := func(step string) {
		t.Helper()
		for q := range queries {
			got, _ := answer(fe, queries[q])
			compare(step, q, got)
		}
	}
	check("start")
	for step := 0; step < 60; step++ {
		name := fmt.Sprintf("step %d", step)
		var batch []pps.Encoded
		for n := 1 + rng.Intn(3); n > 0; n-- {
			switch rng.Intn(4) {
			case 0:
				batch = append(batch, fresh())
			case 1: // a held id rewritten to match every query
				batch = append(batch, docRec(t, enc, held[rng.Intn(len(held))], "aa", "bb", "cc"))
			case 2: // a held id rewritten to match none
				batch = append(batch, docRec(t, enc, held[rng.Intn(len(held))], "zz"))
			default: // one id written twice in one drain: the last write counts
				id := held[rng.Intn(len(held))]
				first, last := []string{"aa", "bb", "cc"}, []string{"zz"}
				if rng.Intn(2) == 0 {
					first, last = last, first
				}
				batch = append(batch, docRec(t, enc, id, first...), docRec(t, enc, id, last...))
			}
		}
		switch step {
		case 20:
			v.Epoch++
			if err := fe.ApplyView(v); err != nil {
				t.Fatal(err)
			}
			name += " (a newer view)"
		case 30:
			log.setFailing(true)
			name += " (a failing log read)"
		case 31:
			log.setFailing(false)
		case 40:
			flightAcrossDrain(t, fe, plain, log, nodes, queries[0], docRec(t, enc, 999<<32, "aa"))
		case 50:
			windowPastEntry(t, fe, log, nodes, queries[0], docRec(t, enc, nextID<<32, "aa", "bb", "cc"), fresh)
			nextID++
			check(name + " (a window that moved past an entry)")
			log.deliver(fe, nodes, len(log.recs)-log.delivered)
		}
		log.write(fe, nodes, batch...)
		check(name)
		if step%7 == 6 {
			// Let some entries fall behind the 8-record window.
			log.write(fe, nodes, fresh(), fresh(), fresh(), fresh(), fresh(), fresh(), fresh(), fresh(), fresh())
			check(name + " (entries behind the window)")
		}
	}
	st := fe.CacheStats()
	t.Logf("cache: %+v", st)
	if st.Patched == 0 || st.Invalidations == 0 {
		t.Errorf("the run patched %d entries and dropped %d; it must do both", st.Patched, st.Invalidations)
	}
}

// windowPastEntry moves the frontend's log window past q's entry while
// the frontend's watermark still lags the log: the first record after
// the entry, which q matches, is then in no window the entry can be
// patched from. A read moves a window like this when the coordinator's
// drain runs ahead of the frontend's last view poll. The log keeps
// records the frontend has not been handed yet.
func windowPastEntry(t *testing.T, fe *Frontend, log *testLog, nodes []*node.Node, q pps.Query, match pps.Encoded, fresh func() pps.Encoded) {
	t.Helper()
	if _, err := fe.Query(context.Background(), QuerySpec{Enc: q}); err != nil {
		t.Fatal(err)
	}
	a := fe.ingDrained.Load() // q's entry is as of a
	log.stage(match)
	for i := 0; i < 2*fe.drained.size; i++ {
		log.stage(fresh())
	}
	log.deliver(fe, nodes, 2)               // the read fills the window up to a+size
	log.deliver(fe, nodes, fe.drained.size) // past its end: the next read moves it on
	fe.drained.mu.Lock()
	lo := fe.drained.lo
	fe.drained.mu.Unlock()
	if lo <= a {
		t.Fatalf("the window starts at %d, not past the entry's %d", lo, a)
	}
}

// flightAcrossDrain registers a fan-out of q as in flight at the current
// watermark, drains a write that q matches, and asks q, which finds no
// entry: the query has seen the drain, so it must not take the flight's
// answer. If it waits on the flight after all, the flight ends with the
// pre-drain answer.
func flightAcrossDrain(t *testing.T, fe, plain *Frontend, log *testLog, nodes []*node.Node, q pps.Query, rec pps.Encoded) {
	t.Helper()
	spec := QuerySpec{Enc: q}
	before, err := plain.Query(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey(spec)
	fe.cache.mu.Lock() // no entry: the query after the drain misses
	if el, ok := fe.cache.byKey[key]; ok {
		fe.cache.removeLocked(el, el.Value.(*cacheEntry))
	}
	fe.cache.mu.Unlock()
	fl, leader := fe.cache.startFlight(key, fe.cacheGen.Load(), fe.ingDrained.Load())
	if !leader || fl == nil {
		t.Fatal("no flight to register")
	}
	log.write(fe, nodes, rec)
	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := fe.Query(context.Background(), spec)
		done <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-done:
		fe.cache.finishFlight(key, fl, before.IDs, nil)
	case <-time.After(2 * time.Second):
		fe.cache.finishFlight(key, fl, before.IDs, nil)
		out = <-done
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	want, err := plain.Query(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out.res.IDs, want.IDs) {
		t.Fatalf("a query after a drain took a pre-drain flight's answer: %d ids via %s, want %d", len(out.res.IDs), out.res.Source, len(want.IDs))
	}
}

// patchPool is encrypted metadata per keyword set, to be given ids: a
// record's verdict depends on its nonce and filter, never its id.
type patchPool struct {
	q     pps.Query
	match []pps.Encoded // metadata the query matches
	miss  []pps.Encoded // metadata it does not
}

func newPatchPool(t testing.TB, enc *pps.Encoder, op pps.BoolOp) patchPool {
	m, err := pps.NewMatcher(enc.ServerParams())
	if err != nil {
		t.Fatal(err)
	}
	q, err := enc.EncryptQuery(op, pps.Predicate{Kind: pps.Keyword, Word: "aa"}, pps.Predicate{Kind: pps.Keyword, Word: "bb"})
	if err != nil {
		t.Fatal(err)
	}
	var p patchPool
	p.q = q
	for i, words := range [][]string{{"aa"}, {"bb"}, {"aa", "bb"}, {"cc"}, {"zz"}, {"aa", "cc"}, {"bb", "zz"}, {"cc", "zz"}} {
		for j := 0; j < 3; j++ {
			rec := docRec(t, enc, uint64(i*3+j+1), words...)
			if len(m.MatchAll(q, []pps.Encoded{rec})) == 1 {
				p.match = append(p.match, rec)
			} else {
				p.miss = append(p.miss, rec)
			}
		}
	}
	return p
}

func (p patchPool) pick(match bool, i int, id uint64) pps.Encoded {
	from := p.miss
	if match {
		from = p.match
	}
	rec := from[i%len(from)]
	rec.ID = id
	return rec
}

// FuzzCachePatchEqualsRescan: patchIDs over any run of writes equals a
// rescan. A slim corpus, an AND or OR query and its answer; then the
// writes ops spells — fresh ids, held ids rewritten to a match or to a
// miss, one id written twice — patched into the answer, which must equal
// Matcher.MatchAll over the corpus with every write applied.
func FuzzCachePatchEqualsRescan(f *testing.F) {
	enc := slimEncoder()
	pools := []patchPool{newPatchPool(f, enc, pps.And), newPatchPool(f, enc, pps.Or)}
	m, err := pps.NewMatcher(enc.ServerParams())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int64(1), []byte{0, 4, 8, 1, 5, 2, 6, 3, 7})
	f.Add(int64(2), []byte{1, 1, 2, 2, 3, 7, 11, 15})
	f.Add(int64(3), []byte{3, 3, 3, 3, 7, 7, 7, 7})
	f.Add(int64(4), []byte{2, 6, 10, 14, 18, 22})
	f.Add(int64(5), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		rng := rand.New(rand.NewSource(seed))
		p := pools[rng.Intn(len(pools))]
		corpus := map[uint64]pps.Encoded{}
		var held []uint64
		put := func(rec pps.Encoded) {
			if _, ok := corpus[rec.ID]; !ok {
				held = append(held, rec.ID)
			}
			corpus[rec.ID] = rec
		}
		for i := 8 + rng.Intn(16); i > 0; i-- {
			put(p.pick(rng.Intn(2) == 0, rng.Intn(64), rng.Uint64()|1))
		}
		scan := func() []uint64 {
			recs := make([]pps.Encoded, 0, len(corpus))
			for _, rec := range corpus {
				recs = append(recs, rec)
			}
			ids := m.MatchAll(p.q, recs)
			slices.Sort(ids)
			return ids
		}
		ids := scan()
		var writes []pps.Encoded
		write := func(rec pps.Encoded) {
			writes = append(writes, rec)
			put(rec)
		}
		for _, b := range ops {
			held := held[rng.Intn(len(held))]
			switch b % 4 {
			case 0:
				write(p.pick(b&4 != 0, int(b>>3), rng.Uint64()|1))
			case 1:
				write(p.pick(true, int(b>>2), held))
			case 2:
				write(p.pick(false, int(b>>2), held))
			default:
				write(p.pick(b&4 != 0, int(b>>3), held))
				write(p.pick(b&4 == 0, int(b>>3), held))
			}
		}
		ks := pps.AppendKeySchedules(nil, writes)
		got := patchIDs(ids, writes, ks, m.NewRun(p.q))
		if want := scan(); !slices.Equal(got, want) {
			t.Fatalf("patched answer %v, rescan %v", got, want)
		}
	})
}
