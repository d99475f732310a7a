package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"roar/internal/cluster"
	"roar/internal/frontend"
	"roar/internal/index"
	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/workload"
)

// Cluster shape shared by every workload: the program runs un-throttled,
// so every microsecond measured is its own.
const (
	clusterNodes  = 8
	frontendPool  = 2
	indexCacheMiB = 64
	indexLimit    = 20
	cacheBudget   = 8 << 20

	// mixed_zipf's writer: one IngestPut of writeBatch records every
	// writePeriod.
	writeBatch  = 16
	writePeriod = 200 * time.Millisecond

	// ingest_drain: records per IngestPut call, the backlog (accepted
	// but not yet drained records) past which the writer waits for the
	// drain, and how often a record is a real encrypted document
	// carrying sentinelWord. The issue's 8 records per call leave the
	// one writer, at one fsync per call, the bottleneck: the drain keeps
	// up, throughput follows the sandbox's fsync and a faster drain
	// would not show. At 64 the WAL accepts three times what the drain
	// delivers, so the window keeps the drain saturated and the run
	// measures the drain.
	drainBatch    = 64
	drainWindow   = 2048
	sentinelEvery = 256
	sentinelDocs  = 1024
	sentinelWord  = "sentinel"
	// ingest_drain rewrites this many synthetic records round-robin, so
	// the stores reach their steady size during warm-up. Writing fresh
	// ids forever would measure three different systems in the window's
	// three segments: store.Insert of a batch is O(n), and throughput
	// then falls by half between the first second and the last.
	drainUniverse = 16384
)

// clients is the number of load-generating goroutines of a closed loop:
// one per processor, never more, so the generator does not contend with
// itself for the CPUs the program under test needs.
func clients() int { return runtime.GOMAXPROCS(0) }

// workloadDef is one traffic mix. why is BENCHMARK.json's one-line
// rationale; README.md has the long form.
type workloadDef struct {
	name  string
	why   string
	p     int
	plane string // "pps", "index" or "ingest": which corpus set-up builds
	loop  string
	cache bool
	wal   bool
}

var workloads = []workloadDef{
	{name: "pps_scan", p: 2, plane: "pps", loop: "closed",
		why: "Encrypted scan at p=2 of 8: the pps kernel and store.MatchArc do ~95% of the work, the 2 legs' fixed cost is negligible; cache, index and ingest idle."},
	{name: "index_fanout", p: 8, plane: "index", loop: "closed",
		why: "Plain index at p=8 of 8: ~15us of work per node, so schedule, codec, wire round trips and merge of the 8 legs are the bill; the pps kernel idles."},
	{name: "mixed_zipf", p: 4, plane: "pps", loop: "open", cache: true, wal: true,
		why: "Open-loop Poisson Zipf reads through the result cache at p=4 beside a 5/s durable writer whose acks and drains invalidate it: the serving mix."},
	{name: "ingest_drain", p: 2, plane: "ingest", loop: "closed", wal: true,
		why: "IngestPut only, one writer a bounded window ahead of the drain: WAL group commit, drain, node.Put and store.Insert do all the work, the drain is the bottleneck; no query until the final check."},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sizes scales a run. The smoke test shrinks everything; the benchmark
// proper uses fullSizes.
type sizes struct {
	ppsDocs    int
	indexDocs  int
	indexVocab int
	indexTop   int // query terms are drawn from the top indexTop terms
	pool       int // distinct queries per workload
	warmup     time.Duration
	setups     int // set-ups per run; setup_s is their median
	segments   int
}

// fullSizes: the issue asked for 20 000 encrypted documents; the
// driver's time cap (92 runs in 3420 s, set-up included, set-up
// repeated for a median) leaves room for half of that, since encrypting
// one document costs ~0.5 ms of CPU.
var fullSizes = sizes{
	ppsDocs: 10000, indexDocs: 200000, indexVocab: 3000, indexTop: 300,
	pool: 512, warmup: 2 * time.Second, setups: 3, segments: 3,
}

// poolQuery is one pooled query with the answer the oracle expects,
// computed from the plaintext outside the cluster.
type poolQuery struct {
	spec  frontend.QuerySpec
	words []string
	want  []uint64 // ascending
	// hits lists mixed_zipf's written documents that match, ascending
	// by write batch.
	hits []writeHit
}

type writeHit struct {
	batch int
	id    uint64
}

// env is one workload's running system plus everything the generator
// and the oracle need.
type env struct {
	def workloadDef
	sz  sizes
	c   *cluster.Cluster
	dir string

	setup      time.Duration // this set-up; setup_s reports the median of setups
	setups     []float64     // seconds, every set-up of the run
	loadCorpus time.Duration

	matcher *pps.Matcher
	docs    []pps.Document
	recs    []pps.Encoded
	recByID map[uint64]pps.Encoded // every generated record, for false-positive checks
	idocs   []indexDoc
	pool    []poolQuery

	writes [][]pps.Encoded // mixed_zipf: pre-encrypted write batches

	sentinels []pps.Encoded // ingest_drain: real records, used cyclically
	synthetic []pps.Encoded // ingest_drain: the universe of synthetic records

	indexes  []*index.Index
	segPath  string
	segBytes int64
}

func (e *env) close() {
	if e.c != nil {
		e.c.Close()
	}
	for _, ix := range e.indexes {
		ix.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// setUp builds the workload's system sz.setups times and keeps the
// last; env.setups holds every duration.
func setUp(def workloadDef, sz sizes, seed int64, outDir string, seconds int) (*env, error) {
	var e *env
	var times []float64
	for i := 0; i < sz.setups; i++ {
		if e != nil {
			e.close()
			runtime.GC()
		}
		var err error
		e, err = setUpOnce(def, sz, seed, outDir, seconds)
		if err != nil {
			return nil, err
		}
		times = append(times, e.setup.Seconds())
	}
	e.setups = times
	if err := e.buildPool(seed); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func setUpOnce(def workloadDef, sz sizes, seed int64, outDir string, seconds int) (_ *env, err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "run-"+def.name+"-")
	if err != nil {
		return nil, err
	}
	e := &env{def: def, sz: sz, dir: dir}
	defer func() {
		if err != nil {
			e.close()
		}
	}()

	start := time.Now()
	enc := cluster.SlimEncoderConfig()
	opts := cluster.Options{
		Nodes: clusterNodes, Rings: 1, P: def.p, MatchThreads: 1,
		Frontend: frontend.Config{PoolSize: frontendPool, Seed: seed},
		Encoder:  &enc, Seed: seed,
	}
	if def.cache {
		opts.Frontend.CacheBudget = cacheBudget
	}
	if def.wal {
		opts.IngestDir = filepath.Join(dir, "wal")
	}
	if err := assertUnthrottled(opts); err != nil {
		return nil, err
	}
	if e.c, err = cluster.Start(opts); err != nil {
		return nil, err
	}
	if e.matcher, err = pps.NewMatcher(e.c.Enc.ServerParams()); err != nil {
		return nil, err
	}
	e.recByID = map[uint64]pps.Encoded{}
	rng := rand.New(rand.NewSource(seed))
	switch def.plane {
	case "pps":
		nWrites := 0
		if def.wal {
			// Enough batches for warm-up and window, with one spare.
			nWrites = int((sz.warmup+time.Duration(seconds)*time.Second)/writePeriod) + 2
		}
		docs := genDocs(rng, seed, sz.ppsDocs+nWrites*writeBatch)
		recs, err := encryptAll(e.c.Enc, docs)
		if err != nil {
			return nil, err
		}
		e.docs, e.recs = docs, recs
		for i := 0; i < nWrites; i++ {
			lo := sz.ppsDocs + i*writeBatch
			e.writes = append(e.writes, recs[lo:lo+writeBatch])
		}
		t := time.Now()
		if err := e.c.LoadEncoded(recs[:sz.ppsDocs]); err != nil {
			return nil, err
		}
		e.loadCorpus = time.Since(t)
	case "index":
		if err := e.buildIndex(rng); err != nil {
			return nil, err
		}
	case "ingest":
		docs := genDocs(rng, seed, sentinelDocs)
		for i := range docs {
			docs[i].Keywords = []string{sentinelWord}
		}
		if e.sentinels, err = encryptAll(e.c.Enc, docs); err != nil {
			return nil, err
		}
		seen := map[uint64]bool{}
		for _, r := range e.sentinels {
			seen[r.ID] = true
		}
		for len(e.synthetic) < drainUniverse {
			md := pps.BloomMetadata{Nonce: make([]byte, len(e.sentinels[0].Nonce)), Filter: make([]byte, len(e.sentinels[0].Filter))}
			rng.Read(md.Nonce)
			rng.Read(md.Filter)
			e.synthetic = append(e.synthetic, pps.Encoded{ID: freshID(rng, seen), BloomMetadata: md})
		}
	}
	e.setup = time.Since(start)
	return e, nil
}

// assertUnthrottled refuses any hardware emulation: the benchmark
// prices the program's own CPU, codec, wire and WAL, not how well
// sleeps overlap. (Node.SetDelay is never called by this package.)
func assertUnthrottled(o cluster.Options) error {
	if o.NodeSpeeds != nil || o.FixedQueryCost != 0 || o.SpeedHints != nil {
		return fmt.Errorf("benchmark: workload sets NodeSpeeds, SpeedHints or FixedQueryCost; the cluster must run un-throttled")
	}
	return nil
}

// genDocs draws n documents of the synthetic home-directory corpus with
// distinct non-zero random ids and at most four keywords each, the
// slim encoding's budget.
func genDocs(rng *rand.Rand, seed int64, n int) []pps.Document {
	files := workload.NewCorpus(2000, seed).Generate(n)
	docs := make([]pps.Document, n)
	seen := map[uint64]bool{}
	for i, f := range files {
		id := freshID(rng, seen)
		kws := f.Keywords
		if len(kws) > 4 {
			kws = kws[:4]
		}
		docs[i] = pps.Document{ID: id, Path: f.Path, Size: f.Size, Modified: f.Modified, Keywords: kws}
	}
	return docs
}

// freshID draws a non-zero id not yet in seen, and adds it.
func freshID(rng *rand.Rand, seen map[uint64]bool) uint64 {
	id := rng.Uint64()
	for id == 0 || seen[id] {
		id = rng.Uint64()
	}
	seen[id] = true
	return id
}

// encryptAll encrypts on one goroutine per processor; the encoder's
// state is pooled and safe for concurrent use.
func encryptAll(enc *pps.Encoder, docs []pps.Document) ([]pps.Encoded, error) {
	recs := make([]pps.Encoded, len(docs))
	workers := clients()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(docs); i += workers {
				r, err := enc.EncryptDocument(docs[i])
				if err != nil {
					errs[w] = err
					return
				}
				recs[i] = r
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// indexDoc is one plaintext document of the index plane.
type indexDoc struct {
	id    uint64
	terms []string
}

func indexTerm(i int) string { return fmt.Sprintf("t%04d", i) }

// buildIndex generates the plain corpus, writes one segment file and
// attaches it to every node through its own Index (node-private posting
// caches, as separate processes would have).
func (e *env) buildIndex(rng *rand.Rand) error {
	z := workload.NewZipf(uint64(e.sz.indexVocab), 1.0, rng)
	bld := index.NewBuilder()
	seen := map[uint64]bool{}
	idocs := make([]indexDoc, e.sz.indexDocs)
	for i := range idocs {
		id := freshID(rng, seen)
		terms := make([]string, 4+rng.Intn(5))
		for j := range terms {
			terms[j] = indexTerm(int(z.Draw()))
		}
		idocs[i] = indexDoc{id: id, terms: terms}
		bld.Add(id, terms...)
	}
	e.segPath = filepath.Join(e.dir, "corpus.seg")
	if err := index.SaveFile(e.segPath, bld.Build("corpus")); err != nil {
		return err
	}
	st, err := os.Stat(e.segPath)
	if err != nil {
		return err
	}
	e.segBytes = st.Size()
	for _, n := range e.c.Nodes() {
		ix := index.New(indexCacheMiB << 20)
		e.indexes = append(e.indexes, ix)
		if err := ix.AddFile(e.segPath); err != nil {
			return err
		}
		n.SetIndex(ix)
	}
	e.idocs = idocs
	return nil
}

// postings is the oracle's view of a corpus: word -> ascending ids.
type postings map[string][]uint64

func (p postings) add(word string, id uint64) { p[word] = append(p[word], id) }

// sortAll puts every list in ascending order without duplicates (a
// document may name a term twice).
func (p postings) sortAll() {
	for w, ids := range p {
		slices.Sort(ids)
		p[w] = slices.Compact(ids)
	}
}

// and intersects the words' posting lists.
func (p postings) and(words []string) []uint64 {
	out := p[words[0]]
	for _, w := range words[1:] {
		next := p[w]
		var both []uint64
		for i, j := 0, 0; i < len(out) && j < len(next); {
			switch {
			case out[i] < next[j]:
				i++
			case out[i] > next[j]:
				j++
			default:
				both = append(both, out[i])
				i++
				j++
			}
		}
		out = both
	}
	return out
}

// buildPool draws the workload's distinct queries and computes each
// one's expected answer from the plaintext.
func (e *env) buildPool(seed int64) error {
	switch e.def.plane {
	case "index":
		return e.buildIndexPool(rand.New(rand.NewSource(seed ^ 0x5eed)))
	case "pps":
		return e.buildPPSPool()
	}
	// ingest_drain's only query is the final sentinel check.
	q, err := e.c.Enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: sentinelWord})
	if err != nil {
		return err
	}
	e.pool = []poolQuery{{spec: frontend.QuerySpec{Enc: q, CacheControl: proto.CacheBypass}, words: []string{sentinelWord}}}
	for _, r := range slices.Concat(e.sentinels, e.synthetic) {
		e.recByID[r.ID] = r
	}
	return nil
}

func (e *env) buildIndexPool(rng *rand.Rand) error {
	p := postings{} // the oracle's brute-force term -> ids map
	for _, d := range e.idocs {
		for _, t := range d.terms {
			p.add(t, d.id)
		}
	}
	p.sortAll()
	top := min(e.sz.indexTop, e.sz.indexVocab)
	seen := map[[2]int]bool{}
	for len(e.pool) < e.sz.pool && len(seen) < top*(top-1)/2 {
		a, b := rng.Intn(top), rng.Intn(top)
		if a > b {
			a, b = b, a
		}
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		words := []string{indexTerm(a), indexTerm(b)}
		want := p.and(words)
		if len(want) > indexLimit {
			want = want[:indexLimit]
		}
		e.pool = append(e.pool, poolQuery{
			spec: frontend.QuerySpec{
				Plain:        &proto.PlainQuery{Terms: words, Mode: uint8(index.ModeAnd), Limit: indexLimit},
				CacheControl: proto.CacheBypass,
			},
			words: words, want: want,
		})
	}
	return nil
}

// buildPPSPool makes the pool from the corpus's popular words, in a
// fixed order so that every seed's pool has the same shape (the open
// loop draws ranks Zipf, so what sits at rank 0 matters). The skipTop
// most frequent words are left out: each matches 7% to 65% of the
// corpus, and a record that matches costs the scan all 17 PRF
// evaluations where a miss costs about two, so they would make a
// query's cost depend mostly on which word it names. Even ranks are
// single-keyword queries from the next word down; odd ranks are
// two-keyword ANDs of the next hotWords words, most popular pair first.
// Answers are mostly non-empty, so a fast empty answer fails the oracle.
func (e *env) buildPPSPool() error {
	base := e.docs[:e.sz.ppsDocs]
	p := postings{}
	for _, d := range base {
		for _, kw := range d.Keywords {
			p.add(kw, d.ID)
		}
	}
	p.sortAll()
	ranked := make([]string, 0, len(p))
	for w := range p {
		ranked = append(ranked, w)
	}
	sort.Slice(ranked, func(a, b int) bool {
		if la, lb := len(p[ranked[a]]), len(p[ranked[b]]); la != lb {
			return la > lb
		}
		return ranked[a] < ranked[b]
	})
	for i, r := range e.recs {
		e.recByID[r.ID] = e.recs[i]
	}

	control := proto.CacheBypass
	if e.def.cache {
		control = proto.CacheDefault
	}
	const skipTop, hotWords = 8, 24
	var pairs [][2]int
	for sum := 1; sum < 2*hotWords; sum++ {
		for a := 0; a < hotWords && 2*a < sum; a++ {
			if b := sum - a; b < hotWords {
				pairs = append(pairs, [2]int{a, b})
			}
		}
	}
	for i := 0; len(e.pool) < e.sz.pool; i++ {
		var words []string
		switch {
		case i%2 == 0 && skipTop+i/2 < len(ranked):
			words = []string{ranked[skipTop+i/2]}
		case i%2 == 1 && i/2 < len(pairs) && skipTop+pairs[i/2][1] < len(ranked):
			words = []string{ranked[skipTop+pairs[i/2][0]], ranked[skipTop+pairs[i/2][1]]}
		case skipTop+i/2 >= len(ranked) && i/2 >= len(pairs):
			return fmt.Errorf("benchmark: corpus too small for a pool of %d queries", e.sz.pool)
		default:
			continue
		}
		preds := make([]pps.Predicate, len(words))
		for k, w := range words {
			preds[k] = pps.Predicate{Kind: pps.Keyword, Word: w}
		}
		q, err := e.c.Enc.EncryptQuery(pps.And, preds...)
		if err != nil {
			return err
		}
		e.pool = append(e.pool, poolQuery{
			spec:  frontend.QuerySpec{Enc: q, CacheControl: control},
			words: words, want: p.and(words),
		})
	}

	// Which pool queries each written document matches.
	byWord := map[string][]int{}
	for qi, q := range e.pool {
		byWord[q.words[0]] = append(byWord[q.words[0]], qi)
	}
	for b := range e.writes {
		for k := 0; k < writeBatch; k++ {
			d := e.docs[e.sz.ppsDocs+b*writeBatch+k]
			has := map[string]bool{}
			for _, kw := range d.Keywords {
				has[kw] = true
			}
			for _, kw := range d.Keywords {
				for _, qi := range byWord[kw] {
					q := &e.pool[qi]
					if len(q.words) == 2 && !has[q.words[1]] {
						continue
					}
					q.hits = append(q.hits, writeHit{batch: b, id: d.ID})
				}
			}
		}
	}
	return nil
}

// check is the oracle: got must be ascending and duplicate-free and hold
// every expected id: the plaintext truth, plus the written ids of
// batches below drained (visible before the query was sent). It may
// hold nothing else except written ids of batches below issued, or
// genuine Bloom false positives, which the real matcher, run here
// outside the cluster, confirms one record at a time. (A full
// pps.Matcher.MatchAll pass per pooled query costs ~15 ms each, more
// than the run itself.) The index plane has no false positives: its
// answer must equal the brute-force one.
func (e *env) check(q *poolQuery, got []uint64, drained, issued int) bool {
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			return false
		}
	}
	if q.spec.Plain != nil {
		return slices.Equal(got, q.want)
	}
	required := 0
	for _, h := range q.hits {
		if h.batch < drained {
			required++
		}
	}
	found, visible := 0, 0
	j := 0
next:
	for _, id := range got {
		for j < len(q.want) && q.want[j] < id {
			j++
		}
		if j < len(q.want) && q.want[j] == id {
			found++
			continue
		}
		for _, h := range q.hits {
			if h.id == id && h.batch < issued {
				if h.batch < drained {
					visible++
				}
				continue next
			}
		}
		rec, ok := e.recByID[id]
		if !ok || len(e.matcher.MatchAll(q.spec.Enc, []pps.Encoded{rec})) != 1 {
			return false
		}
	}
	return found == len(q.want) && visible == required
}
