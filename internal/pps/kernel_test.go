package pps

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFastPRFSelected: a process takes the SHA-NI compress exactly
// when the CPU has what Go's crypto/sha256 requires for it (as Linux
// lists it in /proc/cpuinfo, which cross-checks the CPUID probe) and
// the build carries it, and the portable compress otherwise. A
// crypto/sha256 whose marshaled state changed would still match
// correctly through crypto/hmac, at a third of the speed; this makes
// that fail loudly instead.
func TestFastPRFSelected(t *testing.T) {
	if !portableOK {
		t.Fatal("crypto/sha256's marshaled state no longer has the layout the portable compress reads")
	}
	var k prfKernel
	k.init()
	if k.path != bestPath {
		t.Fatalf("init selected path %d, bestPath is %d", k.path, bestPath)
	}
	flags := cpuFlags(t)
	want := pathPortable
	if shaniBuilt && flags["sha_ni"] && flags["ssse3"] && flags["sse4_1"] && flags["avx"] {
		want = pathSHANI
	}
	if bestPath != want {
		t.Fatalf("bestPath = %d, want %d (SHA-NI built: %v; cpuinfo sha_ni=%v ssse3=%v sse4_1=%v avx=%v)",
			bestPath, want, shaniBuilt, flags["sha_ni"], flags["ssse3"], flags["sse4_1"], flags["avx"])
	}
}

// cpuFlags returns the CPU flags Linux lists in /proc/cpuinfo, or skips
// the test where there are none to cross-check a probe against.
func cpuFlags(t *testing.T) map[string]bool {
	t.Helper()
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to cross-check the probe against: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if name, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(v) {
				flags[f] = true
			}
			break
		}
	}
	return flags
}

// prfPaths names every evaluation path this build and CPU can run.
func prfPaths() map[string]prfPath {
	paths := map[string]prfPath{"generic": pathGeneric}
	if useSHANI {
		paths["shani"] = pathSHANI
	}
	if portableOK {
		paths["portable"] = pathPortable
	}
	return paths
}

// scanPaths names every way this build and CPU can scan a scheduled
// batch: each evaluation path on the per-record loop, and "avx512", the
// lane path (whose tail runs on bestPath).
func scanPaths() map[string]prfPath {
	paths := prfPaths()
	if useLanes {
		paths["avx512"] = bestPath
	}
	return paths
}

// newScanRun returns a Run for q on evaluation path p, with or without
// the lane path.
func newScanRun(m *Matcher, q Query, p prfPath, lanes bool) *Run {
	run := m.NewRun(q)
	run.prf.initPath(p)
	if !lanes {
		run.lanes = nil
	}
	return run
}

// kernelPaths returns a kernel on each evaluation path.
func kernelPaths() map[string]*prfKernel {
	ks := map[string]*prfKernel{}
	for name, p := range prfPaths() {
		ks[name] = new(prfKernel)
		ks[name].initPath(p)
	}
	return ks
}

// TestKernelMatchesHMAC: every kernel path must be bit-identical to the
// crypto/hmac reference at every padding boundary (a message of 55
// bytes is the longest whose padding fits its own block, 56 the first
// that needs another; 119/120 likewise one block on) and for keys that
// are empty, nonce-sized, exactly one block, and long enough for the
// RFC 2104 pre-hash.
func TestKernelMatchesHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, k := range kernelPaths() {
		for _, keyLen := range []int{0, 16, 32, 64, 65, 200} {
			for _, dataLen := range []int{0, 1, 31, 32, 55, 56, 64, 119, 120, 200} {
				key := make([]byte, keyLen)
				rng.Read(key)
				k.setKey(key)
				for trial := 0; trial < 3; trial++ { // repeated evals on one key
					data := make([]byte, dataLen)
					rng.Read(data)
					if got, want := k.sum(padMsg(data)), prf(key, data); !bytes.Equal(got[:], want) {
						t.Fatalf("%s: digest mismatch at keyLen=%d dataLen=%d", name, keyLen, dataLen)
					}
					if k.sum64(padMsg(data)) != prfUint64(key, data) {
						t.Fatalf("%s: sum64 mismatch at keyLen=%d dataLen=%d", name, keyLen, dataLen)
					}
				}
			}
		}
	}
}

// FuzzKernelMatchesHMAC: any key, any message, every path, and on each
// compress path a schedule installed into a kernel last keyed for
// something else.
func FuzzKernelMatchesHMAC(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), []byte("trapdoor-element-0123456789abcde"))
	f.Add([]byte{}, []byte{})
	f.Add(bytes.Repeat([]byte{1}, 65), bytes.Repeat([]byte{2}, 56))
	f.Fuzz(func(t *testing.T, key, data []byte) {
		want := prf(key, data)
		for name, k := range kernelPaths() {
			k.setKey(key)
			if got := k.sum(padMsg(data)); !bytes.Equal(got[:], want) {
				t.Fatalf("%s: HMAC(%x, %x) = %x, want %x", name, key, data, got, want)
			}
			if k.path == pathGeneric {
				continue
			}
			ks := k.derive(key)
			k.setKey(data)
			k.install(&ks)
			if got := k.sum(padMsg(data)); !bytes.Equal(got[:], want) {
				t.Fatalf("%s: installed schedule: HMAC(%x, %x) = %x, want %x", name, key, data, got, want)
			}
		}
	})
}

// TestKernelRekeying: interleaved re-keying (the per-record pattern),
// by key and by installed schedule, never leaks state between keys, on
// every path (the generic path has no schedules: it re-keys by key).
func TestKernelRekeying(t *testing.T) {
	for name, k := range kernelPaths() {
		rng := rand.New(rand.NewSource(11))
		keys := make([][]byte, 8)
		recs := make([]Encoded, len(keys))
		for i := range keys {
			keys[i] = make([]byte, 16)
			rng.Read(keys[i])
			recs[i].Nonce = keys[i]
		}
		ks := appendKeySchedules(k, nil, recs)
		data := []byte("trapdoor-element-0123456789abcdef")
		for trial := 0; trial < 64; trial++ {
			i := rng.Intn(len(keys))
			if trial%2 == 0 || k.path == pathGeneric {
				k.setKey(keys[i])
			} else {
				k.install(&ks[i])
			}
			if got, want := k.sum64(padMsg(data)), prfUint64(keys[i], data); got != want {
				t.Fatalf("%s: trial %d: kernel %x != reference %x after re-keying", name, trial, got, want)
			}
		}
	}
}

// kernelCorpus builds a deterministic corpus plus an AND query whose
// predicates all hit `hitEvery`-th record.
func kernelCorpus(t testing.TB, n, preds int) (*Matcher, Query, []Encoded) {
	t.Helper()
	key := TestKey(42)
	enc := NewEncoder(key, EncoderConfig{Hashes: 4, BitsPerWord: 12})
	mds := make([]Encoded, 0, n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		kws := []string{"common"}
		if i%3 == 0 {
			kws = append(kws, "sparse")
		}
		kws = append(kws, fmt.Sprintf("unique-%d", i))
		e, err := enc.EncryptDocument(Document{
			ID:       rng.Uint64(),
			Path:     "/home/user/docs",
			Size:     int64(1000 + i),
			Modified: time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC),
			Keywords: kws,
		})
		if err != nil {
			t.Fatal(err)
		}
		mds = append(mds, e)
	}
	ps := []Predicate{{Kind: Keyword, Word: "common"}, {Kind: Keyword, Word: "sparse"}}
	for len(ps) < preds {
		ps = append(ps, Predicate{Kind: PathComponent, Word: "docs"})
	}
	q, err := enc.EncryptQuery(And, ps[:preds]...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatcher(enc.ServerParams())
	if err != nil {
		t.Fatal(err)
	}
	return m, q, mds
}

// TestRunMatchesLegacyKernel: the kernel-backed Run must agree with the
// generic MatchOne evaluation on every record, before and after the
// order settles.
func TestRunMatchesLegacyKernel(t *testing.T) {
	m, q, mds := kernelCorpus(t, SelectivitySamples+200, 2)
	run := m.NewRun(q)
	for i := range mds {
		want := true
		for _, p := range q.Preds {
			if !m.MatchOne(p, mds[i].BloomMetadata) {
				want = false
				break
			}
		}
		if got := run.Match(mds[i].BloomMetadata); got != want {
			t.Fatalf("record %d (settled=%v): kernel=%v legacy=%v", i, run.Order() != nil, got, want)
		}
	}
	if run.Order() == nil {
		t.Fatal("order never settled")
	}
}

// TestMatchBatchMatchesMatch: the single-record, batch and scheduled
// entry points agree, on the best and the generic path (which ignores the
// schedules and keys from the nonces).
func TestMatchBatchMatchesMatch(t *testing.T) {
	m, q, mds := kernelCorpus(t, 400, 2)
	single := m.NewRun(q)
	var want []uint64
	for i := range mds {
		if single.Match(mds[i].BloomMetadata) {
			want = append(want, mds[i].ID)
		}
	}
	ks := AppendKeySchedules(nil, mds)
	generic := m.NewRun(q)
	generic.prf = prfKernel{}
	for name, got := range map[string][]uint64{
		"MatchBatch":             m.NewRun(q).MatchBatch(mds, nil),
		"MatchScheduled":         m.NewRun(q).MatchScheduled(mds, ks, nil),
		"MatchScheduled/generic": generic.MatchScheduled(mds, ks, nil),
	} {
		if !slices.Equal(got, want) {
			t.Errorf("%s found %d ids %v, Match found %d %v", name, len(got), got, len(want), want)
		}
	}
}

// TestShortFilterMatchesNothing: a record whose filter is shorter than
// MBits (a writer's bug or malice; nothing upstream checks) must not
// index past the slice — it matches nothing, on every entry point.
func TestShortFilterMatchesNothing(t *testing.T) {
	m, q, mds := kernelCorpus(t, 8, 2)
	for _, n := range []int{0, 1, len(mds[0].Filter) - 1} {
		bad := mds[0]
		bad.Filter = bad.Filter[:n]
		recs := []Encoded{bad}
		if m.MatchOne(q.Preds[0], bad.BloomMetadata) {
			t.Errorf("MatchOne matched a %d-byte filter", n)
		}
		if m.NewRun(q).Match(bad.BloomMetadata) {
			t.Errorf("Run.Match matched a %d-byte filter", n)
		}
		if got := m.NewRun(Query{Op: And, Preds: q.Preds[:1]}).MatchBatch(recs, nil); len(got) != 0 {
			t.Errorf("single-predicate MatchBatch matched a %d-byte filter", n)
		}
		if got := m.NewRun(q).MatchScheduled(recs, AppendKeySchedules(nil, recs), nil); len(got) != 0 {
			t.Errorf("MatchScheduled matched a %d-byte filter", n)
		}
	}
}

// TestMatchSteadyStateZeroAlloc is the acceptance gate: on every
// compress path and on the lane path, once the predicate order settles,
// matching a 256-record batch performs no heap allocations — keyed from
// the nonces or from stored schedules — and neither does deriving the
// schedules into a pre-grown slice, nor a round of sampling that
// settles the order.
func TestMatchSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only meaningful without -race")
	}
	m, q, mds := kernelCorpus(t, SelectivitySamples+256, 3)
	steady := mds[SelectivitySamples:]
	for name, p := range scanPaths() {
		if p == pathGeneric {
			continue // crypto/hmac allocates per evaluation
		}
		run := newScanRun(m, q, p, name == "avx512")
		for i := 0; i < SelectivitySamples; i++ {
			run.Match(mds[i%len(mds)].BloomMetadata)
		}
		if run.Order() == nil {
			t.Fatalf("%s: order did not settle", name)
		}
		out := make([]uint64, 0, len(steady))
		allocs := testing.AllocsPerRun(50, func() {
			out = run.MatchBatch(steady, out[:0])
		})
		if allocs != 0 {
			t.Errorf("%s: settled-order MatchBatch allocates %.1f objects per scan, want 0", name, allocs)
		}
		var k prfKernel
		k.initPath(p)
		ks := make([]KeySchedule, 0, len(steady))
		allocs = testing.AllocsPerRun(50, func() {
			ks = appendKeySchedules(&k, ks[:0], steady)
		})
		if allocs != 0 {
			t.Errorf("%s: deriving schedules into a grown slice allocates %.1f objects per scan, want 0", name, allocs)
		}
		allocs = testing.AllocsPerRun(50, func() {
			out = run.MatchScheduled(steady, ks, out[:0])
		})
		if allocs != 0 {
			t.Errorf("%s: settled-order MatchScheduled allocates %.1f objects per scan, want 0", name, allocs)
		}
		sample := mds[:SelectivitySamples]
		sks := AppendKeySchedules(nil, sample)
		allocs = testing.AllocsPerRun(50, func() {
			run.restartSampling()
			out = run.MatchScheduled(sample, sks, out[:0])
		})
		if allocs != 0 || run.Order() == nil {
			t.Errorf("%s: sampling %d records allocates %.1f objects (settled on %v), want 0", name, len(sample), allocs, run.Order())
		}
	}
	ks := make([]KeySchedule, 0, len(steady))
	if allocs := testing.AllocsPerRun(50, func() {
		ks = AppendKeySchedules(ks[:0], steady)
	}); allocs != 0 {
		t.Errorf("AppendKeySchedules into a grown slice allocates %.1f objects per call, want 0", allocs)
	}
}

// TestNewRunAllocations: a Run costs a fixed handful of allocations
// whatever its trapdoors' length (every element is padded into one
// buffer): at most 8 for the slim encoding's one-keyword predicate (17
// elements), which every node leg and every patched cache hit builds, and
// for a three-predicate query.
func TestNewRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only meaningful without -race")
	}
	e := NewEncoder(TestKey(63), slimConfig())
	m, err := NewMatcher(e.ServerParams())
	if err != nil {
		t.Fatal(err)
	}
	kw := Predicate{Kind: Keyword, Word: "alpha"}
	for _, preds := range [][]Predicate{{kw}, {kw, {Kind: PathComponent, Word: "docs"}, {Kind: SizeGreater, Value: 1e6}}} {
		q, err := e.EncryptQuery(And, preds...)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() { m.NewRun(q) }); allocs > 8 {
			t.Errorf("NewRun of %d predicates (%d elements each) allocates %.1f objects, want at most 8", len(preds), len(q.Preds[0].Trapdoor), allocs)
		}
	}
}

// scanBatch is the store's default BatchSize: the records one
// MatchScheduled call sees.
const scanBatch = LaneWindow

// BenchmarkMatchKernel compares, in the settled-order steady state, the
// generic crypto/hmac evaluation per hash (as MatchOne does) against the
// zero-allocation kernel keyed per record from the nonce ("kernel":
// Run.Match, one record per call) and from stored schedules in
// scanBatch-record batches ("scheduled": what store.MatchArc pays, on
// the best path),
// then "scheduled" on each path this build and CPU can run
// ("scheduled/<path>", the lane path as "avx512"). "sampling/<path>",
// on every path but generic, is the cost of a sampled record: a
// two-predicate Run over its first SelectivitySamples records, every
// predicate evaluated, restarted without allocating for the next round.
// An op is one record. Run with -benchmem.
func BenchmarkMatchKernel(b *testing.B) {
	const batch = scanBatch
	m, q, mds := kernelCorpus(b, SelectivitySamples+4*batch, 3)
	steady := mds[SelectivitySamples:]

	// Settle one run to copy its order for the legacy loop.
	settle := m.NewRun(q)
	for i := 0; i < SelectivitySamples; i++ {
		settle.Match(mds[i].BloomMetadata)
	}
	order := settle.Order()
	if order == nil {
		b.Fatal("order did not settle")
	}

	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		matched := 0
		for i := 0; i < b.N; i++ {
			md := steady[i%len(steady)].BloomMetadata
			ok := true
			for _, p := range order {
				if !m.MatchOne(q.Preds[p], md) {
					ok = false
					break
				}
			}
			if ok {
				matched++
			}
		}
		b.ReportMetric(float64(matched)/float64(b.N), "hit-rate")
	})
	b.Run("kernel", func(b *testing.B) {
		run := m.NewRun(q)
		for i := 0; i < SelectivitySamples; i++ {
			run.Match(mds[i].BloomMetadata)
		}
		b.ReportAllocs()
		b.ResetTimer()
		matched := 0
		for i := 0; i < b.N; i++ {
			if run.Match(steady[i%len(steady)].BloomMetadata) {
				matched++
			}
		}
		b.ReportMetric(float64(matched)/float64(b.N), "hit-rate")
	})
	scheduled := func(p prfPath, lanes bool) func(*testing.B) {
		return func(b *testing.B) {
			run := newScanRun(m, q, p, lanes)
			run.MatchBatch(mds[:SelectivitySamples], nil)
			ks := AppendKeySchedules(nil, steady)
			out := make([]uint64, 0, batch)
			b.ReportAllocs()
			b.ResetTimer()
			matched := 0
			for i := 0; i < b.N; i += batch { // an op is a record
				j := i % len(steady)
				n := min(batch, b.N-i)
				matched += len(run.MatchScheduled(steady[j:j+n], ks[j:j+n], out[:0]))
			}
			b.ReportMetric(float64(matched)/float64(b.N), "hit-rate")
		}
	}
	sampling := func(p prfPath, lanes bool) func(*testing.B) {
		return func(b *testing.B) {
			two := Query{Op: q.Op, Preds: q.Preds[:2]}
			run := newScanRun(m, two, p, lanes)
			recs := mds[:SelectivitySamples]
			ks := AppendKeySchedules(nil, recs)
			out := make([]uint64, 0, len(recs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(recs) { // an op is a record
				run.restartSampling()
				n := min(len(recs), b.N-i)
				run.MatchScheduled(recs[:n], ks[:n], out[:0])
				if n == len(recs) && run.Order() == nil {
					b.Fatal("sampling did not settle")
				}
			}
		}
	}
	b.Run("scheduled", scheduled(bestPath, useLanes))
	for _, name := range []string{"avx512", "shani", "portable", "generic"} {
		if p, ok := scanPaths()[name]; ok {
			b.Run("scheduled/"+name, scheduled(p, name == "avx512"))
		}
	}
	for _, name := range []string{"avx512", "shani", "portable"} {
		if p, ok := scanPaths()[name]; ok {
			b.Run("sampling/"+name, sampling(p, name == "avx512"))
		}
	}
}

// restartSampling returns a Run to its first record's state, keeping its
// storage, so a benchmark can sample again without allocating.
func (r *Run) restartSampling() {
	r.sampled, r.order = 0, nil
	clear(r.counts)
}

// prfSink keeps BenchmarkPRFEval's results live.
var prfSink uint64

// BenchmarkPRFEval is the cost of one PRF evaluation of a 32-byte
// element under a stored schedule: "shani" is one compress-path
// evaluation (keys cycling through a scanBatch-record batch), "avx512"
// one hmac16 call divided by its 16 lanes (the encoder's: one key, 16
// elements), "avx512-element" one hmac16el call divided by its 16 lanes
// (the matcher's: 16 keys by index, cycling through the batch, one
// element).
func BenchmarkPRFEval(b *testing.B) {
	const batch = scanBatch
	rng := rand.New(rand.NewSource(3))
	recs := make([]Encoded, batch)
	for i := range recs {
		recs[i].Nonce = make([]byte, 16)
		rng.Read(recs[i].Nonce)
	}
	ks := AppendKeySchedules(nil, recs)
	x := make([]byte, 32)
	rng.Read(x)
	if useSHANI {
		b.Run("shani", func(b *testing.B) {
			var k prfKernel
			k.initPath(pathSHANI)
			m := padMsg(x)
			for i := 0; i < b.N; i++ {
				k.install(&ks[i%batch])
				prfSink += k.sum64(m)
			}
		})
	}
	if useLanes {
		b.Run("avx512", func(b *testing.B) {
			var (
				msg [16][8]uint32
				h   [2][16]uint32
			)
			for i := 0; i < b.N; i += 16 { // an op is one lane's evaluation
				hmac16(&ks[0], &msg, &h)
			}
		})
		b.Run("avx512-element", func(b *testing.B) {
			l := (&Matcher{mBits: 1}).NewRun(Query{Preds: []BloomQuery{{Trapdoor: [][]byte{x}}}}).lanes
			var idx [16]uint16
			for i := 0; i < b.N; i += 16 { // an op is one lane's evaluation
				for j := range idx {
					idx[j] = uint16(i+j) % batch
				}
				hmac16el(&ks[0], &idx, &l.wk[0], &l.h)
			}
		})
	}
}

// BenchmarkEncryptMetadata measures the write-side path the pooled
// encode kernels accelerate (replica pushes encrypt whole corpora).
func BenchmarkEncryptMetadata(b *testing.B) {
	key := TestKey(42)
	s := NewBloom(key, BloomConfig{MaxWords: 64, Hashes: 4, BitsPerWord: 12})
	words := make([]string, 32)
	for i := range words {
		words[i] = fmt.Sprintf("kw=word-%d", i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.EncryptMetadata(words); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSignatureTrapdoorsMatchWords: with the nonce fixed, a document
// encrypted through the encoder's cached signature trapdoors is byte for
// byte the filter of the same words given as strings, on the first
// document (slots being filled) and on later ones (slots reused), from
// concurrent encoders, for a slim and the default configuration.
func TestSignatureTrapdoorsMatchWords(t *testing.T) {
	for name, cfg := range map[string]EncoderConfig{"slim": slimConfig(), "default": {}} {
		e := NewEncoder(TestKey(5), cfg)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < 20; i++ {
					d := Document{
						ID:       uint64(i),
						Path:     fmt.Sprintf("/home/u%d/docs/f%d.txt", g, i),
						Size:     rng.Int63n(2e9),
						Modified: time.Date(2005+rng.Intn(12), time.Month(1+rng.Intn(12)), 1+rng.Intn(28), 0, 0, 0, 0, time.UTC),
						Keywords: []string{"alpha", fmt.Sprintf("w%d", rng.Intn(50))},
					}
					if i == 0 {
						d.Size = int64(e.sizePoints[3]) // on a reference point: neither word
					}
					words, sig := e.documentWords(d)
					if len(sig) < len(e.datePoints)/2 {
						t.Errorf("%s: only %d signature trapdoors", name, len(sig))
					}
					ref := words
					for _, p := range e.sizePoints {
						if v := float64(d.Size); v > p {
							ref = append(ref, fmt.Sprintf("size>%g", p))
						} else if v < p {
							ref = append(ref, fmt.Sprintf("size<%g", p))
						}
					}
					days := d.Modified.Sub(e.epoch).Hours() / 24
					for _, p := range e.datePoints {
						if days > p {
							ref = append(ref, fmt.Sprintf("date>%g", p))
						} else if days < p {
							ref = append(ref, fmt.Sprintf("date<%g", p))
						}
					}
					rnd := make([]byte, 16)
					rng.Read(rnd)
					got := e.bloom.encryptMetadata(rnd, words, sig)
					want := e.bloom.encryptMetadata(rnd, ref, nil)
					if !bytes.Equal(got.Filter, want.Filter) {
						t.Errorf("%s: document %d: filter through cached trapdoors differs from the words' filter", name, i)
					}
				}
			}()
		}
		wg.Wait()
	}
}
