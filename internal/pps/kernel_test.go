package pps

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestFastPRFSelected: the toolchain CI builds with must take the fast
// evaluator. A crypto/sha256 whose marshaled state changed would still
// match correctly through crypto/hmac, at a third of the speed; this
// makes that fail loudly instead.
func TestFastPRFSelected(t *testing.T) {
	if !fastPRF {
		t.Fatal("crypto/sha256's marshaled state no longer has the layout kernel.go reads; the matcher is on the crypto/hmac path")
	}
	var k prfKernel
	k.init()
	if k.h == nil {
		t.Fatal("init did not select the fast evaluator")
	}
}

// kernelPaths returns a kernel on each evaluation path.
func kernelPaths() map[string]*prfKernel {
	fast, generic := new(prfKernel), new(prfKernel)
	fast.init()
	return map[string]*prfKernel{"fast": fast, "generic": generic}
}

// TestKernelMatchesHMAC: both kernel paths must be bit-identical to the
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
					if got, want := k.sum(padMsg(data)), prf(key, data); !bytes.Equal(got, want) {
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

// FuzzKernelMatchesHMAC: any key, any message, both paths, and a
// schedule installed into a kernel last keyed for something else.
func FuzzKernelMatchesHMAC(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), []byte("trapdoor-element-0123456789abcde"))
	f.Add([]byte{}, []byte{})
	f.Add(bytes.Repeat([]byte{1}, 65), bytes.Repeat([]byte{2}, 56))
	f.Fuzz(func(t *testing.T, key, data []byte) {
		want := prf(key, data)
		for name, k := range kernelPaths() {
			k.setKey(key)
			if got := k.sum(padMsg(data)); !bytes.Equal(got, want) {
				t.Fatalf("%s: HMAC(%x, %x) = %x, want %x", name, key, data, got, want)
			}
		}
		var a, b prfKernel
		a.init()
		b.init()
		ks := a.derive(key)
		b.setKey(data)
		b.install(&ks)
		if got := b.sum(padMsg(data)); !bytes.Equal(got, want) {
			t.Fatalf("installed schedule: HMAC(%x, %x) = %x, want %x", key, data, got, want)
		}
	})
}

// TestKernelRekeying: interleaved re-keying (the per-record pattern),
// by key and by installed schedule, never leaks state between keys.
func TestKernelRekeying(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var k prfKernel
	k.init()
	keys := make([][]byte, 8)
	recs := make([]Encoded, len(keys))
	for i := range keys {
		keys[i] = make([]byte, 16)
		rng.Read(keys[i])
		recs[i].Nonce = keys[i]
	}
	ks := AppendKeySchedules(nil, recs)
	data := []byte("trapdoor-element-0123456789abcdef")
	for trial := 0; trial < 64; trial++ {
		i := rng.Intn(len(keys))
		if trial%2 == 0 {
			k.setKey(keys[i])
		} else {
			k.install(&ks[i])
		}
		if got, want := k.sum64(padMsg(data)), prfUint64(keys[i], data); got != want {
			t.Fatalf("trial %d: kernel %x != reference %x after re-keying", trial, got, want)
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
// entry points agree, on both kernel paths (the generic path ignores the
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

// TestMatchSteadyStateZeroAlloc is the acceptance gate: once the
// predicate order settles, matching a record performs no heap
// allocations — keyed from its nonce or from a stored schedule — and
// neither does deriving the schedules into a grown slice.
func TestMatchSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only meaningful without -race")
	}
	m, q, mds := kernelCorpus(t, SelectivitySamples+64, 3)
	run := m.NewRun(q)
	for i := 0; i < SelectivitySamples; i++ {
		run.Match(mds[i%len(mds)].BloomMetadata)
	}
	if run.Order() == nil {
		t.Fatal("order did not settle")
	}
	steady := mds[SelectivitySamples:]
	out := make([]uint64, 0, len(steady))
	allocs := testing.AllocsPerRun(50, func() {
		out = run.MatchBatch(steady, out[:0])
	})
	if allocs != 0 {
		t.Fatalf("settled-order MatchBatch allocates %.1f objects per scan, want 0", allocs)
	}
	ks := make([]KeySchedule, 0, len(steady))
	allocs = testing.AllocsPerRun(50, func() {
		ks = AppendKeySchedules(ks[:0], steady)
		out = run.MatchScheduled(steady, ks, out[:0])
	})
	if allocs != 0 {
		t.Fatalf("derive + settled-order MatchScheduled allocates %.1f objects per scan, want 0", allocs)
	}
}

// BenchmarkMatchKernel compares, in the settled-order steady state, the
// generic crypto/hmac evaluation per hash (as MatchOne does) against the
// zero-allocation kernel keyed per record from the nonce ("kernel": what
// MatchFile and MatchAll pay) and from a stored schedule ("scheduled":
// what store.MatchArc pays). Run with -benchmem.
func BenchmarkMatchKernel(b *testing.B) {
	m, q, mds := kernelCorpus(b, SelectivitySamples+1024, 3)
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
	b.Run("scheduled", func(b *testing.B) {
		run := m.NewRun(q)
		run.MatchBatch(mds[:SelectivitySamples], nil)
		ks := AppendKeySchedules(nil, steady)
		out := make([]uint64, 0, 1)
		b.ReportAllocs()
		b.ResetTimer()
		matched := 0
		for i := 0; i < b.N; i++ {
			j := i % len(steady)
			matched += len(run.MatchScheduled(steady[j:j+1], ks[j:j+1], out[:0]))
		}
		b.ReportMetric(float64(matched)/float64(b.N), "hit-rate")
	})
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
	slim := EncoderConfig{MaxKeywords: 4, MaxPathDir: 4, SizePoints: LinearPoints(0, 1e9, 16), DateDays: 90, DateSpan: 40, RankBuckets: []int{1, 5}}
	for name, cfg := range map[string]EncoderConfig{"slim": slim, "default": {}} {
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
