package frontend

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"roar/internal/index"
	"roar/internal/pps"
	"roar/internal/proto"
)

// plainCorpus builds a deterministic corpus of random-id documents.
func plainCorpus(rng *rand.Rand, docs int) map[uint64][]string {
	vocab := []string{"alpha", "beta", "gamma", "delta"}
	corpus := make(map[uint64][]string, docs)
	for len(corpus) < docs {
		id := rng.Uint64()
		if _, dup := corpus[id]; dup || id == 0 {
			continue
		}
		corpus[id] = vocab[:1+rng.Intn(len(vocab))]
	}
	return corpus
}

// TestExecutePlainEndToEnd drives plaintext queries through the full
// frontend pipeline — scheduling, wire RPC, binary codec, node-side
// matcher dispatch, merge — against real nodes serving a roaring index,
// and checks the merged answer against a local brute-force evaluation.
func TestExecutePlainEndToEnd(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 4, 1)
	rng := rand.New(rand.NewSource(7))
	corpus := plainCorpus(rng, 200)
	// Fully replicated layout (the plain-plane analogue of loadAll):
	// every node indexes the whole corpus; arc bounds on each sub-query
	// keep the merged answer duplicate-free.
	for _, nd := range nodes {
		b := index.NewBuilder()
		for id, terms := range corpus {
			b.Add(id, terms...)
		}
		ix := index.New(0)
		ix.AddSegment(b.Build("e2e"))
		nd.SetIndex(ix)
	}
	// Encrypted records ride alongside so the PPS plane stays exercised
	// through the shared pipeline.
	loadAll(t, nodes, enc, []string{"aa", "bb"})

	fe := New(Config{PQ: 4})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}

	brute := func(q proto.PlainQuery) []uint64 {
		var ids []uint64
		for id, terms := range corpus {
			have := make(map[string]bool, len(terms))
			for _, tm := range terms {
				have[tm] = true
			}
			n := 0
			for _, tm := range q.Terms {
				if have[tm] {
					n++
				}
			}
			min := q.MinMatch
			switch index.Mode(q.Mode) {
			case index.ModeAnd:
				min = len(q.Terms)
			case index.ModeOr:
				min = 1
			}
			if n >= min {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		if q.Limit > 0 && len(ids) > q.Limit {
			ids = ids[:q.Limit]
		}
		return ids
	}

	queries := []proto.PlainQuery{
		{Terms: []string{"alpha"}, Mode: uint8(index.ModeAnd)},
		{Terms: []string{"alpha", "gamma"}, Mode: uint8(index.ModeAnd)},
		{Terms: []string{"beta", "delta"}, Mode: uint8(index.ModeOr)},
		{Terms: []string{"beta", "gamma", "delta"}, Mode: uint8(index.ModeThreshold), MinMatch: 2},
		{Terms: []string{"alpha", "beta"}, Mode: uint8(index.ModeOr), Limit: 7},
		{Terms: []string{"missing"}, Mode: uint8(index.ModeAnd)},
	}
	for qi, pq := range queries {
		res, err := fe.Query(context.Background(), QuerySpec{Plain: &pq})
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		want := brute(pq)
		if len(res.IDs) != len(want) {
			t.Fatalf("query %d: got %d ids, want %d", qi, len(res.IDs), len(want))
		}
		for i := range want {
			if res.IDs[i] != want[i] {
				t.Fatalf("query %d: ids[%d] = %d, want %d", qi, i, res.IDs[i], want[i])
			}
		}
		if res.SubQueries != 4 {
			t.Fatalf("query %d: pq=4 should send 4 sub-queries, sent %d", qi, res.SubQueries)
		}
	}

	// The encrypted plane still answers through the same frontend.
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	res, err := fe.Query(context.Background(), QuerySpec{Enc: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 {
		t.Fatalf("encrypted query returned %d ids, want 1", len(res.IDs))
	}
}

// TestExecutePlainNoIndex pins the failure shape when a node has no
// index attached: the query fails rather than silently returning an
// empty (wrong) answer.
func TestExecutePlainNoIndex(t *testing.T) {
	enc := slimEncoder()
	v, _ := testView(t, enc, 2, 1)
	fe := New(Config{})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	_, err := fe.Query(context.Background(), QuerySpec{Plain: &proto.PlainQuery{Terms: []string{"x"}}})
	if err == nil {
		t.Fatal("plain query against index-less nodes must fail, not return empty")
	}
}
