// Command pps-client is the user side of Privacy Preserving Search: it
// owns the key, encrypts corpora and queries, and talks to a ROAR
// frontend. The servers never see plaintext or key material.
//
// Generate an encrypted corpus file (for roar-member to load):
//
//	pps-client -keyseed 1 -gen 10000 -out corpus.dat
//
// Ask the membership server to load it:
//
//	pps-client -member 127.0.0.1:7000 -load corpus.dat
//
// Search through a frontend:
//
//	pps-client -keyseed 1 -frontend 127.0.0.1:8000 -keyword w00012
//
// Drive load (64 concurrent clients, 1000 queries, 4 pooled conns):
//
//	pps-client -keyseed 1 -frontend 127.0.0.1:8000 -keyword w00012 \
//	    -count 1000 -concurrency 64 -pool 4
//
// Write a corpus through the async ingest path (docs/INGEST.md; the
// member must run with -wal):
//
//	pps-client -frontend 127.0.0.1:8000 -put corpus.dat
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"roar/internal/index"
	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/store"
	"roar/internal/wire"
	"roar/internal/workload"
)

func main() {
	var (
		keyseed  = flag.Int64("keyseed", 1, "deterministic key seed (demo only)")
		gen      = flag.Int("gen", 0, "generate N encrypted documents")
		out      = flag.String("out", "corpus.dat", "output file for -gen")
		member   = flag.String("member", "", "membership address for -load")
		load     = flag.String("load", "", "corpus file for the membership server to load")
		put      = flag.String("put", "", "corpus file to write through the frontend's async ingest (fe.put); requires -frontend and a WAL-enabled member")
		wait     = flag.Bool("wait", true, "with -put: poll until the delivery watermark covers the batch")
		fe       = flag.String("frontend", "", "frontend address for queries")
		keyword  = flag.String("keyword", "", "content keyword to search")
		path     = flag.String("path", "", "path component to search")
		sizeOver = flag.Float64("size-over", 0, "match files larger than this")
		idxOut   = flag.String("index-out", "", "with -gen: also write a plaintext index segment (for roar-node -index)")
		terms    = flag.String("terms", "", "comma-separated plaintext terms (queries the index data plane)")
		mode     = flag.String("mode", "and", "plaintext query mode: and, or, threshold")
		minMatch = flag.Int("min-match", 0, "terms that must match in threshold mode")
		limit    = flag.Int("limit", 0, "top-k cut for plaintext queries (0 = all)")
		count    = flag.Int("count", 1, "number of queries to issue")
		conc     = flag.Int("concurrency", 1, "concurrent in-flight queries")
		pool     = flag.Int("pool", 1, "TCP connections to the frontend")
		timeout  = flag.Duration("timeout", 0, "per-query deadline (0 = none)")
		tenant   = flag.String("tenant", "", "tenant id for per-tenant admission quotas and telemetry (empty = anonymous)")
		cacheCtl = flag.String("cache", "default", "result cache control: default, bypass, refresh")
	)
	flag.Parse()

	enc := pps.NewEncoder(pps.TestKey(*keyseed), pps.EncoderConfig{})

	switch {
	case *gen > 0:
		if err := generate(enc, *gen, *out, *idxOut); err != nil {
			fatal(err)
		}
	case *load != "":
		if *member == "" {
			fatal(fmt.Errorf("-load requires -member"))
		}
		cl := wire.NewClient(*member)
		defer cl.Close()
		var resp proto.LoadResp
		if err := cl.Call(context.Background(), proto.MMemberLoad, proto.LoadReq{Path: *load}, &resp); err != nil {
			fatal(err)
		}
		fmt.Printf("membership loaded %d records\n", resp.Records)
	case *put != "":
		if *fe == "" {
			fatal(fmt.Errorf("-put requires -frontend"))
		}
		if err := asyncPut(*fe, *put, *wait); err != nil {
			fatal(err)
		}
	case *fe != "":
		var req proto.FEQueryReq
		req.Tenant = *tenant
		switch *cacheCtl {
		case "", "default":
			req.CacheControl = proto.CacheDefault
		case "bypass":
			req.CacheControl = proto.CacheBypass
		case "refresh":
			req.CacheControl = proto.CacheRefresh
		default:
			fatal(fmt.Errorf("unknown -cache %q (default, bypass, refresh)", *cacheCtl))
		}
		if *terms != "" {
			pq, err := plainQuery(*terms, *mode, *minMatch, *limit)
			if err != nil {
				fatal(err)
			}
			req.Plain = pq
		} else {
			var preds []pps.Predicate
			if *keyword != "" {
				preds = append(preds, pps.Predicate{Kind: pps.Keyword, Word: *keyword})
			}
			if *path != "" {
				preds = append(preds, pps.Predicate{Kind: pps.PathComponent, Word: *path})
			}
			if *sizeOver > 0 {
				preds = append(preds, pps.Predicate{Kind: pps.SizeGreater, Value: *sizeOver})
			}
			if len(preds) == 0 {
				fatal(fmt.Errorf("no predicates; use -keyword/-path/-size-over or -terms"))
			}
			q, err := enc.EncryptQuery(pps.And, preds...)
			if err != nil {
				fatal(err)
			}
			req.Q = q
		}
		if *count > 1 || *conc > 1 {
			if err := loadTest(*fe, req, *count, *conc, *pool, *timeout); err != nil {
				fatal(err)
			}
		} else if err := search(*fe, req, *timeout); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
	}
}

// plainQuery parses the -terms/-mode/-min-match/-limit flags into the
// plaintext query the index data plane serves.
func plainQuery(terms, mode string, minMatch, limit int) (*proto.PlainQuery, error) {
	pq := &proto.PlainQuery{MinMatch: minMatch, Limit: limit}
	for _, t := range strings.Split(terms, ",") {
		if t = strings.TrimSpace(t); t != "" {
			pq.Terms = append(pq.Terms, t)
		}
	}
	if len(pq.Terms) == 0 {
		return nil, fmt.Errorf("-terms is empty")
	}
	switch mode {
	case "and":
		pq.Mode = uint8(index.ModeAnd)
	case "or":
		pq.Mode = uint8(index.ModeOr)
	case "threshold":
		pq.Mode = uint8(index.ModeThreshold)
		if minMatch <= 0 {
			return nil, fmt.Errorf("threshold mode needs -min-match")
		}
	default:
		return nil, fmt.Errorf("unknown -mode %q (and, or, threshold)", mode)
	}
	return pq, nil
}

func generate(enc *pps.Encoder, n int, out, idxOut string) error {
	gen := workload.NewCorpus(5000, 7)
	files := gen.Generate(n)
	rng := rand.New(rand.NewSource(99))
	recs := make([]pps.Encoded, 0, n)
	b := index.NewBuilder()
	for _, f := range files {
		kws := f.Keywords
		if len(kws) > 50 {
			kws = kws[:50]
		}
		d := pps.Document{ID: rng.Uint64(), Path: f.Path, Size: f.Size,
			Modified: f.Modified, Keywords: kws}
		r, err := enc.EncryptDocument(d)
		if err != nil {
			return err
		}
		recs = append(recs, r)
		if idxOut != "" {
			b.Add(d.ID, kws...)
		}
	}
	if err := store.SaveFile(out, recs); err != nil {
		return err
	}
	fmt.Printf("wrote %d encrypted records to %s (%d bytes each)\n", n, out, enc.MetadataBytes())
	if idxOut != "" {
		// The segment carries the SAME ids as the encrypted corpus, so a
		// plaintext -terms query and an encrypted -keyword query for the
		// same word must return identical id sets.
		if err := index.SaveFile(idxOut, b.Build("corpus")); err != nil {
			return err
		}
		fmt.Printf("wrote matching index segment to %s\n", idxOut)
	}
	return nil
}

// asyncPut streams a corpus file through the frontend's async ingest
// (fe.put). Each batch's reply means the records are fsynced into the
// coordinator's WAL — acceptance, not delivery; with wait, the delivery
// watermark is polled until the owning nodes have the whole file.
func asyncPut(addr, path string, wait bool) error {
	recs, err := store.LoadFile(context.Background(), path)
	if err != nil {
		return err
	}
	cl := wire.NewClient(addr)
	defer cl.Close()
	const batch = 256
	var last proto.FEPutResp
	start := time.Now()
	for at := 0; at < len(recs); at += batch {
		end := min(at+batch, len(recs))
		if err := cl.Call(context.Background(), proto.MFEPut, proto.FEPutReq{Records: recs[at:end]}, &last); err != nil {
			return fmt.Errorf("fe.put batch at %d: %w", at, err)
		}
	}
	fmt.Printf("accepted %d records (WAL seq %d, drained %d) in %v\n",
		len(recs), last.Seq, last.Drained, time.Since(start).Round(time.Millisecond))
	if !wait {
		return nil
	}
	for last.Drained < last.Seq {
		time.Sleep(100 * time.Millisecond)
		var poll proto.FEPutResp
		if err := cl.Call(context.Background(), proto.MFEPut, proto.FEPutReq{}, &poll); err != nil {
			return err
		}
		last.Drained = poll.Drained
	}
	fmt.Printf("drained through seq %d in %v\n", last.Seq, time.Since(start).Round(time.Millisecond))
	return nil
}

func search(addr string, req proto.FEQueryReq, timeout time.Duration) error {
	cl := wire.NewClient(addr)
	defer cl.Close()
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	var resp proto.FEQueryResp
	if err := cl.Call(ctx, proto.MFEQuery, req, &resp); err != nil {
		return err
	}
	source := ""
	if resp.Source != "" {
		source = ", via " + resp.Source
	}
	fmt.Printf("%d matches in %v (server-side %v, %d sub-queries, %d failures, %d hedges%s)\n",
		len(resp.IDs), time.Since(start).Round(time.Millisecond),
		time.Duration(resp.DelayNanos).Round(time.Millisecond),
		resp.SubQueries, resp.Failures, resp.Hedges, source)
	for i, id := range resp.IDs {
		if i >= 10 {
			fmt.Printf("  ... and %d more\n", len(resp.IDs)-10)
			break
		}
		fmt.Printf("  %d\n", id)
	}
	return nil
}

// loadTest issues count queries with conc concurrent workers over a
// pooled connection and reports throughput and the delay distribution —
// the client-side view of the frontend's execution pipeline.
func loadTest(addr string, req proto.FEQueryReq, count, conc, pool int, timeout time.Duration) error {
	if conc < 1 {
		conc = 1
	}
	cl := wire.NewClientWithConfig(addr, wire.ClientConfig{PoolSize: pool})
	defer cl.Close()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		delays   []float64
		failures int
		hedges   int
		hits     int
		firstErr error
		failed   atomic.Bool
		next     = make(chan struct{}, count)
	)
	for i := 0; i < count; i++ {
		next <- struct{}{}
	}
	close(next)
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range next {
				if failed.Load() {
					return // abandon the backlog after the first error
				}
				ctx := context.Background()
				var cancel context.CancelFunc
				if timeout > 0 {
					ctx, cancel = context.WithTimeout(ctx, timeout)
				}
				t0 := time.Now()
				var resp proto.FEQueryResp
				err := cl.Call(ctx, proto.MFEQuery, req, &resp)
				if cancel != nil {
					cancel()
				}
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
				delays = append(delays, time.Since(t0).Seconds())
				failures += resp.Failures
				hedges += resp.Hedges
				if resp.Source == "cache" {
					hits++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	wall := time.Since(start).Seconds()
	if len(delays) == 0 {
		return fmt.Errorf("no queries issued; -count must be positive")
	}
	sort.Float64s(delays)
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(delays)-1))
		return time.Duration(delays[i] * float64(time.Second))
	}
	fmt.Printf("%d queries, %d workers, pool %d: %.1f q/s (%d failures recovered, %d hedges, %d cache hits)\n",
		len(delays), conc, pool, float64(len(delays))/wall, failures, hedges, hits)
	fmt.Printf("delay p50 %v  p90 %v  p99 %v\n",
		pct(0.50).Round(time.Millisecond), pct(0.90).Round(time.Millisecond),
		pct(0.99).Round(time.Millisecond))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pps-client:", err)
	os.Exit(1)
}
