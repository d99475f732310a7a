// Package bench is the experiment harness: one function per table and
// figure of the paper's evaluation (Chapters 5, 6 and 7), each
// regenerating the same rows/series the paper reports. cmd/roar-bench
// runs them from the command line; bench_test.go exposes them as Go
// benchmarks. The measured end-to-end benchmark of the system itself is
// benchmark/ (see benchmark/README.md).
package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"roar/internal/pps"
	"roar/internal/workload"
)

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	// Run executes the experiment. quick selects a laptop-scale
	// parameterisation (used by `go test -bench`); full runs the
	// paper-scale sweep.
	Run func(quick bool) (Table, error)
}

var (
	regMu    sync.Mutex
	registry []Experiment
)

func register(e Experiment) {
	regMu.Lock()
	defer regMu.Unlock()
	registry = append(registry, e)
}

// All returns every experiment, sorted by id.
func All() []Experiment {
	regMu.Lock()
	defer regMu.Unlock()
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Get finds an experiment by id.
func Get(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---- shared corpus machinery ----------------------------------------

// benchEncoderConfig is the shared bench-scale encoding: a reduced word
// budget and Bloom parameters (9 hashes, 12 bits/word, fp ≈ 3e-3) keep
// large-corpus encryption affordable on small machines. The
// full-fidelity parameters are exercised by the pps package tests and
// FullEncoding cluster runs. Every cluster started by this package must
// use this config so nodes can match the shared corpus.
var benchEncoderConfig = pps.EncoderConfig{
	MaxKeywords: 4,
	MaxPathDir:  3,
	SizePoints:  pps.LinearPoints(0, 1e9, 8),
	DateDays:    365,
	DateSpan:    8,
	RankBuckets: []int{1},
	Hashes:      9,
	BitsPerWord: 12,
}

var slimEncoder = pps.NewEncoder(pps.TestKey(1), benchEncoderConfig)

var (
	corpusMu    sync.Mutex
	corpusDocs  []pps.Document
	corpusRecs  []pps.Encoded
	corpusWords []string
)

// sharedCorpus returns at least n encrypted records plus their plaintext
// documents. The corpus is deterministic, grows incrementally (only the
// new tail is encrypted) and encryption is parallelised across cores.
func sharedCorpus(n int) ([]pps.Document, []pps.Encoded, error) {
	corpusMu.Lock()
	defer corpusMu.Unlock()
	if len(corpusRecs) >= n {
		return corpusDocs[:n], corpusRecs[:n], nil
	}
	// Regenerate the deterministic plaintext prefix cheaply, then
	// encrypt only documents beyond the cached length.
	gen := workload.NewCorpus(3000, 7)
	files := gen.Generate(n)
	rng := rand.New(rand.NewSource(99))
	docs := make([]pps.Document, n)
	for i, f := range files {
		kws := f.Keywords
		if len(kws) > 4 {
			kws = kws[:4]
		}
		docs[i] = pps.Document{ID: rng.Uint64(), Path: f.Path, Size: f.Size,
			Modified: f.Modified, Keywords: kws}
	}
	recs := make([]pps.Encoded, n)
	copy(recs, corpusRecs)
	start := len(corpusRecs)
	var (
		wg   sync.WaitGroup
		merr error
		emu  sync.Mutex
	)
	workers := runtime.NumCPU()
	chunk := (n - start + workers - 1) / workers
	for off := start; off < n; off += chunk {
		end := off + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				r, err := slimEncoder.EncryptDocument(docs[i])
				if err != nil {
					emu.Lock()
					if merr == nil {
						merr = err
					}
					emu.Unlock()
					return
				}
				recs[i] = r
			}
		}(off, end)
	}
	wg.Wait()
	if merr != nil {
		return nil, nil, merr
	}
	corpusDocs, corpusRecs = docs, recs
	corpusWords = nil
	return corpusDocs[:n], corpusRecs[:n], nil
}

// missQuery returns a query matching (almost) no documents — the
// paper's methodology for measuring pure matching cost (§5.7 uses
// zero-match queries to exclude result-return costs).
func missQuery() (pps.Query, error) {
	return slimEncoder.EncryptQuery(pps.And,
		pps.Predicate{Kind: pps.Keyword, Word: "zzz-no-such-word"})
}

// popularWord returns a frequently occurring corpus keyword.
func popularWord(docs []pps.Document) string {
	counts := map[string]int{}
	for _, d := range docs {
		for _, k := range d.Keywords {
			counts[k]++
		}
	}
	best, bestN := "", 0
	for w, n := range counts {
		if n > bestN {
			best, bestN = w, n
		}
	}
	return best
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func fi(v int) string     { return fmt.Sprintf("%d", v) }
func fms(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}
