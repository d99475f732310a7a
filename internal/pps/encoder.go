package pps

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Document is the plaintext description of one user file: the unit PPS
// encrypts and the distributed search matches (§5.5: filename/path,
// content keywords, and numeric attributes).
type Document struct {
	ID       uint64 // random identifier supplied by the user (§5.6.1)
	Path     string
	Size     int64
	Modified time.Time
	Keywords []string // content keywords in rank order, most important first
}

// Encoded is one encrypted metadata record as stored on servers. All
// attributes are embedded into a single Bloom filter with per-attribute
// word prefixes, the combined-dictionary encoding of §5.6.4, so the
// server cannot tell which attribute a query touches.
type Encoded struct {
	ID uint64
	BloomMetadata
}

// Encoder turns plaintext documents and queries into their encrypted
// forms. It owns the user's key material; servers never see it.
type Encoder struct {
	bloom      *Bloom
	sizePoints []float64
	datePoints []float64
	rankBkts   []int
	epoch      time.Time

	// The numeric signature words ("size>p", "date<p", ...) are a
	// vocabulary closed here, and most of every document's words: their
	// trapdoors are computed once each, at first use, and reused by every
	// document. Slot 2i is "> points[i]", slot 2i+1 "< points[i]".
	// Keywords and path components are an open vocabulary and are not
	// cached.
	sizeSig, dateSig []signatureSlot
}

// signatureSlot is one lazily computed signature-word trapdoor, as
// big-endian words: a document copies each element into a lane.
type signatureSlot struct {
	once sync.Once
	rows [][8]uint32
}

// trapdoor returns the slot's trapdoor, computing it at first use from
// its word, attr, cmp and the reference point p ("size>1e+06").
func (slot *signatureSlot) trapdoor(b *Bloom, attr string, cmp byte, p float64) [][8]uint32 {
	slot.once.Do(func() { slot.rows = trapdoorRows(b.Trapdoor(signatureWord(attr, cmp, p))) })
	return slot.rows
}

// signatureWord is the word of attr compared by cmp to the reference
// point p.
func signatureWord(attr string, cmp byte, p float64) string {
	return fmt.Sprintf("%s%c%g", attr, cmp, p)
}

// EncoderConfig tunes the combined encoding.
type EncoderConfig struct {
	MaxKeywords int       // per document (0 = 50, per §5.5)
	MaxPathDir  int       // path components indexed (0 = 22, per §5.5.2)
	SizePoints  []float64 // inequality reference points for file size
	DateDays    int       // date reference granularity in days (0 = 30)
	DateSpan    int       // number of date reference points (0 = 200, ≈16 years)
	RankBuckets []int     // rank buckets (nil = DefaultRankBuckets)
	Epoch       time.Time // date reference origin (zero = 2005-01-01)
	// Hashes and BitsPerWord override the Bloom filter parameters
	// (0 = the paper's 17 hashes at 25 bits/word, fp ≈ 1e-5). Tests and
	// large synthetic corpora may trade false-positive rate for
	// encryption speed.
	Hashes      int
	BitsPerWord int
}

// NewEncoder builds the encoder with the given key and config.
func NewEncoder(k MasterKey, cfg EncoderConfig) *Encoder {
	if cfg.MaxKeywords <= 0 {
		cfg.MaxKeywords = 50
	}
	if cfg.MaxPathDir <= 0 {
		cfg.MaxPathDir = 22
	}
	if cfg.SizePoints == nil {
		cfg.SizePoints = ExponentialPoints(1e12)
	}
	if cfg.DateDays <= 0 {
		cfg.DateDays = 30
	}
	if cfg.DateSpan <= 0 {
		cfg.DateSpan = 200
	}
	if cfg.RankBuckets == nil {
		cfg.RankBuckets = DefaultRankBuckets()
	}
	if cfg.Epoch.IsZero() {
		cfg.Epoch = time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	sort.Float64s(cfg.SizePoints)
	sort.Ints(cfg.RankBuckets)
	datePoints := make([]float64, cfg.DateSpan)
	for i := range datePoints {
		datePoints[i] = float64(i * cfg.DateDays)
	}
	// Word budget: keywords (plain + rank buckets) + path components +
	// one signature word per size and date reference point.
	words := cfg.MaxKeywords*(1+len(cfg.RankBuckets)) + cfg.MaxPathDir +
		len(cfg.SizePoints) + len(datePoints)
	bcfg := DefaultBloomConfig()
	bcfg.MaxWords = words
	if cfg.Hashes > 0 {
		bcfg.Hashes = cfg.Hashes
	}
	if cfg.BitsPerWord > 0 {
		bcfg.BitsPerWord = cfg.BitsPerWord
	}
	return &Encoder{
		bloom:      NewBloom(k, bcfg),
		sizePoints: cfg.SizePoints,
		datePoints: datePoints,
		rankBkts:   cfg.RankBuckets,
		epoch:      cfg.Epoch,
		sizeSig:    make([]signatureSlot, 2*len(cfg.SizePoints)),
		dateSig:    make([]signatureSlot, 2*len(datePoints)),
	}
}

// MetadataBytes returns the wire size of one encoded record.
func (e *Encoder) MetadataBytes() int { return 16 + (e.bloom.MBits()+7)/8 }

// QueryBytes returns the wire size of one encrypted predicate.
func (e *Encoder) QueryBytes() int { return e.bloom.QueryBytes() }

// ServerParams returns the public parameters a server needs to match
// queries (no key material): the filter size in bits.
func (e *Encoder) ServerParams() ServerParams { return ServerParams{MBits: e.bloom.MBits()} }

// EncryptDocument produces the combined encrypted metadata for a file:
// one allocation, the nonce and filter together.
func (e *Encoder) EncryptDocument(d Document) (Encoded, error) {
	md, err := e.bloom.newMetadata()
	if err != nil {
		return Encoded{}, fmt.Errorf("pps: encrypting document %d: %w", d.ID, err)
	}
	st := e.bloom.enc.Get().(*encState)
	n := e.encryptDocument(st, md, d)
	e.bloom.enc.Put(st)
	if err := e.bloom.checkBudget(n); err != nil {
		return Encoded{}, fmt.Errorf("pps: encrypting document %d: %w", d.ID, err)
	}
	return Encoded{ID: d.ID, BloomMetadata: md}, nil
}

// encryptDocument writes what d's filter holds into md.Filter, blinded
// under md.Nonce, on st, and returns the number of words: the open-
// vocabulary words, each written into st.word, and the numeric
// signatures, from their slots.
func (e *Encoder) encryptDocument(st *encState, md BloomMetadata, d Document) (n int) {
	st.begin(md.Nonce, md.Filter, e.bloom.mod)
	// Content keywords with rank buckets (§5.5.4).
	for rank, kw := range d.Keywords {
		st.word = append(append(st.word[:0], "kw="...), kw...)
		st.addWord()
		for _, b := range e.rankBkts {
			if rank < b {
				st.word = strconv.AppendInt(append(st.word[:0], "top"...), int64(b), 10)
				st.word = append(append(st.word, '='), kw...)
				st.addWord()
				n++
			}
		}
	}
	n += len(d.Keywords)
	// Path components (§5.5: all components of a path are searchable).
	for rest := d.Path; rest != ""; {
		var c string
		if c, rest, _ = strings.Cut(rest, "/"); c != "" {
			st.word = append(append(st.word[:0], "path="...), c...)
			st.addWord()
			n++
		}
	}
	// Numeric signature for size (§5.5.3 inequality encoding).
	n += e.addSignature(st, "size", e.sizeSig, float64(d.Size), e.sizePoints)
	// Numeric signature for modification date, in days since epoch.
	days := d.Modified.Sub(e.epoch).Hours() / 24
	n += e.addSignature(st, "date", e.dateSig, days, e.datePoints)
	st.end()
	return n
}

// addSignature adds the trapdoor of "attr>p" for every reference point
// below v and of "attr<p" for every one above it, and returns how many
// it added.
func (e *Encoder) addSignature(st *encState, attr string, slots []signatureSlot, v float64, points []float64) (n int) {
	for i, p := range points {
		var slot *signatureSlot
		var cmp byte
		switch {
		case v > p:
			slot, cmp = &slots[2*i], '>'
		case v < p:
			slot, cmp = &slots[2*i+1], '<'
		default:
			continue
		}
		st.add(slot.trapdoor(e.bloom, attr, cmp, p))
		n++
	}
	return n
}

// Predicate is one plaintext search condition.
type Predicate struct {
	Kind  PredKind
	Word  string  // for Keyword / Path
	Rank  int     // for KeywordRanked: the top-K bucket
	Value float64 // for numeric kinds
}

// PredKind enumerates the supported predicate types.
type PredKind int

// Supported predicate kinds.
const (
	Keyword       PredKind = iota // content keyword match
	KeywordRanked                 // keyword within top-K ranked features
	PathComponent                 // path component match
	SizeGreater                   // file size > Value
	SizeLess                      // file size < Value
	DateAfter                     // modified after epoch+Value days
	DateBefore                    // modified before epoch+Value days
)

// EncryptPredicate compiles one predicate to a trapdoor.
func (e *Encoder) EncryptPredicate(p Predicate) (BloomQuery, error) {
	switch p.Kind {
	case Keyword:
		return e.bloom.EncryptQuery("kw=" + p.Word), nil
	case KeywordRanked:
		for _, b := range e.rankBkts {
			if b == p.Rank {
				return e.bloom.EncryptQuery(fmt.Sprintf("top%d=%s", b, p.Word)), nil
			}
		}
		return BloomQuery{}, fmt.Errorf("pps: rank bucket %d not configured", p.Rank)
	case PathComponent:
		return e.bloom.EncryptQuery("path=" + p.Word), nil
	case SizeGreater, SizeLess, DateAfter, DateBefore:
		attr, points := "size", e.sizePoints
		if p.Kind == DateAfter || p.Kind == DateBefore {
			attr, points = "date", e.datePoints
		}
		if len(points) == 0 {
			return BloomQuery{}, fmt.Errorf("pps: no %s reference points configured", attr)
		}
		cmp := byte('<')
		if p.Kind == SizeGreater || p.Kind == DateAfter {
			cmp = '>'
		}
		return e.bloom.EncryptQuery(signatureWord(attr, cmp, nearestPoint(points, p.Value))), nil
	default:
		return BloomQuery{}, fmt.Errorf("pps: unknown predicate kind %d", p.Kind)
	}
}

func nearestPoint(points []float64, v float64) float64 {
	i := sort.SearchFloat64s(points, v)
	if i == 0 {
		return points[0]
	}
	if i == len(points) {
		return points[len(points)-1]
	}
	if v-points[i-1] <= points[i]-v {
		return points[i-1]
	}
	return points[i]
}

// BoolOp combines predicates in a multi-predicate query (§5.6.5).
type BoolOp int

// Query combinators.
const (
	And BoolOp = iota
	Or
)

// Query is an encrypted multi-predicate query as shipped to servers, in
// the binary form AppendQuery writes.
type Query struct {
	Preds []BloomQuery
	Op    BoolOp
}

// EncryptQuery compiles a conjunction/disjunction of predicates.
func (e *Encoder) EncryptQuery(op BoolOp, preds ...Predicate) (Query, error) {
	q := Query{Op: op, Preds: make([]BloomQuery, 0, len(preds))}
	for _, p := range preds {
		bq, err := e.EncryptPredicate(p)
		if err != nil {
			return Query{}, err
		}
		q.Preds = append(q.Preds, bq)
	}
	return q, nil
}
