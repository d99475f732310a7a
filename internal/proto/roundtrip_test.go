package proto

import (
	"bytes"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"roar/internal/pps"
)

// wireBody is a binary body's codec: T encodes by value, *T decodes.
type wireBody[T any] interface {
	*T
	AppendWire([]byte) []byte
	DecodeWire([]byte) error
}

// checkFixedPoint asserts the contract every binary body keeps: v
// encodes to bytes that decode to a value deep-equal to v, and
// re-encoding that value gives the same bytes. v is a generated body,
// or one decoded from arbitrary bytes (the FuzzDecode* targets).
func checkFixedPoint[T any, P wireBody[T]](t *testing.T, v T) {
	t.Helper()
	enc := P(&v).AppendWire(nil)
	var back T
	if err := P(&back).DecodeWire(enc); err != nil {
		t.Fatalf("%T: decoding its own encoding: %v\nvalue %+v", v, err, v)
	}
	if !reflect.DeepEqual(back, v) {
		t.Fatalf("%T: decode(encode(v)) != v:\n got %+v\nwant %+v", v, back, v)
	}
	if again := P(&back).AppendWire(nil); !bytes.Equal(again, enc) {
		t.Fatalf("%T: re-encoding changed the bytes:\n got %x\nwant %x", v, again, enc)
	}
}

// golden is one fixed input of TestBinaryCodecGoldenRoundTrip.
type golden[T any] struct {
	name string
	v    T
}

// TestBinaryCodecGoldenRoundTrip is the check on the six binary bodies'
// codecs. For each body's fixed cases and 300 seeded random values, the
// binary round trip gives back the value, so does its JSON round trip
// (JSON is the reference), and re-encoding gives the same bytes. Every
// exported field the generated values reach through pointers, slices
// and embedded structs must be non-zero in one of them: a new body field
// fails here until it goes into the generator, and then until it goes
// on the wire.
func TestBinaryCodecGoldenRoundTrip(t *testing.T) {
	t.Run("QueryReq", func(t *testing.T) {
		roundTrips(t, []golden[QueryReq]{
			{"trapdoors", testQueryReq(3, 4)},
			{"empty", QueryReq{}},
			{"plain", QueryReq{QID: 9, Lo: 0.25, Hi: 0.75, Plain: &PlainQuery{
				Terms: []string{"alpha", "beta", "gamma"}, Mode: 2, MinMatch: 2, Limit: 10,
			}}},
			{"plain-or", QueryReq{Plain: &PlainQuery{Terms: []string{"x"}, Mode: 1}}},
		}, func(rng *rand.Rand) QueryReq {
			q := QueryReq{QID: rng.Uint64(), Lo: rng.Float64(), Hi: rng.Float64()}
			q.Flags = []uint8{0, QueryMemo, QueryMemoRefill}[rng.Intn(3)]
			q.Q, q.Plain = randQueryBlock(rng)
			return q
		})
	})
	t.Run("FEQueryReq", func(t *testing.T) {
		roundTrips(t, []golden[FEQueryReq]{
			{"trapdoors", testFEQueryReq()},
			{"plain", FEQueryReq{Plain: &PlainQuery{Terms: []string{"alpha", "beta"}, Mode: 2, MinMatch: 1, Limit: 9}, Priority: 1}},
			{"tenant", FEQueryReq{Q: testQueryReq(1, 2).Q, Tenant: "acme", CacheControl: CacheBypass}},
			{"plain-tenant", FEQueryReq{Plain: &PlainQuery{Terms: []string{"x"}}, Tenant: "t-1"}},
			{"refresh", FEQueryReq{CacheControl: CacheRefresh}},
		}, func(rng *rand.Rand) FEQueryReq {
			q := FEQueryReq{Priority: rng.Intn(3) - 1, Tenant: randWord(rng), CacheControl: uint8(rng.Intn(3))}
			q.Q, q.Plain = randQueryBlock(rng)
			return q
		})
	})
	t.Run("QueryResp", func(t *testing.T) {
		roundTrips(t, []golden[QueryResp]{
			{"sorted", QueryResp{IDs: []uint64{3, 9, 9, 4096, 1 << 40, 1<<63 + 7}, Scanned: 5000, MatchNanos: 123456789, QueueDepth: 3}},
			{"unsorted", QueryResp{IDs: []uint64{99, 7, 1 << 50, 12}, Scanned: 1}},
			{"empty", QueryResp{}},
		}, func(rng *rand.Rand) QueryResp {
			return QueryResp{IDs: randIDs(rng), Scanned: rng.Intn(1e6), MatchNanos: rng.Int63n(1e9), QueueDepth: rng.Intn(64)}
		})
	})
	t.Run("PutReq", func(t *testing.T) {
		roundTrips(t, []golden[PutReq]{
			{"records", PutReq{Records: testRecords(7)}},
			{"empty", PutReq{}},
			{"fenced", PutReq{Records: testRecords(3), Epoch: 42}},
		}, func(rng *rand.Rand) PutReq {
			return PutReq{Records: randRecords(rng), Epoch: rng.Intn(1000)}
		})
	})
	t.Run("IngestReq", func(t *testing.T) {
		roundTrips(t, []golden[IngestReq]{
			{"records", IngestReq{Records: testRecords(5)}},
			{"empty", IngestReq{}},
		}, func(rng *rand.Rand) IngestReq { return IngestReq{Records: randRecords(rng)} })
	})
	t.Run("DrainedResp", func(t *testing.T) {
		roundTrips(t, []golden[DrainedResp]{
			{"records", DrainedResp{Records: testRecords(5)}},
			{"empty", DrainedResp{}},
		}, func(rng *rand.Rand) DrainedResp { return DrainedResp{Records: randRecords(rng)} })
	})
}

// roundTrips runs TestBinaryCodecGoldenRoundTrip's property over one
// body's fixed cases, each a subtest, and over 300 values of gen, after
// which it runs the coverage check.
func roundTrips[T any, P wireBody[T]](t *testing.T, fixed []golden[T], gen func(*rand.Rand) T) {
	check := func(t *testing.T, v T) {
		t.Helper()
		checkFixedPoint[T, P](t, v)
		roundTrip(t, v) // v's JSON round trip deep-equals v, so the binary one's too
	}
	for _, c := range fixed {
		t.Run(c.name, func(t *testing.T) { check(t, c.v) })
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		set := map[string]bool{}
		for i := 0; i < 300 && !t.Failed(); i++ {
			v := gen(rng)
			check(t, v)
			markFields(reflect.ValueOf(v), reflect.TypeFor[T]().Name(), set)
		}
		if t.Failed() {
			return
		}
		for _, path := range slices.Sorted(maps.Keys(set)) {
			if !set[path] {
				t.Errorf("no generated value set %s non-zero: a body field must go on the wire and into the generator", path)
			}
		}
	})
}

// markFields records in set, under its path from the body
// ("QueryReq.Q.Preds[].Trapdoor"), each exported field v reaches through
// pointers, slices and struct fields, embedded ones included: true once
// a value holds it non-zero (a slice counts when non-empty).
func markFields(v reflect.Value, path string, set map[string]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			markFields(v.Elem(), path, set)
		}
	case reflect.Slice:
		for i := range v.Len() {
			markFields(v.Index(i), path+"[]", set)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			f, fv := v.Type().Field(i), v.Field(i)
			if !f.IsExported() {
				continue
			}
			p := path + "." + f.Name
			set[p] = set[p] || !fv.IsZero() && (fv.Kind() != reflect.Slice || fv.Len() > 0)
			markFields(fv, p, set)
		}
	}
}

// randBytes draws n random bytes; nil when n is 0, the decoders' one
// form of an empty byte string.
func randBytes(rng *rand.Rand, n int) []byte {
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// randWord draws a short lowercase string, possibly empty: JSON, the
// reference, carries only valid UTF-8.
func randWord(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(8))
	for i := range b {
		b[i] = 'a' + byte(rng.Intn(26))
	}
	return string(b)
}

// randQueryBlock draws the block both query bodies share: an encrypted
// query, a plaintext one, or both. A trapdoor element may be empty; a
// predicate's trapdoor may have no elements, and is then empty but not
// nil, as pps.DecodeQuery returns it.
func randQueryBlock(rng *rand.Rand) (q pps.Query, plain *PlainQuery) {
	shape := rng.Intn(3) // 0: Q alone, 1: Plain alone, 2: both
	if shape != 1 {
		q.Op = pps.BoolOp(rng.Intn(2))
		for range 1 + rng.Intn(3) {
			td := [][]byte{}
			for range rng.Intn(5) {
				td = append(td, randBytes(rng, 16*rng.Intn(3)))
			}
			q.Preds = append(q.Preds, pps.BloomQuery{Trapdoor: td})
		}
	}
	if shape != 0 {
		plain = &PlainQuery{Mode: uint8(rng.Intn(3)), MinMatch: rng.Intn(4), Limit: rng.Intn(100)}
		for range rng.Intn(4) {
			plain.Terms = append(plain.Terms, randWord(rng))
		}
	}
	return q, plain
}

// randIDs draws up to 39 ids, sorted (the delta form) or in draw order
// (the absolute form); nil when there are none.
func randIDs(rng *rand.Rand) []uint64 {
	n := rng.Intn(40)
	if n == 0 {
		return nil
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = rng.Uint64() >> rng.Intn(64)
	}
	if rng.Intn(2) == 0 {
		slices.Sort(ids)
	}
	return ids
}

// randRecords draws up to 5 records, each nonce and filter empty or not.
func randRecords(rng *rand.Rand) []pps.Encoded {
	var recs []pps.Encoded
	for range rng.Intn(6) {
		recs = append(recs, pps.Encoded{ID: rng.Uint64(), BloomMetadata: pps.BloomMetadata{
			Nonce: randBytes(rng, 16*rng.Intn(2)), Filter: randBytes(rng, 120*rng.Intn(2)),
		}})
	}
	return recs
}

func testFEQueryReq() FEQueryReq {
	return FEQueryReq{Q: testQueryReq(2, 3).Q, Priority: -1}
}

// The FuzzDecode* targets: truncated or corrupt bodies must error or
// decode, never panic or over-allocate, and a body that decodes keeps
// checkFixedPoint's contract.

func FuzzDecodeQueryReq(f *testing.F) {
	f.Add(testQueryReq(2, 3).AppendWire(nil))
	f.Add(QueryReq{QID: 1, Hi: 1, Plain: &PlainQuery{Terms: []string{"alpha", "beta"}, Limit: 5}}.AppendWire(nil))
	f.Add(QueryReq{QID: 1, Hi: 1, Flags: QueryMemoRefill, Q: testQueryReq(1, 2).Q}.AppendWire(nil))
	f.Add(unknownFlagsQueryReq())
	f.Add(QueryReq{Lo: math.NaN(), Hi: math.Inf(1)}.AppendWire(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q QueryReq
		if q.DecodeWire(data) != nil {
			return
		}
		if q.Flags&^(QueryMemo|QueryMemoRefill) != 0 {
			t.Fatalf("decoder accepted undefined flag bits %#02x", q.Flags)
		}
		if math.IsNaN(q.Lo) || math.IsInf(q.Lo, 0) || math.IsNaN(q.Hi) || math.IsInf(q.Hi, 0) {
			t.Fatalf("decoder accepted non-finite bounds (%v, %v]", q.Lo, q.Hi)
		}
		checkFixedPoint(t, q)
	})
}

func FuzzDecodeFEQueryReq(f *testing.F) {
	f.Add(testFEQueryReq().AppendWire(nil))
	f.Add(FEQueryReq{
		Plain:  &PlainQuery{Terms: []string{"alpha", "beta"}, Limit: 5},
		Tenant: "acme", CacheControl: CacheBypass,
	}.AppendWire(nil))
	f.Add(FEQueryReq{Q: testQueryReq(1, 1).Q, CacheControl: CacheRefresh}.AppendWire(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q FEQueryReq
		if q.DecodeWire(data) == nil {
			checkFixedPoint(t, q)
		}
	})
}

func FuzzDecodeQueryResp(f *testing.F) {
	f.Add(QueryResp{IDs: []uint64{1, 5, 9}, Scanned: 10}.AppendWire(nil))
	f.Add([]byte{0x00})
	f.Add(QueryResp{IDs: []uint64{9, 1, 5}, MatchNanos: 7, QueueDepth: 2}.AppendWire(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var q QueryResp
		if q.DecodeWire(data) == nil {
			checkFixedPoint(t, q)
		}
	})
}

func FuzzDecodePutReq(f *testing.F) {
	f.Add(PutReq{Records: testRecords(2)}.AppendWire(nil))
	f.Add(PutReq{Records: testRecords(1), Epoch: 1 << 20}.AppendWire(nil))
	f.Add([]byte{0xff, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p PutReq
		if p.DecodeWire(data) == nil {
			checkFixedPoint(t, p)
		}
	})
}

func FuzzDecodeIngestReq(f *testing.F) {
	f.Add(IngestReq{Records: testRecords(2)}.AppendWire(nil))
	f.Add(IngestReq{Records: testRecords(1)}.AppendWire(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q IngestReq
		if q.DecodeWire(data) == nil {
			checkFixedPoint(t, q)
		}
	})
}

// FuzzDecodeDrainedResp: each frontend decodes this body from the
// coordinator.
func FuzzDecodeDrainedResp(f *testing.F) {
	f.Add(DrainedResp{Records: testRecords(2)}.AppendWire(nil))
	f.Add(DrainedResp{Records: []pps.Encoded{{ID: 1}}}.AppendWire(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q DrainedResp
		if q.DecodeWire(data) == nil {
			checkFixedPoint(t, q)
		}
	})
}
