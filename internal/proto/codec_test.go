package proto

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"roar/internal/binfmt"
	"roar/internal/pps"
)

func testQueryReq(preds, tdLen int) QueryReq {
	rng := rand.New(rand.NewSource(3))
	q := QueryReq{QID: 12345, Lo: 0.125, Hi: 0.875}
	for i := 0; i < preds; i++ {
		var bq pps.BloomQuery
		for j := 0; j < tdLen; j++ {
			x := make([]byte, 32)
			rng.Read(x)
			bq.Trapdoor = append(bq.Trapdoor, x)
		}
		q.Q.Preds = append(q.Q.Preds, bq)
	}
	q.Q.Op = pps.Or
	return q
}

func testRecords(n int) []pps.Encoded {
	rng := rand.New(rand.NewSource(5))
	recs := make([]pps.Encoded, n)
	for i := range recs {
		recs[i].ID = rng.Uint64()
		recs[i].Nonce = make([]byte, 16)
		rng.Read(recs[i].Nonce)
		recs[i].Filter = make([]byte, 120)
		rng.Read(recs[i].Filter)
	}
	return recs
}

// TestBinaryCodecDecodeCopies: decoded byte slices must not alias the
// input buffer (it is pooled and will be overwritten). IngestReq is the
// record body whose decode copies: the coordinator keeps its records past
// the call. PutReq's records are views by design; that nothing keeps
// them past the node's handler is TestNodePutKeepsNoFrameBytes (node).
func TestBinaryCodecDecodeCopies(t *testing.T) {
	in := IngestReq{Records: testRecords(2)}
	buf := in.AppendWire(nil)
	var out IngestReq
	if err := out.DecodeWire(buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xAA
	}
	if string(out.Records[0].Nonce) != string(in.Records[0].Nonce) {
		t.Fatal("decoded nonce aliases the input buffer")
	}
	if string(out.Records[1].Filter) != string(in.Records[1].Filter) {
		t.Fatal("decoded filter aliases the input buffer")
	}
}

// TestBinaryQueryReqSize: the binary QueryReq sheds the base64 tax and
// JSON structure — ≥30% fewer wire bytes (the trapdoor matrix itself is
// pseudorandom and incompressible, which bounds the on-wire ratio).
func TestBinaryQueryReqSize(t *testing.T) {
	q := testQueryReq(3, 17) // the paper's r=17 hash count
	bin := q.AppendWire(nil)
	jb, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("QueryReq: binary=%dB json=%dB (%.1f%%)", len(bin), len(jb), 100*float64(len(bin))/float64(len(jb)))
	if len(bin)*10 > len(jb)*7 {
		t.Fatalf("binary QueryReq %dB not ≥30%% smaller than JSON %dB", len(bin), len(jb))
	}
}

// TestBinaryQueryReqBytesPerOp is the acceptance gate: a binary
// QueryReq encode+decode cycle must allocate ≥50% fewer bytes per op
// than the JSON cycle it replaces (it measures ~70% fewer; the wall
// clock gap is larger still).
func TestBinaryQueryReqBytesPerOp(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed assertion; skipped in -short")
	}
	q := testQueryReq(3, 17)
	jr := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := json.Marshal(q)
			if err != nil {
				b.Fatal(err)
			}
			var out QueryReq
			if err := json.Unmarshal(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 4096)
		for i := 0; i < b.N; i++ {
			buf = q.AppendWire(buf[:0])
			var out QueryReq
			if err := out.DecodeWire(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	jB, bB := jr.AllocedBytesPerOp(), br.AllocedBytesPerOp()
	t.Logf("QueryReq codec cycle: json=%d B/op, binary=%d B/op (%.1f%%)", jB, bB, 100*float64(bB)/float64(jB))
	if bB*2 > jB {
		t.Fatalf("binary QueryReq %d B/op not ≥50%% below JSON %d B/op", bB, jB)
	}
}

// TestBinaryPutReqSize: replica pushes shrink too — raw nonce/filter vs
// base64 (a 4/3 tax on the dominant filter bytes) plus varint ids vs
// decimal strings and per-record JSON keys bound the ratio at ~70%.
func TestBinaryPutReqSize(t *testing.T) {
	p := PutReq{Records: testRecords(50)}
	bin := p.AppendWire(nil)
	jb, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("PutReq(50): binary=%dB json=%dB (%.1f%%)", len(bin), len(jb), 100*float64(len(bin))/float64(len(jb)))
	if len(bin)*10 > len(jb)*7 {
		t.Fatalf("binary PutReq %dB not ≥30%% smaller than JSON %dB", len(bin), len(jb))
	}
}

// TestBinaryQueryRespDelta: sorted id sets delta-compress; dense sets
// beat both the absolute encoding and JSON by a wide margin.
func TestBinaryQueryRespDelta(t *testing.T) {
	dense := make([]uint64, 1000)
	base := uint64(1 << 40)
	for i := range dense {
		base += uint64(i % 100)
		dense[i] = base
	}
	resp := QueryResp{IDs: dense, Scanned: 100000}
	bin := resp.AppendWire(nil)
	jb, _ := json.Marshal(resp)
	if len(bin)*4 > len(jb) {
		t.Fatalf("delta-coded dense ids: binary %dB, want ≤25%% of JSON %dB", len(bin), len(jb))
	}
	var out QueryResp
	if err := out.DecodeWire(bin); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.IDs, dense) {
		t.Fatal("delta decode diverged")
	}
}

// TestDecodeCorruptCountBounded: a body declaring a huge element count
// with no matching bytes must fail cheaply — decoders grow slices
// incrementally, so a 16 MB-frame-sized lie cannot force a multi-
// hundred-MB up-front allocation.
func TestDecodeCorruptCountBounded(t *testing.T) {
	// uvarint(16M) followed by nothing: count passes the minBytes sanity
	// check only if backed by bytes, so this must error immediately.
	huge := binary.AppendUvarint(nil, 16<<20)
	var p PutReq
	if err := p.DecodeWire(huge); err == nil {
		t.Fatal("PutReq with phantom records must error")
	}
	// A count that passes the wire-bytes check but runs out of records
	// must stop at the first failed element, not pre-allocate n slots:
	// one real record followed by padding that dies parsing record 2.
	rec := testRecords(1)[0]
	body := binary.AppendUvarint(nil, 1<<20) // claims a million records
	body = binary.AppendUvarint(body, rec.ID)
	body = binary.AppendUvarint(body, uint64(len(rec.Nonce)))
	body = append(body, rec.Nonce...)
	body = binary.AppendUvarint(body, uint64(len(rec.Filter)))
	body = append(body, rec.Filter...)
	pad := make([]byte, 3<<20)
	for i := range pad {
		pad[i] = 0xff // overlong varints: record 2's nonce length is absurd
	}
	body = append(body, pad...)
	var p2 PutReq
	if err := p2.DecodeWire(body); err == nil {
		t.Fatal("PutReq with truncated record stream must error")
	}
}

// TestFlatCodecGoldenBytes pins the exact bytes of the flat encodings:
// every scalar is written whether or not it is zero, and an optional
// struct sits behind a presence byte. Each is the type's ONE wire form,
// so every strict prefix must fail to decode (no shorter "base" form
// exists) and so must any continuation past the last field.
func TestFlatCodecGoldenBytes(t *testing.T) {
	type codec interface {
		AppendWire([]byte) []byte
	}
	type decoder interface{ DecodeWire([]byte) error }
	td := pps.Query{Op: pps.Or, Preds: []pps.BloomQuery{{Trapdoor: [][]byte{{0xAA, 0xBB}}}}}
	f64 := func(v float64) string { return string(binary.BigEndian.AppendUint64(nil, math.Float64bits(v))) }
	cases := []struct {
		name string
		in   codec
		out  func() decoder
		want string
	}{
		{"QueryReq", QueryReq{QID: 5, Lo: 0.25, Hi: 0.75, Q: td}, func() decoder { return &QueryReq{} },
			"\x05" + f64(0.25) + f64(0.75) + "\x00" + "\x01\x01\x01\x02\xaa\xbb" + "\x00"},
		{"QueryReq/memo", QueryReq{QID: 5, Lo: 0.25, Hi: 0.75, Flags: QueryMemo, Q: td}, func() decoder { return &QueryReq{} },
			"\x05" + f64(0.25) + f64(0.75) + "\x01" + "\x01\x01\x01\x02\xaa\xbb" + "\x00"},
		{"QueryReq/memo-refill", QueryReq{QID: 5, Lo: 0.25, Hi: 0.75, Flags: QueryMemoRefill, Q: td}, func() decoder { return &QueryReq{} },
			"\x05" + f64(0.25) + f64(0.75) + "\x02" + "\x01\x01\x01\x02\xaa\xbb" + "\x00"},
		{"QueryReq/plain", QueryReq{QID: 5, Lo: 0.25, Hi: 0.75, Plain: &PlainQuery{Terms: []string{"ab"}, Mode: 2, MinMatch: 1, Limit: 3}},
			func() decoder { return &QueryReq{} },
			"\x05" + f64(0.25) + f64(0.75) + "\x00" + "\x00\x00" + "\x01\x02\x02\x06\x01\x02ab"},
		{"QueryReq/plain-memo", QueryReq{QID: 5, Lo: 0.25, Hi: 0.75, Flags: QueryMemo, Plain: &PlainQuery{Terms: []string{"ab"}, Mode: 2, MinMatch: 1, Limit: 3}},
			func() decoder { return &QueryReq{} },
			"\x05" + f64(0.25) + f64(0.75) + "\x01" + "\x00\x00" + "\x01\x02\x02\x06\x01\x02ab"},
		{"QueryReq/plain-memo-refill", QueryReq{QID: 5, Lo: 0.25, Hi: 0.75, Flags: QueryMemoRefill, Plain: &PlainQuery{Terms: []string{"ab"}, Mode: 2, MinMatch: 1, Limit: 3}},
			func() decoder { return &QueryReq{} },
			"\x05" + f64(0.25) + f64(0.75) + "\x02" + "\x00\x00" + "\x01\x02\x02\x06\x01\x02ab"},
		{"FEQueryReq", FEQueryReq{Q: td, Priority: -1, Tenant: "t7", CacheControl: CacheRefresh},
			func() decoder { return &FEQueryReq{} },
			"\x01\x01\x01\x01\x02\xaa\xbb" + "\x00" + "\x02t7\x02"},
		{"FEQueryReq/anonymous", FEQueryReq{Plain: &PlainQuery{Terms: []string{"x"}}},
			func() decoder { return &FEQueryReq{} },
			"\x00\x00\x00" + "\x01\x00\x00\x00\x01\x01x" + "\x00\x00"},
		{"PutReq", PutReq{Records: []pps.Encoded{{ID: 7, BloomMetadata: pps.BloomMetadata{Nonce: []byte{1, 2}, Filter: []byte{3}}}}, Epoch: 21},
			func() decoder { return &PutReq{} },
			"\x01\x07\x02\x01\x02\x01\x03" + "\x2a"},
		{"PutReq/unfenced", PutReq{}, func() decoder { return &PutReq{} }, "\x00\x00"},
		{"QueryResp", QueryResp{IDs: []uint64{3, 5, 300}, Scanned: 2, MatchNanos: 7, QueueDepth: 1}, func() decoder { return &QueryResp{} },
			"\x04\x0e\x02" + "\x01\x03\x03\x02\xa7\x02"},
		{"QueryResp/unsorted", QueryResp{IDs: []uint64{300, 5}, Scanned: 1}, func() decoder { return &QueryResp{} },
			"\x02\x00\x00" + "\x00\x02\xac\x02\x05"},
		{"IngestReq", IngestReq{Records: []pps.Encoded{{ID: 7, BloomMetadata: pps.BloomMetadata{Nonce: []byte{1, 2}, Filter: []byte{3}}}}},
			func() decoder { return &IngestReq{} },
			"\x01\x07\x02\x01\x02\x01\x03"},
		{"DrainedResp", DrainedResp{Records: []pps.Encoded{{ID: 7, BloomMetadata: pps.BloomMetadata{Nonce: []byte{1, 2}, Filter: []byte{3}}}}},
			func() decoder { return &DrainedResp{} },
			"\x01\x07\x02\x01\x02\x01\x03"},
		{"DrainedResp/empty", DrainedResp{}, func() decoder { return &DrainedResp{} }, "\x00"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.in.AppendWire(nil)
			if string(got) != c.want {
				t.Fatalf("encoding changed:\n got %x\nwant %x", got, c.want)
			}
			out := c.out()
			if err := out.DecodeWire(got); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if back := reflect.ValueOf(out).Elem().Interface(); !reflect.DeepEqual(back, c.in) {
				t.Fatalf("round trip diverged:\n got %+v\nwant %+v", back, c.in)
			}
			for cut := 0; cut < len(got); cut++ {
				if err := c.out().DecodeWire(got[:cut]); err == nil {
					t.Fatalf("truncation at %d/%d decoded cleanly", cut, len(got))
				}
			}
			var tbe *binfmt.TrailingBytesError
			if err := c.out().DecodeWire(append(got, 0)); !errors.As(err, &tbe) {
				t.Fatalf("trailing byte: %v, want *binfmt.TrailingBytesError", err)
			}
		})
	}
}

// unknownFlagsQueryReq is a well-formed QueryReq body but for one
// undefined bit in its flags byte (offset: 1-byte QID, Lo, Hi).
func unknownFlagsQueryReq() []byte {
	b := QueryReq{QID: 5, Lo: 0.25, Hi: 0.75, Flags: QueryMemo, Q: testQueryReq(1, 1).Q}.AppendWire(nil)
	b[1+8+8] |= 0x80
	return b
}

// TestQueryReqRejectsUnknownFlags: a bit this version does not define is
// a typed decode error, never silently dropped or obeyed.
func TestQueryReqRejectsUnknownFlags(t *testing.T) {
	var q QueryReq
	err := q.DecodeWire(unknownFlagsQueryReq())
	var ufe *UnknownFlagsError
	if !errors.As(err, &ufe) {
		t.Fatalf("decode = %v, want *UnknownFlagsError", err)
	}
	if ufe.Bits != 0x80 || ufe.What != "QueryReq.Flags" {
		t.Errorf("got %+v, want the undefined bit 0x80 of QueryReq.Flags", ufe)
	}
}

// TestQueryReqRejectsNonFiniteBounds: a NaN or infinite sub-query bound
// is a typed decode error naming the field; a finite bound outside
// [0, 1) decodes, for the node to normalise.
func TestQueryReqRejectsNonFiniteBounds(t *testing.T) {
	for _, c := range []struct {
		lo, hi float64
		what   string
	}{
		{math.NaN(), 0.5, "QueryReq.Lo"},
		{0.5, math.Inf(1), "QueryReq.Hi"},
		{math.Inf(-1), math.NaN(), "QueryReq.Lo"},
	} {
		var q QueryReq
		err := q.DecodeWire(QueryReq{Lo: c.lo, Hi: c.hi, Q: testQueryReq(1, 1).Q}.AppendWire(nil))
		var nfe *NonFiniteError
		if !errors.As(err, &nfe) || nfe.What != c.what {
			t.Errorf("bounds (%v, %v]: decode = %v, want a *NonFiniteError for %s", c.lo, c.hi, err, c.what)
		}
	}
	var q QueryReq
	if err := q.DecodeWire(QueryReq{Lo: -0.25, Hi: 1.5, Q: testQueryReq(1, 1).Q}.AppendWire(nil)); err != nil {
		t.Errorf("finite bounds outside [0, 1): %v", err)
	}
}

// BenchmarkCodecQueryReq compares encode+decode cost of the two codecs
// for the hot sub-query body (CI tracks this next to the match kernel).
func BenchmarkCodecQueryReq(b *testing.B) {
	q := testQueryReq(3, 17)
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := json.Marshal(q)
			if err != nil {
				b.Fatal(err)
			}
			var out QueryReq
			if err := json.Unmarshal(data, &out); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(data)), "bytes/op")
		}
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 4096)
		for i := 0; i < b.N; i++ {
			buf = q.AppendWire(buf[:0])
			var out QueryReq
			if err := out.DecodeWire(buf); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(buf)), "bytes/op")
		}
	})
}

// BenchmarkCodecQueryResp: the response side with a realistic sorted
// id set.
func BenchmarkCodecQueryResp(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	ids := make([]uint64, 500)
	for i := range ids {
		ids[i] = rng.Uint64()
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	resp := QueryResp{IDs: ids, Scanned: 100000, MatchNanos: 5e6}
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := json.Marshal(resp)
			if err != nil {
				b.Fatal(err)
			}
			var out QueryResp
			if err := json.Unmarshal(data, &out); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(data)), "bytes/op")
		}
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 8192)
		for i := 0; i < b.N; i++ {
			buf = resp.AppendWire(buf[:0])
			var out QueryResp
			if err := out.DecodeWire(buf); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(buf)), "bytes/op")
		}
	})
}
