package proto

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

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

// TestBinaryCodecGoldenRoundTrip: for every hot body, the binary
// encoding must decode to the exact struct a JSON round trip yields:
// JSON is the reference the hand-rolled codecs are checked against.
func TestBinaryCodecGoldenRoundTrip(t *testing.T) {
	sortedIDs := []uint64{3, 9, 9, 4096, 1 << 40, 1<<63 + 7}
	unsortedIDs := []uint64{99, 7, 1 << 50, 12}
	cases := []struct {
		name string
		in   interface{} // value implementing AppendWire
		out  interface{} // pointer implementing DecodeWire
	}{
		{"QueryReq", testQueryReq(3, 4), &QueryReq{}},
		{"QueryReq/empty", QueryReq{}, &QueryReq{}},
		{"QueryReq/plain", QueryReq{QID: 9, Lo: 0.25, Hi: 0.75, Plain: &PlainQuery{
			Terms: []string{"alpha", "beta", "gamma"}, Mode: 2, MinMatch: 2, Limit: 10,
		}}, &QueryReq{}},
		{"QueryReq/plain-or", QueryReq{Plain: &PlainQuery{Terms: []string{"x"}, Mode: 1}}, &QueryReq{}},
		{"QueryResp", QueryResp{IDs: sortedIDs, Scanned: 5000, MatchNanos: 123456789, QueueDepth: 3}, &QueryResp{}},
		{"QueryResp/unsorted", QueryResp{IDs: unsortedIDs, Scanned: 1}, &QueryResp{}},
		{"QueryResp/empty", QueryResp{}, &QueryResp{}},
		{"PutReq", PutReq{Records: testRecords(7)}, &PutReq{}},
		{"PutReq/empty", PutReq{}, &PutReq{}},
		{"PingReq", PingReq{}, &PingReq{}},
		{"PingResp", PingResp{QueueDepth: 42}, &PingResp{}},
		{"HealthReport", HealthReport{
			FE: "fe-127.0.0.1:8000", Seq: 77, Shed: 3,
			Nodes: []NodeHealth{
				{ID: 0, Suspicions: 2, ProbeFails: 5, QueueDepth: 9, Speed: 0.125},
				{ID: 41, ProbeOKs: 3, Contacts: 1000, Speed: 123456.75},
			},
		}, &HealthReport{}},
		{"HealthReport/empty", HealthReport{}, &HealthReport{}},
		{"HealthReport/ext", HealthReport{
			FE: "fe-1", Seq: 8, Shed: 2, ShedNormal: 5, HedgesDenied: 17,
			QueueP50Nanos: 1_500_000, QueueP99Nanos: 48_000_000,
			Nodes: []NodeHealth{
				{ID: 1, Contacts: 40, Speed: 2.5, LatP50Nanos: 900_000, LatP99Nanos: 22_000_000},
				{ID: 2, Contacts: 12}, // no digest yet (tracker warming up)
				{ID: 9, Suspicions: 1, LatP99Nanos: 140_000_000},
			},
		}, &HealthReport{}},
		{"HealthReport/tenants", HealthReport{
			FE: "fe-1", Seq: 1,
			Nodes: []NodeHealth{{ID: 5, Contacts: 7, LatP50Nanos: 10, LatP99Nanos: 99}},
			Tenants: []TenantLoad{
				{Tenant: "acme", Admitted: 20, Shed: 3, CacheHits: 11, CacheMisses: 9},
				{Tenant: "", Admitted: 1},
			},
		}, &HealthReport{}},
		{"PutReq/fenced", PutReq{Records: testRecords(3), Epoch: 42}, &PutReq{}},
		{"HealthResp", HealthResp{Epoch: 12, Quarantined: []int{3, 7, 41}}, &HealthResp{}},
		{"HealthResp/empty", HealthResp{}, &HealthResp{}},
	}
	type appender interface{ AppendWire([]byte) []byte }
	type decoder interface{ DecodeWire([]byte) error }
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bin := c.in.(appender).AppendWire(nil)
			if err := c.out.(decoder).DecodeWire(bin); err != nil {
				t.Fatalf("DecodeWire: %v", err)
			}
			// The JSON oracle: same input through encoding/json.
			jb, err := json.Marshal(c.in)
			if err != nil {
				t.Fatal(err)
			}
			want := reflect.New(reflect.TypeOf(c.in)).Interface()
			if err := json.Unmarshal(jb, want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(c.out, want) {
				t.Fatalf("binary round trip diverges from JSON:\n bin: %+v\njson: %+v", c.out, want)
			}
		})
	}
}

// TestBinaryCodecDecodeCopies: decoded byte slices must not alias the
// input buffer (it is pooled and will be overwritten).
func TestBinaryCodecDecodeCopies(t *testing.T) {
	in := PutReq{Records: testRecords(2)}
	buf := in.AppendWire(nil)
	var out PutReq
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
		{"HealthReport", HealthReport{
			FE: "fe", Seq: 3, Shed: 4, ShedNormal: 2, HedgesDenied: 9, QueueP50Nanos: 100, QueueP99Nanos: 900,
			Nodes: []NodeHealth{
				{ID: 5, Suspicions: 1, ProbeOKs: 2, ProbeFails: 3, Contacts: 7, QueueDepth: 2, Speed: 1.5, LatP50Nanos: 10, LatP99Nanos: 99},
				{ID: 6}, // no digest yet: the zeros are written, not omitted
			},
			Tenants: []TenantLoad{{Tenant: "ac", Admitted: 20, Shed: 3, CacheHits: 11, CacheMisses: 9}},
		}, func() decoder { return &HealthReport{} },
			"\x02fe\x03\x08\x04\x12\xc8\x01\x88\x0e" +
				"\x02" +
				"\x0a\x02\x04\x06\x0e\x04" + f64(1.5) + "\x14\xc6\x01" +
				"\x0c\x00\x00\x00\x00\x00" + f64(0) + "\x00\x00" +
				"\x01\x02ac\x28\x06\x16\x12"},
		{"HealthReport/empty", HealthReport{}, func() decoder { return &HealthReport{} },
			"\x00\x00\x00\x00\x00\x00\x00\x00\x00"},
		{"LeaseResp", LeaseResp{Term: 3, Granted: true, Leader: "a:1", LastIndex: 41},
			func() decoder { return &LeaseResp{} }, "\x03\x01\x03a:1\x29"},
		{"LeaseResp/refused", LeaseResp{Term: 7}, func() decoder { return &LeaseResp{} }, "\x07\x00\x00\x00"},
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
			var tbe *TrailingBytesError
			if err := c.out().DecodeWire(append(got, 0)); !errors.As(err, &tbe) {
				t.Fatalf("trailing byte: %v, want *TrailingBytesError", err)
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

// FuzzDecodeQueryReq: truncated/corrupt bodies must error or decode,
// never panic or over-allocate.
func FuzzDecodeQueryReq(f *testing.F) {
	f.Add(testQueryReq(2, 3).AppendWire(nil))
	f.Add(QueryReq{QID: 1, Hi: 1, Plain: &PlainQuery{Terms: []string{"alpha", "beta"}, Limit: 5}}.AppendWire(nil))
	f.Add(QueryReq{QID: 1, Hi: 1, Flags: QueryMemoRefill, Q: testQueryReq(1, 2).Q}.AppendWire(nil))
	f.Add(unknownFlagsQueryReq())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q QueryReq
		if err := q.DecodeWire(data); err != nil {
			return
		}
		// A valid decode must re-encode to an equivalent struct.
		if q.Flags&^(QueryMemo|QueryMemoRefill) != 0 {
			t.Fatalf("decoder accepted undefined flag bits %#02x", q.Flags)
		}
		var back QueryReq
		if err := back.DecodeWire(q.AppendWire(nil)); err != nil {
			t.Fatalf("re-decode of valid QueryReq failed: %v", err)
		}
	})
}

// FuzzDecodeQueryResp: same contract for the response body.
func FuzzDecodeQueryResp(f *testing.F) {
	f.Add(QueryResp{IDs: []uint64{1, 5, 9}, Scanned: 10}.AppendWire(nil))
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q QueryResp
		_ = q.DecodeWire(data)
	})
}

// FuzzDecodeHealthReport: truncated/corrupt health pushes must error or
// decode, never panic or over-allocate; valid decodes must re-encode to
// a decodable body.
func FuzzDecodeHealthReport(f *testing.F) {
	f.Add(HealthReport{
		FE: "fe", Seq: 9, Shed: 1,
		Nodes: []NodeHealth{{ID: 4, Suspicions: 1, Speed: 2.5}},
	}.AppendWire(nil))
	f.Add(HealthReport{
		FE: "fe", Seq: 10, ShedNormal: 3, HedgesDenied: 2, QueueP99Nanos: 7,
		Nodes:   []NodeHealth{{ID: 4, Contacts: 2, LatP50Nanos: 5, LatP99Nanos: 50}},
		Tenants: []TenantLoad{{Tenant: "acme", Admitted: 3, CacheHits: 1}},
	}.AppendWire(nil))
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h HealthReport
		if err := h.DecodeWire(data); err != nil {
			return
		}
		var back HealthReport
		if err := back.DecodeWire(h.AppendWire(nil)); err != nil {
			t.Fatalf("re-decode of valid HealthReport failed: %v", err)
		}
	})
}

// FuzzDecodeHealthResp: same contract for the aggregator's verdict.
func FuzzDecodeHealthResp(f *testing.F) {
	f.Add(HealthResp{Epoch: 3, Quarantined: []int{1, 2}}.AppendWire(nil))
	f.Add([]byte{0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h HealthResp
		_ = h.DecodeWire(data)
	})
}

// FuzzDecodePutReq: same contract for replica pushes.
func FuzzDecodePutReq(f *testing.F) {
	f.Add(PutReq{Records: testRecords(2)}.AppendWire(nil))
	f.Add(PutReq{Records: testRecords(1), Epoch: 1 << 20}.AppendWire(nil))
	f.Add([]byte{0xff, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p PutReq
		_ = p.DecodeWire(data)
	})
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
