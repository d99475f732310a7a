package proto

import (
	"reflect"
	"testing"
)

func testFEQueryReq() FEQueryReq {
	return FEQueryReq{Q: testQueryReq(2, 3).Q, Priority: -1}
}

// TestFEQueryReqGoldenRoundTrip: binary and JSON decode to the same
// struct for every shape the body can take.
func TestFEQueryReqGoldenRoundTrip(t *testing.T) {
	cases := []FEQueryReq{
		testFEQueryReq(),
		{Plain: &PlainQuery{Terms: []string{"alpha", "beta"}, Mode: 2, MinMatch: 1, Limit: 9}, Priority: 1},
		{Q: testQueryReq(1, 2).Q, Tenant: "acme", CacheControl: CacheBypass},
		{Plain: &PlainQuery{Terms: []string{"x"}}, Tenant: "t-1"},
		{CacheControl: CacheRefresh},
	}
	for i, want := range cases {
		var got FEQueryReq
		if err := got.DecodeWire(want.AppendWire(nil)); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: round trip diverged:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// FuzzDecodeFEQueryReq: truncated/corrupt client queries must error or
// decode, never panic or over-allocate; valid decodes must re-encode to
// a decodable body. Seeds cover the encrypted form, the plain-index
// form, and the tenant/cache-control fields.
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
		if err := q.DecodeWire(data); err != nil {
			return
		}
		var back FEQueryReq
		if err := back.DecodeWire(q.AppendWire(nil)); err != nil {
			t.Fatalf("re-decode of valid FEQueryReq failed: %v", err)
		}
	})
}
