package proto

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestIngestCodecRoundTrip: the member.ingest request's and the
// member.drained response's binary codecs must agree with their JSON
// encoding (the reference), including an empty batch.
func TestIngestCodecRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		in   interface{ AppendWire([]byte) []byte }
		out  interface{ DecodeWire([]byte) error }
	}{
		{"IngestReq", IngestReq{Records: testRecords(5)}, &IngestReq{}},
		{"IngestReq/empty", IngestReq{}, &IngestReq{}},
		{"DrainedResp", DrainedResp{Records: testRecords(5)}, &DrainedResp{}},
		{"DrainedResp/empty", DrainedResp{}, &DrainedResp{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bin := c.in.AppendWire(nil)
			if err := c.out.DecodeWire(bin); err != nil {
				t.Fatalf("DecodeWire: %v", err)
			}
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

// FuzzDecodeIngestReq: corrupt ingest bodies must error or decode,
// never panic or over-allocate; valid decodes must re-encode cleanly.
func FuzzDecodeIngestReq(f *testing.F) {
	f.Add(IngestReq{Records: testRecords(2)}.AppendWire(nil))
	f.Add(IngestReq{Records: testRecords(1)}.AppendWire(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req IngestReq
		if err := req.DecodeWire(data); err == nil {
			if err := new(IngestReq).DecodeWire(req.AppendWire(nil)); err != nil {
				t.Fatalf("re-decode of valid IngestReq failed: %v", err)
			}
		}
	})
}
