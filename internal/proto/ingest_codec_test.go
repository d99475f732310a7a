package proto

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestIngestCodecRoundTrip: the member.ingest bodies' binary codecs
// must agree with their JSON encodings (the reference), including empty
// batches.
func TestIngestCodecRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		in   interface{ AppendWire([]byte) []byte }
		out  interface{ DecodeWire([]byte) error }
	}{
		{"IngestReq", IngestReq{Records: testRecords(5)}, &IngestReq{}},
		{"IngestReq/empty", IngestReq{}, &IngestReq{}},
		{"IngestResp", IngestResp{Seq: 1 << 40, Drained: 77}, &IngestResp{}},
		{"IngestResp/zero", IngestResp{}, &IngestResp{}},
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
	f.Add(IngestResp{Seq: 9, Drained: 3}.AppendWire(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req IngestReq
		if err := req.DecodeWire(data); err == nil {
			if err := new(IngestReq).DecodeWire(req.AppendWire(nil)); err != nil {
				t.Fatalf("re-decode of valid IngestReq failed: %v", err)
			}
		}
		var resp IngestResp
		if err := resp.DecodeWire(data); err == nil {
			if err := new(IngestResp).DecodeWire(resp.AppendWire(nil)); err != nil {
				t.Fatalf("re-decode of valid IngestResp failed: %v", err)
			}
		}
	})
}
