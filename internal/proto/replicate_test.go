package proto

import (
	"reflect"
	"testing"
)

func testControlState() ControlState {
	return ControlState{
		Epoch: 17, P: 4, PendingP: 2, NextID: 9, Rings: 2,
		Disabled:      []int{1},
		IngestDrained: 21,
		Nodes: []NodeState{
			{ID: 0, Ring: 0, Start: 0, Addr: "127.0.0.1:9001", Speed: 1.5, Rack: "r1"},
			{ID: 3, Ring: 0, Start: 0.25, Addr: "127.0.0.1:9002"},
			{ID: 7, Ring: 1, Start: 0.5, Addr: "127.0.0.1:9003", Speed: 0.5,
				Quarantined: true, QuarantinedAtUnixNanos: 1_700_000_000_000_000_000},
		},
	}
}

// TestReplicateGoldenRoundTrip pins the binary codecs of the four
// replication bodies: encode → decode must reproduce the struct
// exactly, including the empty-collection normalizations.
func TestReplicateGoldenRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		in   interface{ AppendWire([]byte) []byte }
		out  interface{ DecodeWire([]byte) error }
	}{
		{"ReplicateReq", ReplicateReq{
			Term: 5, Leader: "127.0.0.1:7001", Commit: 12,
			Entries: []LogEntry{
				{Index: 12, Term: 5, Kind: EntryState, State: testControlState()},
				{Index: 13, Term: 5, Kind: EntryIntent, State: ControlState{Epoch: 18, P: 4, PendingP: 2, Rings: 1}},
			},
		}, &ReplicateReq{}},
		{"ReplicateReq/heartbeat", ReplicateReq{Term: 9, Leader: "a:1", Commit: 44}, &ReplicateReq{}},
		{"ReplicateResp/ack", ReplicateResp{Term: 5, OK: true, LastIndex: 13}, &ReplicateResp{}},
		{"ReplicateResp/reject", ReplicateResp{Term: 8}, &ReplicateResp{}},
		{"LeaseReq", LeaseReq{Term: 6, Candidate: "127.0.0.1:7002", LastIndex: 13, LastTerm: 5}, &LeaseReq{}},
		{"LeaseResp/granted", LeaseResp{Term: 6, Granted: true, Leader: "127.0.0.1:7002", LastIndex: 13}, &LeaseResp{}},
		{"LeaseResp/refused", LeaseResp{Term: 7, Leader: "127.0.0.1:7001"}, &LeaseResp{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bin := c.in.AppendWire(nil)
			if err := c.out.DecodeWire(bin); err != nil {
				t.Fatalf("DecodeWire: %v", err)
			}
			got := reflect.ValueOf(c.out).Elem().Interface()
			if !reflect.DeepEqual(got, c.in) {
				t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, c.in)
			}
		})
	}
}

// TestReplicateDecodeRejectsCorruption: truncation and trailing garbage
// must error, not mis-decode.
func TestReplicateDecodeRejectsCorruption(t *testing.T) {
	req := ReplicateReq{Term: 5, Leader: "x:1", Commit: 2,
		Entries: []LogEntry{{Index: 2, Term: 5, Kind: EntryState, State: testControlState()}}}
	bin := req.AppendWire(nil)
	for cut := 1; cut < len(bin); cut += 7 {
		if err := new(ReplicateReq).DecodeWire(bin[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded cleanly", cut, len(bin))
		}
	}
	if err := new(ReplicateReq).DecodeWire(append(bin[:len(bin):len(bin)], 0x1)); err == nil {
		t.Fatal("trailing bytes decoded cleanly")
	}
	// A hostile entry count must not pre-allocate unbounded memory.
	huge := []byte{5, 0, 1, 'x', 2, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if err := new(ReplicateReq).DecodeWire(huge); err == nil {
		t.Fatal("hostile entry count decoded cleanly")
	}
}

// FuzzDecodeReplicate: corrupt replication bodies must error or decode,
// never panic or over-allocate; valid decodes must re-encode cleanly.
func FuzzDecodeReplicate(f *testing.F) {
	f.Add(ReplicateReq{Term: 5, Leader: "127.0.0.1:7001", Commit: 12,
		Entries: []LogEntry{{Index: 12, Term: 5, Kind: EntryState, State: testControlState()}}}.AppendWire(nil))
	f.Add(ReplicateReq{Term: 1, Leader: "a:1"}.AppendWire(nil))
	f.Add(ReplicateResp{Term: 5, OK: true, LastIndex: 13}.AppendWire(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req ReplicateReq
		if err := req.DecodeWire(data); err == nil {
			if err := new(ReplicateReq).DecodeWire(req.AppendWire(nil)); err != nil {
				t.Fatalf("re-decode of valid ReplicateReq failed: %v", err)
			}
		}
		var resp ReplicateResp
		if err := resp.DecodeWire(data); err == nil {
			if err := new(ReplicateResp).DecodeWire(resp.AppendWire(nil)); err != nil {
				t.Fatalf("re-decode of valid ReplicateResp failed: %v", err)
			}
		}
	})
}

// FuzzDecodeLease: same contract for the election bodies.
func FuzzDecodeLease(f *testing.F) {
	f.Add(LeaseReq{Term: 6, Candidate: "127.0.0.1:7002", LastIndex: 13, LastTerm: 5}.AppendWire(nil))
	f.Add(LeaseResp{Term: 6, Granted: true, Leader: "127.0.0.1:7002", LastIndex: 13}.AppendWire(nil))
	f.Add(LeaseResp{Term: 7}.AppendWire(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req LeaseReq
		if err := req.DecodeWire(data); err == nil {
			if err := new(LeaseReq).DecodeWire(req.AppendWire(nil)); err != nil {
				t.Fatalf("re-decode of valid LeaseReq failed: %v", err)
			}
		}
		var resp LeaseResp
		if err := resp.DecodeWire(data); err == nil {
			if err := new(LeaseResp).DecodeWire(resp.AppendWire(nil)); err != nil {
				t.Fatalf("re-decode of valid LeaseResp failed: %v", err)
			}
		}
	})
}
