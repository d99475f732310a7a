package ingest

import (
	"bytes"
	"encoding/hex"
	"os"
	"testing"

	"roar/internal/pps"
)

// goldenSegment is a two-frame segment as an earlier build's WAL wrote
// it (two single-record appends, then Close): the magic, then each frame
// as length, CRC and payload.
const goldenSegment = "524f415257414c31" +
	"0000000767f464e2" + "01070201020103" +
	"0000001d4ddf950f" + "02808080808020106e6f6e63652d31362d6279746573212104deadbeef"

// TestWALSegmentGolden: the frame layout must not move. The earlier
// build's segment replays to the same records, and today's writer
// produces its bytes exactly.
func TestWALSegmentGolden(t *testing.T) {
	raw, err := hex.DecodeString(goldenSegment)
	if err != nil {
		t.Fatal(err)
	}
	want := []pps.Encoded{
		{ID: 7, BloomMetadata: pps.BloomMetadata{Nonce: []byte{1, 2}, Filter: []byte{3}}},
		{ID: 1 << 40, BloomMetadata: pps.BloomMetadata{Nonce: []byte("nonce-16-bytes!!"), Filter: []byte{0xde, 0xad, 0xbe, 0xef}}},
	}
	if got := AppendFrame(AppendFrame([]byte(segMagic), 1, want[0]), 2, want[1]); !bytes.Equal(got, raw) {
		t.Fatalf("frame bytes moved:\n got %x\nwant %x", got, raw)
	}
	dir := t.TempDir()
	if err := os.WriteFile(segPath(dir, 1), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	seqs, got := replayAll(t, w, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if seqs[i] != uint64(i+1) || !sameRec(got[i], want[i]) {
			t.Fatalf("record %d replayed as seq %d %+v, want seq %d %+v", i, seqs[i], got[i], i+1, want[i])
		}
	}
}
