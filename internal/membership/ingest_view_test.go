package membership

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"roar/internal/ingest"
	"roar/internal/pps"
	"roar/internal/proto"
)

// TestViewCarriesIngestWatermarks: every view reports the coordinator's
// drained watermark so frontends can fence their result caches against
// deliveries that happen without an epoch bump (docs/ECONOMICS.md).
func TestViewCarriesIngestWatermarks(t *testing.T) {
	wal, err := ingest.Open(t.TempDir(), ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{P: 1, WAL: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer wal.Close()
	enc := slimEncoder()
	_, addrs := startNodes(t, enc, 1)
	if _, err := c.Join(context.Background(), addrs[0], 1); err != nil {
		t.Fatal(err)
	}
	c.StartIngest(IngestConfig{})

	if v := c.View(); v.Drained != 0 {
		t.Fatalf("fresh view drained = %d, want 0", v.Drained)
	}
	recs := corpus(t, enc, 3)
	seq, err := c.IngestAppend(context.Background(), recs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.WaitIngestDrained(ctx, seq); err != nil {
		t.Fatal(err)
	}
	if v := c.View(); v.Drained != seq {
		t.Errorf("post-drain view drained = %d, want %d", v.Drained, seq)
	}
}

// TestEmptyIngestCommitsNothing: an empty append is a drain poll
// (pps-client -put -wait). It is answered from the watermarks with no WAL
// write and no commit, so polling costs a replicated coordinator no
// replication round; without a WAL it still fails.
func TestEmptyIngestCommitsNothing(t *testing.T) {
	wal, err := ingest.Open(t.TempDir(), ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{P: 1, WAL: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer wal.Close()
	commits := 0
	c.commit = func(uint8) error { commits++; return nil }
	ctx := context.Background()
	seq, err := c.IngestAppend(ctx, corpus(t, slimEncoder(), 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got, err := c.IngestAppend(ctx, nil); err != nil || got != seq {
			t.Fatalf("empty append %d = (%d, %v), want (%d, nil)", i, got, err, seq)
		}
	}
	if commits != 1 {
		t.Errorf("ten empty appends committed %d times, want 0", commits-1)
	}
	if last := wal.DurableSeq(); last != seq {
		t.Errorf("WAL at sequence %d after empty appends, want %d", last, seq)
	}
	bare, err := New(Config{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, err := bare.IngestAppend(ctx, nil); !errors.Is(err, errIngestDisabled) {
		t.Errorf("empty append without a WAL = %v, want errIngestDisabled", err)
	}
}

// TestDrainedSinceFollowsTheDrain: member.drained answers the records in
// (after, drained], capped at max and at proto.MaxDrained, each the
// log's own write in sequence order, and nothing past the drained
// watermark; a negative max is refused. The tail reader opens
// at the first request only: a coordinator that drains, pushes and
// answers views for frontends that never ask has none.
func TestDrainedSinceFollowsTheDrain(t *testing.T) {
	wal, err := ingest.Open(t.TempDir(), ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{P: 1, WAL: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	enc := slimEncoder()
	_, addrs := startNodes(t, enc, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Join(ctx, addrs[0], 1); err != nil {
		t.Fatal(err)
	}
	c.StartIngest(IngestConfig{})
	recs := corpus(t, enc, proto.MaxDrained+20)
	seq, err := c.IngestAppend(ctx, recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitIngestDrained(ctx, seq); err != nil {
		t.Fatal(err)
	}
	if c.tail != nil {
		t.Fatal("the tail reader opened before any frontend asked for drained records")
	}
	check := func(after uint64, max int, want []pps.Encoded) {
		t.Helper()
		got, err := c.drainedSince(ctx, after, max)
		if err != nil {
			t.Fatalf("drainedSince(%d, %d): %v", after, max, err)
		}
		if len(got) != len(want) {
			t.Fatalf("drainedSince(%d, %d): %d records, want %d", after, max, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || !bytes.Equal(got[i].Nonce, want[i].Nonce) || !bytes.Equal(got[i].Filter, want[i].Filter) {
				t.Fatalf("drainedSince(%d, %d): record %d differs from the log's", after, max, i)
			}
		}
	}
	check(0, 8, recs[:8])
	check(8, 100, recs[8:108])
	check(3, 4, recs[3:7]) // an older range re-positions the reader
	check(seq, 100, nil)
	check(2, 0, nil)
	check(10, 1<<30, recs[10:10+proto.MaxDrained]) // an oversized max is capped
	if _, err := c.drainedSince(ctx, 0, -1); err == nil {
		t.Error("drainedSince with a negative max answered")
	}

	// A record accepted but not drained is on no node: it is not served.
	c.StopIngest()
	more := corpus(t, enc, len(recs)+1)[len(recs):]
	if _, err := c.IngestAppend(ctx, more); err != nil {
		t.Fatal(err)
	}
	check(seq, 100, nil)

	noLog, err := New(Config{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer noLog.Close()
	if _, err := noLog.drainedSince(ctx, 0, 10); !errors.Is(err, errIngestDisabled) {
		t.Fatalf("drainedSince without a log: %v, want errIngestDisabled", err)
	}
}
