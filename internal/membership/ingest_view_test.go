package membership

import (
	"context"
	"errors"
	"testing"
	"time"

	"roar/internal/ingest"
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
