package store

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"

	"roar/internal/binfmt"
	"roar/internal/pps"
)

// This file provides the on-disk layout of §5.6.2: records stored
// sequentially in one file, read back with large sequential reads. The
// disk-bound PPS experiments (Figs 5.4, 5.6) stream queries from these
// files through the same producer/consumer pipeline as the in-memory
// path, reproducing the I/O-bound vs CPU-bound crossover the paper
// measures.
//
// A corpus file is an 8-byte magic, then each record as a big-endian
// u32 length and the record's one binary form (pps.AppendRecord). A
// file without the magic, such as one in an older layout, fails to load.

const (
	fileMagic = "ROARREC1"
	// maxRecordBytes bounds a record's declared length, so a corrupt or
	// hostile file cannot provoke a giant allocation: a record is a nonce
	// and one Bloom filter, a few KiB.
	maxRecordBytes = 1 << 20
)

// SaveFile writes records sequentially in the corpus file layout.
func SaveFile(path string, recs []pps.Encoded) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", path, err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	b := []byte(fileMagic)
	for i := range recs {
		at := len(b)
		b = pps.AppendRecord(append(b, 0, 0, 0, 0), recs[i])
		n := len(b) - at - 4
		if n > maxRecordBytes {
			f.Close()
			return fmt.Errorf("store: record %d of %d bytes exceeds the limit", recs[i].ID, n)
		}
		binary.BigEndian.PutUint32(b[at:], uint32(n))
		_, _ = w.Write(b) // a failed write sticks: Flush reports it
		b = b[:0]
	}
	_, _ = w.Write(b)
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	return f.Close()
}

// LoadFile reads every record from a file written by SaveFile,
// abandoning the read when ctx ends.
func LoadFile(ctx context.Context, path string) ([]pps.Encoded, error) {
	var out []pps.Encoded
	_, err := StreamFile(ctx, path, 1024, func(batch []pps.Encoded) bool {
		out = append(out, batch...)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// StreamFile reads records sequentially, delivering them to fn in
// batches. Returns the number of records read. fn returning false stops
// the stream early. Every record is read into one reused buffer, so a
// record costs the one allocation its decode makes.
func StreamFile(ctx context.Context, path string, batchSize int, fn func([]pps.Encoded) bool) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("store: opening %s: %w", path, err)
	}
	defer f.Close()
	if batchSize <= 0 {
		batchSize = 256
	}
	r := bufio.NewReaderSize(f, 1<<20)
	var magic [len(fileMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || string(magic[:]) != fileMagic {
		return 0, fmt.Errorf("store: %s is not a corpus file (no %q magic)", path, fileMagic)
	}
	total := 0
	batch := make([]pps.Encoded, 0, batchSize)
	var hdr [4]byte
	var buf []byte
	for {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				break
			}
			return total, fmt.Errorf("store: reading %s: %w", path, err)
		}
		n := int(binary.BigEndian.Uint32(hdr[:]))
		if n > maxRecordBytes {
			return total, fmt.Errorf("store: record of %d bytes in %s exceeds the limit", n, path)
		}
		buf = slices.Grow(buf[:0], n)[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return total, fmt.Errorf("store: truncated record in %s: %w", path, err)
		}
		rd := binfmt.NewReader(buf)
		batch = append(batch, pps.Encoded{})
		pps.DecodeRecord(&rd, &batch[len(batch)-1])
		if err := rd.Finish("record"); err != nil {
			return total, fmt.Errorf("store: corrupt record in %s: %w", path, err)
		}
		total++
		if len(batch) >= batchSize {
			if !fn(batch) {
				return total, nil
			}
			batch = make([]pps.Encoded, 0, batchSize)
		}
	}
	if len(batch) > 0 {
		fn(batch)
	}
	return total, nil
}

// MatchFile runs an encrypted query against a record file with the
// disk-bound pipeline: the producer streams from disk while consumer
// threads match (§5.6.3's two-thread decoupling; Fig 5.4 traces exactly
// this structure).
func MatchFile(ctx context.Context, path string, m *pps.Matcher, q pps.Query, opts MatchOptions) (ids []uint64, scanned int, err error) {
	threads := opts.Threads
	if threads <= 0 {
		threads = 1
	}
	batch := opts.batch()
	jobs := make(chan matchJob, 2*threads)
	pool := runMatchers(ctx, m, []pps.Query{q}, threads, opts.Limiter, jobs)
	total, serr := StreamFile(ctx, path, batch, func(recs []pps.Encoded) bool {
		select {
		case <-ctx.Done():
			return false
		case jobs <- matchJob{recs: recs}:
			return true
		}
	})
	close(jobs)
	sc, limErr := pool.join()
	if serr != nil {
		return nil, total, serr
	}
	// StreamFile reports nil when the producer callback stops early, and
	// consumers drain (without matching) after a limiter abort — both are
	// cancellation, not a complete scan, and must surface as the error.
	if err := ctx.Err(); err != nil {
		return nil, total, err
	}
	if limErr != nil {
		return nil, total, limErr
	}
	return sc.ids[0], total, nil
}
