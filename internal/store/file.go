package store

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"roar/internal/pps"
)

// This file provides the on-disk layout of §5.6.2: records stored
// sequentially in one file, read back with large sequential reads. The
// disk-bound PPS experiments (Figs 5.4, 5.6) stream queries from these
// files through the same producer/consumer pipeline as the in-memory
// path, reproducing the I/O-bound vs CPU-bound crossover the paper
// measures.

// SaveFile writes records sequentially, each as a uint32 length prefix
// plus the record's binary encoding.
func SaveFile(path string, recs []pps.Encoded) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", path, err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i := range recs {
		b, err := recs[i].MarshalBinary()
		if err != nil {
			f.Close()
			return fmt.Errorf("store: encoding record %d: %w", recs[i].ID, err)
		}
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
		if _, err := w.Write(hdr[:]); err != nil {
			f.Close()
			return err
		}
		if _, err := w.Write(b); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SaveTo persists the whole store.
func (s *Store) SaveTo(path string) error {
	s.mu.RLock()
	recs := append([]pps.Encoded(nil), s.recs...)
	s.mu.RUnlock()
	return SaveFile(path, recs)
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

// LoadFrom replaces the store contents from a file, abandoning the
// read when ctx ends. The file is read and sorted outside the lock and
// swapped in under one write-lock hold, so a concurrent scan sees the
// old contents or the new, never an empty store in between. The old
// backing arrays are dropped whole; the next scan re-derives the
// schedules, as after RetainStored.
func (s *Store) LoadFrom(ctx context.Context, path string) error {
	recs, err := LoadFile(ctx, path)
	if err != nil {
		return err
	}
	recs = sortedUnique(recs)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	s.touchAllLocked()
	s.scheduled.Store(false)
	s.ks = nil
	s.recs = recs
	return nil
}

// StreamFile reads records sequentially, delivering them to fn in
// batches. Returns the number of records read. fn returning false stops
// the stream early.
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
	total := 0
	batch := make([]pps.Encoded, 0, batchSize)
	for {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				break
			}
			return total, fmt.Errorf("store: reading %s: %w", path, err)
		}
		n := binary.BigEndian.Uint32(hdr[:])
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return total, fmt.Errorf("store: truncated record in %s: %w", path, err)
		}
		var rec pps.Encoded
		if err := rec.UnmarshalBinary(buf); err != nil {
			return total, fmt.Errorf("store: corrupt record in %s: %w", path, err)
		}
		batch = append(batch, rec)
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
	batch := opts.BatchSize
	if batch <= 0 {
		batch = 256
	}
	jobs := make(chan matchJob, 2*threads)
	pool := runMatchers(ctx, m, q, threads, opts.Limiter, jobs)
	total, serr := StreamFile(ctx, path, batch, func(recs []pps.Encoded) bool {
		select {
		case <-ctx.Done():
			return false
		case jobs <- matchJob{recs: recs}:
			return true
		}
	})
	close(jobs)
	matched, _, limErr := pool.join()
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
	return matched, total, nil
}
