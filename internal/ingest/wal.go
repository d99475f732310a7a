// Package ingest implements the durable asynchronous write path: a
// segment-file write-ahead log that producers append records to, and a
// consumer loop (consumer.go) that drains the log to the owning data
// nodes with at-least-once delivery.
//
// The update path of §7.4 assumes every object reliably reaches its r
// replicas, but a synchronous push pipeline loses everything in flight
// when a node crashes or a coordinator fails over. The WAL decouples
// acceptance from delivery: an append is acknowledged once the record
// is fsynced here, and delivery — however many retries, replays and
// reconfigurations it takes — happens behind the durable buffer.
//
// On-disk layout (house codec style, see store.SaveFile and the index
// segment format): each segment file starts with an 8-byte magic and
// carries length-prefixed frames,
//
//	frame   := u32 payload-length | u32 crc32(payload) | payload
//	payload := uvarint seq | uvarint id | uvarint nonce-len | nonce |
//	           uvarint filter-len | filter
//
// Sequence numbers are global across segments, contiguous, and start
// at 1; a segment's file name carries the sequence its first frame
// holds. Recovery scans every segment with a bounds-checked cursor:
// torn bytes at the tail of the LAST segment are truncated (the crash
// left a partial write; everything before it was fsynced), while
// corruption anywhere else is an error — silent data loss is never an
// option for the middle of the log.
//
// Reading has one implementation, the tailing cursor of cursor.go:
// Replay and the consumer both read through it, each frame once, and
// never past the byte end the WAL recorded at its last successful
// fsync, so a half-written group commit is "not there yet" and any
// damage below that end is an error, not a place to stop quietly.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"roar/internal/pps"
)

const (
	segMagic = "ROARWAL1"
	// segHeaderBytes is the fixed segment prefix: just the magic; the
	// first frame's sequence is in the file name and inside the frame.
	segHeaderBytes = len(segMagic)
	// frameHeaderBytes prefixes every frame: payload length + CRC.
	frameHeaderBytes = 8
	// maxFramePayload bounds a declared payload length so a corrupt
	// header cannot provoke a giant allocation.
	maxFramePayload = 64 << 20
)

// ErrShortFrame reports that the input ends before the frame does —
// recovery treats it as a torn tail, not corruption.
var ErrShortFrame = errors.New("ingest: truncated frame")

// ErrClosed reports an operation on a closed WAL.
var ErrClosed = errors.New("ingest: wal closed")

// AppendFrame appends one length-prefixed, CRC-guarded frame for
// (seq, rec) to b. Pure function, shared by the writer and the fuzz
// round-trip target.
func AppendFrame(b []byte, seq uint64, rec pps.Encoded) []byte {
	hdrAt := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)
	payloadAt := len(b)
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, rec.ID)
	b = binary.AppendUvarint(b, uint64(len(rec.Nonce)))
	b = append(b, rec.Nonce...)
	b = binary.AppendUvarint(b, uint64(len(rec.Filter)))
	b = append(b, rec.Filter...)
	payload := b[payloadAt:]
	binary.BigEndian.PutUint32(b[hdrAt:], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[hdrAt+4:], crc32.ChecksumIEEE(payload))
	return b
}

// DecodeFrame decodes one frame from the head of data, returning the
// bytes consumed. Byte slices in the returned record are copies (the
// input may alias a reused read buffer). ErrShortFrame means data ends
// mid-frame; any other error means the bytes are corrupt.
func DecodeFrame(data []byte) (seq uint64, rec pps.Encoded, n int, err error) {
	if len(data) < frameHeaderBytes {
		return 0, pps.Encoded{}, 0, ErrShortFrame
	}
	plen := binary.BigEndian.Uint32(data)
	if plen > maxFramePayload {
		return 0, pps.Encoded{}, 0, fmt.Errorf("ingest: frame payload length %d exceeds limit", plen)
	}
	if uint64(len(data)-frameHeaderBytes) < uint64(plen) {
		return 0, pps.Encoded{}, 0, ErrShortFrame
	}
	payload := data[frameHeaderBytes : frameHeaderBytes+int(plen)]
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(data[4:]); got != want {
		return 0, pps.Encoded{}, 0, fmt.Errorf("ingest: frame crc mismatch (got %08x want %08x)", got, want)
	}
	r := &frameReader{data: payload}
	seq = r.uvarint("frame seq")
	rec.ID = r.uvarint("record id")
	rec.Nonce = r.bytes("record nonce")
	rec.Filter = r.bytes("record filter")
	if r.err == nil && r.off != len(r.data) {
		r.err = fmt.Errorf("ingest: %d trailing bytes in frame payload", len(r.data)-r.off)
	}
	if r.err != nil {
		return 0, pps.Encoded{}, 0, r.err
	}
	return seq, rec, frameHeaderBytes + int(plen), nil
}

// frameReader is the bounds-checked payload cursor (the same shape as
// the proto package's strict decoders; duplicated here because that
// cursor is unexported and ingest must not depend on proto).
type frameReader struct {
	data []byte
	off  int
	err  error
}

func (r *frameReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("ingest: truncated or corrupt %s", what)
	}
}

func (r *frameReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

func (r *frameReader) bytes(what string) []byte {
	l := r.uvarint(what)
	if r.err != nil {
		return nil
	}
	if uint64(len(r.data)-r.off) < l {
		r.fail(what)
		return nil
	}
	if l == 0 {
		return nil
	}
	out := make([]byte, l)
	copy(out, r.data[r.off:])
	r.off += int(l)
	return out
}

// Options tunes a WAL.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes. Default 8 MiB.
	SegmentBytes int64
	// NoSync skips fsync on flush (benchmarks measuring raw encode and
	// write throughput; never durable deployments).
	NoSync bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	return o
}

// segment is one on-disk log file. first is the sequence of its first
// frame; a segment with no frames yet has first = the next sequence to
// be written. size is the durable byte end: the file's length as of the
// last successful fsync (flushLocked), final once a successor segment
// exists. Readers never look at bytes at or past it.
type segment struct {
	path  string
	first uint64
	size  int64
}

// WAL is a durable, crash-recoverable record log. Appends are
// group-committed: concurrent Append calls batch their frames into one
// write+fsync, so fsync cost amortises across producers.
type WAL struct {
	dir  string
	opts Options

	mu   sync.Mutex
	cond *sync.Cond
	// f is the active segment; only the current flusher (the Append
	// call that observed flushing == false) touches it, so file I/O
	// happens outside mu.
	f        *os.File
	fsize    int64
	segs     []segment
	nextSeq  uint64 // last assigned sequence
	pending  []byte // encoded frames awaiting flush
	durable  uint64 // highest fsynced sequence
	flushing bool
	closed   bool
	err      error // sticky write/fsync failure

	notify chan struct{} // capacity 1; a token means "durable advanced"
}

// Open opens (or creates) the WAL in dir, recovering existing segments.
// A torn frame at the tail of the last segment is truncated away; any
// other decode failure is returned as corruption.
func Open(dir string, opts Options) (*WAL, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: creating wal dir: %w", err)
	}
	w := &WAL{dir: dir, opts: opts, notify: make(chan struct{}, 1)}
	w.cond = sync.NewCond(&w.mu)
	if err := w.recover(); err != nil {
		return nil, err
	}
	return w, nil
}

func segPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", first))
}

// segFirst is segPath's inverse: the first sequence a segment's file
// name declares.
func segFirst(path string) (uint64, error) {
	hex := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "wal-"), ".seg")
	first, err := strconv.ParseUint(hex, 16, 64)
	if err != nil || first == 0 {
		return 0, fmt.Errorf("ingest: %s: not a segment file name", path)
	}
	return first, nil
}

// recover scans the segment files in sequence order, validating frame
// continuity, and leaves the WAL positioned to append after the last
// durable record.
func (w *WAL) recover() error {
	names, err := filepath.Glob(filepath.Join(w.dir, "wal-*.seg"))
	if err != nil {
		return err
	}
	sort.Strings(names) // %016x names sort in sequence order
	next := uint64(1)
	for i, path := range names {
		first, err := segFirst(path)
		if err != nil {
			return err
		}
		// The oldest segment starts wherever TruncateThrough left the
		// log; every later one must continue its predecessor.
		if i > 0 && first != next {
			return fmt.Errorf("ingest: %s: segment starts at sequence %d, want %d", path, first, next)
		}
		last := i == len(names)-1
		n, size, err := w.recoverSegment(path, first, last)
		if err != nil {
			return err
		}
		w.segs = append(w.segs, segment{path: path, first: first, size: size})
		next = first + n
	}
	w.nextSeq = next - 1
	w.durable = w.nextSeq
	if len(w.segs) == 0 {
		if err := w.openSegment(1); err != nil {
			return err
		}
		return nil
	}
	// Reopen the last segment for appending.
	active := w.segs[len(w.segs)-1]
	f, err := os.OpenFile(active.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return err
	}
	w.f, w.fsize = f, size
	return nil
}

// recoverSegment validates one segment: magic, and contiguous frames
// from the sequence its file name declares. On the last segment a torn
// tail is truncated in place; returns the number of valid frames and
// the byte length they end at.
func (w *WAL) recoverSegment(path string, first uint64, tolerateTail bool) (frames uint64, size int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	if len(data) < segHeaderBytes || string(data[:segHeaderBytes]) != segMagic {
		return 0, 0, fmt.Errorf("ingest: %s: bad segment magic", path)
	}
	off := segHeaderBytes
	seq := first - 1
	for off < len(data) {
		fseq, _, n, err := DecodeFrame(data[off:])
		if err != nil {
			if tolerateTail {
				// Crash mid-write: everything before off was fsynced in a
				// batch that completed; drop the torn tail.
				if terr := os.Truncate(path, int64(off)); terr != nil {
					return 0, 0, fmt.Errorf("ingest: truncating torn tail of %s: %w", path, terr)
				}
				break
			}
			return 0, 0, fmt.Errorf("ingest: %s at offset %d: %w", path, off, err)
		}
		if fseq != seq+1 {
			return 0, 0, fmt.Errorf("ingest: %s: sequence gap (frame %d after %d)", path, fseq, seq)
		}
		seq = fseq
		off += n
	}
	return seq - (first - 1), int64(off), nil
}

// openSegment creates and syncs a fresh segment whose first frame will
// carry sequence first. Caller must be the flusher (or Open).
func (w *WAL) openSegment(first uint64) error {
	path := segPath(w.dir, first)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	if !w.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := syncDir(w.dir); err != nil {
			f.Close()
			return err
		}
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f, w.fsize = f, int64(segHeaderBytes)
	w.segs = append(w.segs, segment{path: path, first: first, size: w.fsize})
	return nil
}

// syncDir fsyncs a directory so a freshly created segment's name is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		return err
	}
	return cerr
}

// Append encodes recs as contiguous frames and returns the sequence of
// the LAST one, blocking until every appended frame is fsynced (group
// commit: whichever Append observes no flush in progress drains the
// shared pending buffer for everyone).
func (w *WAL) Append(recs ...pps.Encoded) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if w.err != nil {
		return 0, w.err
	}
	for i := range recs {
		w.nextSeq++
		w.pending = AppendFrame(w.pending, w.nextSeq, recs[i])
	}
	myLast := w.nextSeq
	for w.durable < myLast {
		if w.err != nil {
			return 0, w.err
		}
		if w.closed {
			return 0, ErrClosed
		}
		if w.flushing {
			w.cond.Wait()
			continue
		}
		w.flushLocked()
	}
	return myLast, nil
}

// flushLocked drains the pending buffer to disk and fsyncs. Called with
// mu held; releases it around the file I/O (the flushing flag keeps the
// flusher exclusive).
func (w *WAL) flushLocked() {
	w.flushing = true
	buf := w.pending
	w.pending = nil
	last := w.nextSeq
	first := w.durable + 1
	w.mu.Unlock() //lint:allow lock — group commit: the flushing flag keeps the flusher exclusive while the fsync runs unlocked
	err := w.writeAndSync(buf, first)
	w.mu.Lock() //lint:allow lock — re-acquired for the caller, who entered holding it
	if err != nil && w.err == nil {
		w.err = err
	}
	if err == nil && last > w.durable {
		w.durable = last
		// The durable byte end moves with the durable sequence, under the
		// same lock: a reader that sees one sees the other.
		w.segs[len(w.segs)-1].size = w.fsize
	}
	w.flushing = false
	w.cond.Broadcast()
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// writeAndSync rotates if the active segment is over budget, writes one
// batch of frames, and fsyncs. Only the flusher calls it, so w.f and
// w.fsize need no lock.
func (w *WAL) writeAndSync(buf []byte, firstSeq uint64) error {
	if len(buf) == 0 {
		return nil
	}
	if w.fsize >= w.opts.SegmentBytes {
		if err := w.rotate(firstSeq); err != nil {
			return err
		}
	}
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("ingest: wal write: %w", err)
	}
	w.fsize += int64(len(buf))
	if !w.opts.NoSync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("ingest: wal fsync: %w", err)
		}
	}
	return nil
}

// rotate closes the active segment and opens a fresh one. The segs
// slice append needs mu (Replay snapshots it).
func (w *WAL) rotate(firstSeq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.openSegment(firstSeq)
}

// LastSeq returns the last assigned sequence (0 before any append).
// Records up to the sequence returned by a completed Append are
// durable; LastSeq may briefly run ahead of durability while another
// producer's flush is in flight.
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq
}

// DurableSeq returns the highest fsynced sequence.
func (w *WAL) DurableSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable
}

// Notify returns a channel carrying a token whenever the durable
// watermark advances — the consumer's wake-up signal. Capacity one;
// a reader must re-check state after draining it.
func (w *WAL) Notify() <-chan struct{} { return w.notify }

// Replay streams records with sequence > after to fn in order,
// stopping early when fn returns false. It reads the durable prefix as
// of the call; records appended afterwards are not included. An `after`
// below the oldest record TruncateThrough has left starts there. Damage
// anywhere in the replayed range is returned as an error.
func (w *WAL) Replay(after uint64, fn func(seq uint64, rec pps.Encoded) bool) error {
	w.mu.Lock()
	closed, limit := w.closed, w.durable
	if oldest := w.segs[0].first; after < oldest-1 {
		after = oldest - 1
	}
	w.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if limit <= after {
		return nil
	}
	cur := w.newCursor(after)
	defer cur.close()
	return cur.read(int(min(limit-after, math.MaxInt)), fn)
}

// TruncateThrough deletes whole segments whose every record has
// sequence <= seq. The active segment is never deleted. Returns the
// number of segments removed. It is only legal for seq <= the drained
// watermark of every consumer of this log, so it only ever removes
// segments behind their cursors; a cursor whose next segment is gone
// reports an error, it does not skip.
func (w *WAL) TruncateThrough(seq uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	removed := 0
	for len(w.segs) > 1 && w.segs[1].first <= seq+1 {
		if err := os.Remove(w.segs[0].path); err != nil {
			return removed, err
		}
		w.segs = w.segs[1:]
		removed++
	}
	return removed, nil
}

// Close flushes pending frames and closes the active segment. Further
// operations fail with ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	for w.flushing {
		w.cond.Wait()
	}
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	if len(w.pending) > 0 && w.err == nil {
		w.flushLocked()
	}
	w.closed = true
	err := w.err
	f := w.f
	w.f = nil
	w.cond.Broadcast()
	w.mu.Unlock()
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
