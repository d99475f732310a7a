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
// On-disk layout: each segment file starts with an 8-byte magic and
// carries length-prefixed frames,
//
//	frame   := u32 payload-length | u32 crc32(payload) | payload
//	payload := uvarint seq | record
//
// where record is the one binary form of a record (pps.AppendRecord:
// uvarint id, uvarint-length nonce, uvarint-length filter), the same
// bytes a replica push, an ingest append and the corpus file carry.
//
// Sequence numbers are global across segments, contiguous, and start
// at 1; a segment's file name carries the sequence its first frame
// holds. Recovery scans every segment with a bounds-checked cursor:
// torn bytes at the tail of the LAST segment are truncated (the crash
// left a partial write; everything before it was fsynced), while
// corruption anywhere else is an error — silent data loss is never an
// option for the middle of the log.
//
// The active segment may carry up to preallocBytes of zeros past its
// last frame: a flush that runs past the zeroed length zeroes the next
// chunk before its fsync, so the flushes after it overwrite allocated
// blocks and their fsyncs commit no new file size. Zeros decode as a
// bad frame, so recovery treats them as a torn tail. A closed segment
// is sealed: it ends exactly at its last frame.
//
// Reading has one implementation, the tailing cursor of cursor.go:
// Replay and the consumer both read through it, each frame once, and
// never past the byte end the WAL recorded at its last successful
// fsync, so a half-written group commit (or the zeroed tail) is "not
// there yet" and any damage below that end is an error, not a place to
// stop quietly.
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

	"roar/internal/binfmt"
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
	// preallocBytes is how far past its last frame a flush that extends
	// the active segment zero-fills it (never past SegmentBytes). An
	// fsync that has to commit a larger file size costs more than one
	// that overwrites allocated blocks, and this makes about one flush
	// per MiB of log pay it.
	preallocBytes = 1 << 20
)

// zeros is the source of the zero fill.
var zeros [64 << 10]byte

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
	b = pps.AppendRecord(binary.AppendUvarint(b, seq), rec)
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
	seq, rec, n, err = viewFrame(data)
	rec.Nonce, rec.Filter = pps.CopyMetadata(rec.Nonce, rec.Filter)
	return seq, rec, n, err
}

// viewFrame is DecodeFrame with the record's nonce and filter left as
// views of data (pps.ViewRecord): good only while data is, and it
// allocates nothing.
func viewFrame(data []byte) (seq uint64, rec pps.Encoded, n int, err error) {
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
	r := binfmt.NewReader(payload)
	seq = r.Uvarint("frame seq")
	pps.ViewRecord(&r, &rec)
	if err := r.Finish("frame payload"); err != nil {
		return 0, pps.Encoded{}, 0, fmt.Errorf("ingest: %w", err)
	}
	return seq, rec, frameHeaderBytes + int(plen), nil
}

// Options tunes a WAL.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes. Default 8 MiB. The active segment's file may run up to
	// 1 MiB of zeros past its last frame, but not past this size unless
	// its frames do; a closed segment ends at its last frame.
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
// be written. size is the durable byte end: where the last frame ends
// as of the last successful fsync (flushLocked), final (and the file's
// length) once a successor segment exists. Readers never look at bytes
// at or past it.
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
	// happens outside mu. fsize is where its last frame ends, falloc
	// its length: the bytes between them are zeros.
	f        *os.File
	fsize    int64
	falloc   int64
	segs     []segment
	nextSeq  uint64 // last assigned sequence
	pending  []byte // encoded frames awaiting flush
	spare    []byte // the last flushed buffer, emptied: the next pending
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
	w.f, w.fsize, w.falloc = f, size, size
	return nil
}

// recoverSegment validates one segment: magic, and contiguous frames
// from the sequence its file name declares. On the last segment a torn
// tail (a zeroed one included) is truncated in place, and a file
// shorter than the magic gets its magic back; returns the number of
// valid frames and the byte length they end at.
func (w *WAL) recoverSegment(path string, first uint64, tolerateTail bool) (frames uint64, size int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	if len(data) < segHeaderBytes && tolerateTail {
		// A crash between openSegment's create and its fsync. No frame
		// was ever written here (the magic is fsynced first), so the log
		// continues at the sequence the name carries.
		f, err := w.initSegment(path, os.O_TRUNC)
		if err != nil {
			return 0, 0, fmt.Errorf("ingest: rewriting the magic of %s: %w", path, err)
		}
		return 0, int64(segHeaderBytes), f.Close()
	}
	if len(data) < segHeaderBytes || string(data[:segHeaderBytes]) != segMagic {
		return 0, 0, fmt.Errorf("ingest: %s: bad segment magic", path)
	}
	off := segHeaderBytes
	seq := first - 1
	for off < len(data) {
		fseq, _, n, err := viewFrame(data[off:])
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
	f, err := w.initSegment(path, os.O_CREATE|os.O_EXCL)
	if err != nil {
		return err
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f, w.fsize, w.falloc = f, int64(segHeaderBytes), int64(segHeaderBytes)
	w.segs = append(w.segs, segment{path: path, first: first, size: w.fsize})
	return nil
}

// initSegment opens path with flag added to O_RDWR, writes the magic,
// and makes the file and its name durable.
func (w *WAL) initSegment(path string, flag int) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|flag, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err = f.Write([]byte(segMagic)); err == nil && !w.opts.NoSync {
		if err = f.Sync(); err == nil {
			err = syncDir(w.dir)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
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
// flusher exclusive). Appends arriving meanwhile fill the spare buffer,
// and the one written becomes the spare once the write returns, so two
// buffers serve every group commit and neither regrows from nothing.
func (w *WAL) flushLocked() {
	w.flushing = true
	buf := w.pending
	w.pending, w.spare = w.spare[:0], nil
	last := w.nextSeq
	first := w.durable + 1
	w.mu.Unlock() //lint:allow lock — group commit: the flushing flag keeps the flusher exclusive while the fsync runs unlocked
	err := w.writeAndSync(buf, first)
	w.mu.Lock() //lint:allow lock — re-acquired for the caller, who entered holding it
	w.spare = buf[:0]
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
// batch of frames over the zeroed tail, and fsyncs. A batch that runs
// past the tail zeroes the next chunk after its frames, in the same
// fsync. Only the flusher calls it, so w.f, w.fsize and w.falloc need no
// lock.
func (w *WAL) writeAndSync(buf []byte, firstSeq uint64) error {
	if len(buf) == 0 {
		return nil
	}
	if w.fsize >= w.opts.SegmentBytes {
		if err := w.rotate(firstSeq); err != nil {
			return err
		}
	}
	if _, err := w.f.WriteAt(buf, w.fsize); err != nil {
		return fmt.Errorf("ingest: wal write: %w", err)
	}
	end := w.fsize + int64(len(buf))
	if end > w.falloc {
		w.falloc = max(end, min(end+preallocBytes, w.opts.SegmentBytes))
		for off := end; off < w.falloc; {
			n, err := w.f.WriteAt(zeros[:min(int64(len(zeros)), w.falloc-off)], off)
			if err != nil {
				return fmt.Errorf("ingest: wal zero fill: %w", err)
			}
			off += int64(n)
		}
	}
	if !w.opts.NoSync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("ingest: wal fsync: %w", err)
		}
	}
	w.fsize = end
	return nil
}

// rotate seals the active segment, then opens a fresh one: a crash
// between the two leaves the sealed segment as the last. The segs slice
// append needs mu (Replay snapshots it).
func (w *WAL) rotate(firstSeq uint64) error {
	if err := w.seal(); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.openSegment(firstSeq)
}

// seal cuts the zeroed tail off the active segment and fsyncs the cut,
// so the file ends at its last frame. (A segment rotates once its frames
// reach SegmentBytes and the tail never runs past that, so at rotation
// there is nothing to cut; sealing there keeps closed segments exact if
// the growth rule ever changes.) The file is left alone if the bytes
// after the last frame are no longer zeros: in a replica set sharing
// the directory, a successor that has reopened the log and appended to
// this segment keeps its frames when the deposed leader closes its
// handle.
func (w *WAL) seal() error {
	if w.falloc == w.fsize {
		return nil
	}
	var next [frameHeaderBytes]byte
	n, err := w.f.ReadAt(next[:], w.fsize)
	if err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("ingest: sealing wal segment: %w", err)
	}
	if string(next[:n]) != string(zeros[:n]) {
		return nil
	}
	if err := w.f.Truncate(w.fsize); err != nil {
		return fmt.Errorf("ingest: sealing wal segment: %w", err)
	}
	w.falloc = w.fsize
	if w.opts.NoSync {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("ingest: sealing wal segment: %w", err)
	}
	return nil
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
// anywhere in the replayed range is returned as an error. The records fn
// gets are its own to keep: each is copied out of the cursor's buffer.
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
	return cur.read(int(min(limit-after, math.MaxInt)), func(seq uint64, rec pps.Encoded) bool {
		rec.Nonce, rec.Filter = pps.CopyMetadata(rec.Nonce, rec.Filter)
		return fn(seq, rec)
	})
}

// TruncateThrough deletes whole segments whose every record has
// sequence <= seq. The active segment is never deleted. Returns the
// number of segments removed. It is only legal for seq <= the drained
// watermark of every consumer of this log, so it only ever removes
// segments behind their cursors; a cursor whose next segment is gone
// reports an error, it does not skip. A reader that Replays from a
// sequence it keeps needs seq <= that sequence too: Replay from below
// the oldest surviving record starts there, silently.
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

// Close flushes pending frames, seals the active segment and closes it.
// Further operations fail with ErrClosed.
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
	w.cond.Broadcast()
	w.mu.Unlock()
	// No flush starts once closed is set: the seal has the active
	// segment to itself.
	if serr := w.seal(); err == nil {
		err = serr
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
