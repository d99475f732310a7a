package ingest

import (
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"sort"

	"roar/internal/binfmt"
	"roar/internal/pps"
)

// cursorBufBytes is the read buffer a cursor allocates at its first
// read: 256 frames of a slim record in one pread, so a default consumer
// batch takes a few. A frame larger than this grows the buffer to fit.
const cursorBufBytes = 64 << 10

// cursor is the one reader of the log. It stays positioned after the
// last frame it consumed (segment, byte offset, buffered bytes), so a
// read costs what it returns and every segment byte is read once:
//
//   - It yields exactly the records with sequence in (after, durable],
//     in order, each once, and checks itself that every frame carries
//     the previous sequence plus one.
//   - It never looks at bytes at or past the durable byte end the WAL
//     recorded at its last successful fsync (segment.size). Below that
//     end a bad CRC, a short frame or a sequence gap is corruption and
//     comes back as an error; nothing is skipped.
//   - Frames at or below `after` are passed over by their header and
//     sequence varint alone: no CRC, no decode (recovery validated them).
//   - At the final end of a closed segment it moves to the segment that
//     starts at the next sequence.
//
// Nothing is opened or allocated before the first read. A cursor
// belongs to one goroutine; any number may read one WAL.
type cursor struct {
	w     *WAL
	after uint64
	seq   uint64 // last frame consumed, yielded or passed over

	// The segment being read; path is empty until the first read.
	path  string
	first uint64
	end   int64 // its durable byte end as of the last sync
	f     *os.File
	off   int64  // file offset of buf[r], the next unconsumed byte
	buf   []byte // buf[r:] is read and not yet consumed
	r     int

	// Exact counts for the tests that pin the drain's cost: frames
	// decoded (CRC + view), and bytes read from segment files.
	frames, bytesRead int64
}

// newCursor returns a cursor that will yield the records after
// sequence `after`.
func (w *WAL) newCursor(after uint64) *cursor {
	return &cursor{w: w, after: after, seq: after}
}

// close releases the cursor's file. The cursor must not be read again.
func (c *cursor) close() {
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
}

func (c *cursor) corrupt(err error) error {
	return fmt.Errorf("ingest: %s at offset %d (after sequence %d): %w", c.path, c.off, c.seq, err)
}

// sync asks the WAL, under its lock, which segment holds the next
// sequence and where that segment's durable bytes end. It positions a
// fresh cursor, follows a rotation, and otherwise just moves end.
func (c *cursor) sync() error {
	w := c.w
	w.mu.Lock()
	closed := w.closed
	segs := w.segs
	i := sort.Search(len(segs), func(i int) bool { return segs[i].first > c.seq+1 }) - 1
	var seg segment
	prevSize := int64(-1) // final size of the segment being left, if it still exists
	if i >= 0 {
		seg = segs[i]
		if i > 0 && segs[i-1].first == c.first {
			prevSize = segs[i-1].size
		}
	}
	oldest := segs[0].first
	w.mu.Unlock()
	switch {
	case closed:
		return ErrClosed
	case i < 0:
		return fmt.Errorf("ingest: records %d..%d were truncated away before they were read", c.seq+1, oldest-1)
	case seg.first == c.first:
		c.end = seg.size
		return nil
	}
	if c.path != "" {
		// Rotation: every frame of the segment being left is consumed, so
		// the next one must start exactly one sequence on.
		if seg.first != c.seq+1 || (prevSize >= 0 && prevSize != c.off) {
			return c.corrupt(fmt.Errorf("segment ends at sequence %d but %s starts at %d", c.seq, seg.path, seg.first))
		}
		c.close()
	}
	c.path, c.first, c.end = seg.path, seg.first, seg.size
	c.seq = seg.first - 1
	c.off, c.buf, c.r = 0, c.buf[:0], 0
	return nil
}

// fill makes buf[r:] hold at least need bytes, reading forward through
// the file but never past the durable end.
func (c *cursor) fill(need int) error {
	have := len(c.buf) - c.r
	if have >= need {
		return nil
	}
	if c.off+int64(need) > c.end {
		return c.corrupt(fmt.Errorf("frame runs past the durable end %d: %w", c.end, ErrShortFrame))
	}
	if c.f == nil {
		f, err := os.Open(c.path)
		if err != nil {
			return fmt.Errorf("ingest: opening segment: %w", err)
		}
		c.f = f
	}
	// Slide what is unconsumed to the front; allocate only at the first
	// read or for a frame larger than the buffer.
	if cap(c.buf) < need {
		grown := make([]byte, have, max(need, cursorBufBytes))
		copy(grown, c.buf[c.r:])
		c.buf = grown
	} else {
		copy(c.buf[:have], c.buf[c.r:])
		c.buf = c.buf[:have]
	}
	c.r = 0
	want := int(min(int64(cap(c.buf)-have), c.end-c.off-int64(have)))
	n, err := c.f.ReadAt(c.buf[have:have+want], c.off+int64(have))
	c.bytesRead += int64(n)
	c.buf = c.buf[:have+n]
	if n < want {
		return c.corrupt(fmt.Errorf("segment is shorter than its durable end %d: %w", c.end, err))
	}
	return nil
}

func (c *cursor) consume(n int) {
	c.r += n
	c.off += int64(n)
}

// read yields up to n records to fn, in sequence order, and returns
// when n are yielded, fn returns false, or the cursor has caught up
// with the durable end of the log. A yielded record's nonce and filter
// are CRC-checked views of the read buffer (viewFrame), good only until
// fn returns: fn copies what it keeps.
func (c *cursor) read(n int, fn func(seq uint64, rec pps.Encoded) bool) error {
	if err := c.sync(); err != nil {
		return err
	}
	for n > 0 && c.off < c.end {
		if c.off == 0 {
			if err := c.fill(segHeaderBytes); err != nil {
				return err
			}
			if string(c.buf[c.r:c.r+segHeaderBytes]) != segMagic {
				return c.corrupt(fmt.Errorf("bad segment magic"))
			}
			c.consume(segHeaderBytes)
		} else {
			seq, rec, err := c.frame()
			if err != nil {
				return err
			}
			if seq > c.after {
				n--
				if !fn(seq, rec) {
					return nil
				}
			}
		}
		if c.off == c.end {
			// Everything known durable here is consumed: has the end
			// moved, or the log rotated?
			if err := c.sync(); err != nil {
				return err
			}
		}
	}
	return nil
}

// frame consumes the frame at the cursor and returns its sequence, and
// its record unless the frame is at or below `after`.
func (c *cursor) frame() (seq uint64, rec pps.Encoded, err error) {
	if err := c.fill(frameHeaderBytes); err != nil {
		return 0, pps.Encoded{}, err
	}
	plen := binary.BigEndian.Uint32(c.buf[c.r:])
	if plen > maxFramePayload {
		return 0, pps.Encoded{}, c.corrupt(fmt.Errorf("frame payload length %d exceeds limit", plen))
	}
	size := frameHeaderBytes + int(plen)
	if err := c.fill(size); err != nil {
		return 0, pps.Encoded{}, err
	}
	frame := c.buf[c.r : c.r+size]
	if c.seq < c.after {
		r := binfmt.NewReader(frame[frameHeaderBytes:])
		if seq = r.Uvarint("frame seq"); r.Err() != nil {
			return 0, pps.Encoded{}, c.corrupt(r.Err())
		}
	} else {
		c.frames++
		if seq, rec, _, err = viewFrame(frame); err != nil {
			return 0, pps.Encoded{}, c.corrupt(err)
		}
	}
	if seq != c.seq+1 {
		return 0, pps.Encoded{}, c.corrupt(fmt.Errorf("sequence gap (frame %d after %d)", seq, c.seq))
	}
	c.seq = seq
	c.consume(size)
	return seq, rec, nil
}

// tailMarks is how many positions a Tail remembers: where its last
// reads ended. Frontends that follow the drain each ask from where one
// of them ended, so a few drains' worth covers any number of them.
const tailMarks = 16

// Tail is an exported cursor for readers that follow the log forward in
// ranges, as the coordinator does when frontends ask for the records
// drained since their cached answers. It stays where its last read
// ended, and remembers where its last tailMarks reads ended: a read
// that starts elsewhere re-positions at the nearest of those at or
// before its start (else at the start of its segment), and passes the
// frames in between by their headers, read but not decoded. So each of
// several requesters that follow the drain, each from where its own
// last range ended, reads about the frames it asks for. Nothing is
// opened before the first read. A Tail belongs to one goroutine at a
// time.
type Tail struct {
	w     *WAL
	cur   *cursor
	marks []tailMark // oldest first
}

// tailMark is a cursor position between two frames: seq is the frame
// before it, off the byte offset of the next in segment path.
type tailMark struct {
	seq   uint64
	path  string
	first uint64
	off   int64
}

// Tail returns a reader of w that has read nothing yet.
func (w *WAL) Tail() *Tail { return &Tail{w: w} }

// Read yields the n records after sequence `after` to fn, in order,
// stopping early when fn returns false or the log's durable end comes
// first. A yielded record's nonce and filter are views of the read
// buffer, good only until fn returns. A read error drops the position
// and the marks.
func (t *Tail) Read(after uint64, n int, fn func(seq uint64, rec pps.Encoded) bool) error {
	if t.cur == nil || t.cur.seq != after {
		t.seek(after)
	}
	if err := t.cur.read(n, fn); err != nil {
		t.Close()
		t.marks = nil
		return err
	}
	if c := t.cur; c.path != "" {
		t.marks = slices.DeleteFunc(t.marks, func(m tailMark) bool { return m.seq == c.seq })
		if len(t.marks) == tailMarks {
			t.marks = t.marks[1:]
		}
		t.marks = append(t.marks, tailMark{seq: c.seq, path: c.path, first: c.first, off: c.off})
	}
	return nil
}

// seek positions the cursor to read the records after `after`: at the
// latest mark at or before it, else unplaced (sync then starts at the
// start of the segment that holds after+1). The read buffer and the
// counts carry over.
func (t *Tail) seek(after uint64) {
	if t.cur == nil {
		t.cur = t.w.newCursor(after)
	}
	c := t.cur
	c.close()
	c.after, c.seq, c.path, c.first, c.end, c.off, c.buf, c.r = after, after, "", 0, 0, 0, c.buf[:0], 0
	var best *tailMark
	for i := range t.marks {
		if m := &t.marks[i]; m.seq <= after && (best == nil || m.seq > best.seq) {
			best = m
		}
	}
	if best != nil {
		c.seq, c.path, c.first, c.off = best.seq, best.path, best.first, best.off
	}
}

// Close releases the reader's file; the next Read re-opens it.
func (t *Tail) Close() {
	if t.cur != nil {
		t.cur.close()
		t.cur = nil
	}
}
