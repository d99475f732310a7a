// Package binfmt is the one bounds-checked cursor every binary parser in
// the tree reads through: the wire envelope, the proto bodies, WAL
// frames, the corpus file and the index segment. It imports nothing of
// this module, so any package may use it.
//
// A Reader fails once and stays failed: every read after the first
// failure returns a zero value, so a decoder reads its fields straight
// through and checks Err (or Finish) once at the end. Count and CapHint
// keep a declared element count from provoking an allocation the input
// cannot back.
package binfmt

import (
	"encoding/binary"
	"fmt"
)

// Reader is a bounds-checked cursor over one byte slice.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a cursor at the start of data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Err reports the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Offset is the number of bytes consumed.
func (r *Reader) Offset() int { return r.off }

// Fail records that the input is truncated or corrupt at what, unless
// an earlier failure is already recorded. Kept out of line so the reads
// that call it on their failure path stay small enough to inline.
//
//go:noinline
func (r *Reader) Fail(what string) {
	r.FailWith(fmt.Errorf("truncated or corrupt %s", what))
}

// FailWith records err unless an earlier failure is already recorded.
func (r *Reader) FailWith(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.Fail(what)
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed zigzag varint, binary.AppendVarint's form.
func (r *Reader) Varint(what string) int64 {
	u := r.Uvarint(what)
	return int64(u>>1) ^ -int64(u&1)
}

// Byte reads one byte.
func (r *Reader) Byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.Fail(what)
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

// U64 reads a big-endian uint64.
func (r *Reader) U64(what string) uint64 {
	if b := r.Take(8, what); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Take reads the next n bytes in place: the result aliases the input.
func (r *Reader) Take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.data)-r.off < n {
		r.Fail(what)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// View reads a uvarint-length-prefixed byte string in place: the result
// aliases the input, so whatever is kept must be copied.
func (r *Reader) View(what string) []byte {
	l := r.Uvarint(what)
	if r.err != nil {
		return nil
	}
	if uint64(len(r.data)-r.off) < l {
		r.Fail(what)
		return nil
	}
	b := r.data[r.off : r.off+int(l)]
	r.off += int(l)
	return b
}

// Bytes reads a uvarint-length-prefixed byte string and copies it; an
// empty string is nil.
func (r *Reader) Bytes(what string) []byte {
	v := r.View(what)
	if len(v) == 0 {
		return nil
	}
	return append([]byte(nil), v...)
}

// Count reads a uvarint element count and checks it against the bytes
// left: each element needs at least minBytes of input.
func (r *Reader) Count(what string, minBytes int) int {
	n := r.Uvarint(what)
	if r.err == nil && n > uint64((len(r.data)-r.off)/minBytes+1) {
		r.Fail(what + " count")
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// CapHint bounds the initial capacity of a slice decoded from a count:
// in-memory elements dwarf their input minimums, so growth past the hint
// is paid only as real elements parse.
func CapHint(n int) int { return min(n, 4096) }

// Finish reports the first failure, or a *TrailingBytesError if input
// is left after the last field of what.
func (r *Reader) Finish(what string) error {
	if r.err == nil && r.off != len(r.data) {
		return &TrailingBytesError{What: what, N: len(r.data) - r.off}
	}
	return r.err
}

// TrailingBytesError is Finish's rejection of input that continues past
// the last field.
type TrailingBytesError struct {
	What string // what was decoded, e.g. "PutReq"
	N    int    // unread byte count
}

func (e *TrailingBytesError) Error() string {
	return fmt.Sprintf("%d trailing bytes after %s", e.N, e.What)
}
