package wire

// Framing. Every frame on a connection is one length-prefixed binary
// envelope; there is no other dialect:
//
//	uint32  frame length (excluding itself, bounded by MaxFrame)
//	byte    kind: 0 request, 1 response, 2 cancel
//	uvarint id
//	request:  uvarint method length, method bytes
//	response: uvarint error length, error bytes
//	byte    body codec: 0 JSON, 1 binary (absent on cancel)
//	...     body bytes (the rest of the frame)
//
// The body codec is decided by the body's Go type: the high-volume
// bodies (sub-query fan-out, replica pushes, health reports, log
// replication) implement WireAppender/WireDecoder (internal/proto) and
// ship raw bytes, varints and delta-compressed id sets; control messages
// (views, joins, stats) ride as JSON inside the same envelope. The codec
// byte is the check on outside input: a payload whose codec does not
// match the receiving type is rejected, never reinterpreted.
//
// Frame scratch is pooled: envelopes and bodies are appended into
// reusable buffers, so the steady-state hot path performs no per-frame
// envelope allocations on either side.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Version names the one dialect this build speaks: the envelope above
// plus the body encodings of internal/proto. Any change to either bumps
// it.
const Version = 3

// preambleLen is the size of the connection preamble: the magic "ROAR"
// followed by big-endian uint32(Version).
const preambleLen = 8

const preambleMagic = "ROAR"

// appendPreamble appends this build's preamble.
func appendPreamble(b []byte) []byte {
	b = append(b, preambleMagic...)
	return binary.BigEndian.AppendUint32(b, Version)
}

// peerVersion parses a peer's preamble. ok is false when the magic did
// not match, i.e. the peer is not speaking this protocol at all.
func peerVersion(p [preambleLen]byte) (v uint32, ok bool) {
	if string(p[:4]) != preambleMagic {
		return 0, false
	}
	return binary.BigEndian.Uint32(p[4:]), true
}

// Frame kinds. A cancel frame carries only the id of the request to
// abandon: the server cancels that request's context and sends no
// response, so handlers that honour their context (the node's matcher
// does) stop computing answers nobody will read.
const (
	kindRequest  = byte(0)
	kindResponse = byte(1)
	kindCancel   = byte(2)
)

// Body codecs.
const (
	codecJSON   = byte(0)
	codecBinary = byte(1)
)

// WireAppender is implemented by request/response bodies that know how
// to append their binary hot-path encoding. Value receivers suffice, so
// bodies passed by value to Call still qualify.
type WireAppender interface {
	AppendWire(buf []byte) []byte
}

// WireDecoder is the decode side, implemented with pointer receivers.
// Implementations must copy any byte slices they retain: the input
// aliases a pooled read buffer.
type WireDecoder interface {
	DecodeWire(data []byte) error
}

// Body is a received payload plus the codec it arrived in. Handlers
// decode it into their request struct with Decode.
type Body struct {
	codec byte
	data  []byte
}

// Len reports the payload size in bytes.
func (b Body) Len() int { return len(b.data) }

// Decode unmarshals the payload into v. The codec it arrived in must be
// the one v's type speaks: binary exactly when v implements WireDecoder.
// An absent body (a nil request) decodes as the zero value.
func (b Body) Decode(v interface{}) error {
	d, binaryType := v.(WireDecoder)
	switch b.codec {
	case codecJSON:
		if len(b.data) == 0 {
			return nil
		}
		if binaryType {
			return &JSONBodyError{Type: fmt.Sprintf("%T", v)}
		}
		return json.Unmarshal(b.data, v)
	case codecBinary:
		if !binaryType {
			return &BinaryBodyError{Type: fmt.Sprintf("%T", v)}
		}
		return d.DecodeWire(b.data)
	default:
		return fmt.Errorf("wire: unknown body codec %d", b.codec)
	}
}

// --- pooled frame buffers ---

// bufPool holds frame scratch buffers. Oversized buffers (beyond
// maxPooledBuf) are dropped rather than pooled, so one giant replica
// push does not pin its footprint forever.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 4<<10)
		return &b
	},
}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if b == nil || cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// grow returns b resized to n bytes, reallocating only when capacity is
// short.
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// --- frame representation ---

// frame is the internal representation of one message. Body carries
// the payload bytes; codec says how to decode them. pooled, when set, is
// the read buffer Body aliases — release() returns it once the frame's
// bytes are no longer referenced.
type frame struct {
	ID     uint64
	Type   string // method; requests only
	Err    string // error text on responses
	kind   byte
	codec  byte
	Body   []byte
	pooled *[]byte
}

// release returns the pooled read buffer, if any. Safe to call more
// than once.
func (f *frame) release() {
	if f.pooled != nil {
		putBuf(f.pooled)
		f.pooled = nil
		f.Body = nil
	}
}

// --- write path ---

// writeFrame encodes f and writes it as one length-prefixed message.
func writeFrame(w io.Writer, f *frame) error {
	buf := getBuf()
	defer putBuf(buf)
	b := (*buf)[:4] // length placeholder
	b = append(b, f.kind)
	b = binary.AppendUvarint(b, f.ID)
	switch f.kind {
	case kindRequest:
		b = binary.AppendUvarint(b, uint64(len(f.Type)))
		b = append(b, f.Type...)
	case kindResponse:
		b = binary.AppendUvarint(b, uint64(len(f.Err)))
		b = append(b, f.Err...)
	case kindCancel:
		// id only
	default:
		return fmt.Errorf("wire: encoding unknown frame kind %d", f.kind)
	}
	if f.kind != kindCancel {
		b = append(b, f.codec)
		b = append(b, f.Body...)
	}
	n := len(b) - 4
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(n))
	_, err := w.Write(b)
	*buf = b[:0]
	return err
}

// --- read path ---

// readFrame reads one length-prefixed message. The frame aliases a
// pooled buffer: callers must f.release() once decoded.
func readFrame(r io.Reader) (*frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	buf := getBuf()
	body := grow(*buf, n)
	*buf = body
	if _, err := io.ReadFull(r, body); err != nil {
		putBuf(buf)
		return nil, err
	}
	f, err := decodeBinaryFrame(body)
	if err != nil {
		putBuf(buf)
		return nil, err
	}
	f.pooled = buf
	return f, nil
}

// decodeBinaryFrame parses an envelope. The returned frame's Body
// aliases data.
func decodeBinaryFrame(data []byte) (*frame, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("wire: binary frame of %d bytes too short", len(data))
	}
	f := &frame{kind: data[0]}
	rest := data[1:]
	id, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("wire: binary frame: bad id varint")
	}
	f.ID = id
	rest = rest[n:]
	switch f.kind {
	case kindCancel:
		if len(rest) != 0 {
			return nil, fmt.Errorf("wire: cancel frame with %d trailing bytes", len(rest))
		}
		return f, nil
	case kindRequest:
		l, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < l {
			return nil, fmt.Errorf("wire: binary frame: bad method length")
		}
		f.Type = string(rest[n : n+int(l)])
		rest = rest[n+int(l):]
	case kindResponse:
		l, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < l {
			return nil, fmt.Errorf("wire: binary frame: bad error length")
		}
		f.Err = string(rest[n : n+int(l)])
		rest = rest[n+int(l):]
	default:
		return nil, fmt.Errorf("wire: unknown frame kind %d", f.kind)
	}
	if len(rest) < 1 {
		return nil, fmt.Errorf("wire: binary frame missing body codec")
	}
	f.codec = rest[0]
	if f.codec != codecJSON && f.codec != codecBinary {
		return nil, fmt.Errorf("wire: unknown body codec %d", f.codec)
	}
	f.Body = rest[1:]
	return f, nil
}

// encodeBody renders v for the wire in the codec its type speaks:
// binary when it implements WireAppender, JSON otherwise. buf is pooled
// append scratch for the binary path.
func encodeBody(v interface{}, buf []byte) (data []byte, codec byte, err error) {
	if v == nil {
		return nil, codecJSON, nil
	}
	if a, ok := v.(WireAppender); ok {
		return a.AppendWire(buf[:0]), codecBinary, nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, codecJSON, err
	}
	return b, codecJSON, nil
}

// decodeInto decodes a response body into out per the frame's codec.
func decodeInto(f *frame, out interface{}) error {
	if out == nil || len(f.Body) == 0 {
		return nil
	}
	return Body{codec: f.codec, data: f.Body}.Decode(out)
}
