package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

// TestFrameRoundTripQuick: any frame content survives write/read.
func TestFrameRoundTripQuick(t *testing.T) {
	f := func(id uint64, typ string, errStr string, body []byte) bool {
		in := frame{ID: id, codec: codecJSON, Body: body}
		if typ != "" {
			in.kind = kindRequest
			in.Type = typ
		} else {
			in.kind = kindResponse
			in.Err = errStr
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, &in); err != nil {
			return false
		}
		out, err := readFrame(&buf)
		if err != nil {
			return false
		}
		defer out.release()
		return out.ID == in.ID && out.Type == in.Type && out.Err == in.Err &&
			out.kind == in.kind && bytes.Equal(out.Body, in.Body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBinaryFrameBinaryBody: the binary envelope carries binary-codec
// bodies byte-for-byte.
func TestBinaryFrameBinaryBody(t *testing.T) {
	payload := []byte{0x00, 0xff, 0x80, 0x01, 0x02}
	in := frame{ID: 7, kind: kindRequest, Type: "node.query", codec: codecBinary, Body: payload}
	var buf bytes.Buffer
	if err := writeFrame(&buf, &in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer out.release()
	if out.codec != codecBinary || !bytes.Equal(out.Body, payload) {
		t.Fatalf("binary body mangled: codec=%d body=%x", out.codec, out.Body)
	}
}

// TestBinaryCancelFrame: cancel frames carry only the id.
func TestBinaryCancelFrame(t *testing.T) {
	in := frame{ID: 42, kind: kindCancel}
	var buf bytes.Buffer
	if err := writeFrame(&buf, &in); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 4+1+2 {
		t.Fatalf("cancel frame is %d bytes, want <= 7", buf.Len())
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer out.release()
	if out.kind != kindCancel || out.ID != 42 {
		t.Fatalf("cancel frame decoded as kind=%d id=%d", out.kind, out.ID)
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	buf.Write(hdr[:])
	if _, err := readFrame(&buf); err == nil {
		t.Error("oversize frame must be rejected before allocation")
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString("short")
	if _, err := readFrame(&buf); err == nil {
		t.Error("truncated body must error")
	}
}

// TestPreamble pins the connection preamble's bytes and the three
// verdicts a peer's preamble can get.
func TestPreamble(t *testing.T) {
	want := []byte{'R', 'O', 'A', 'R', 0, 0, 0, Version}
	if got := appendPreamble(nil); !bytes.Equal(got, want) {
		t.Fatalf("preamble = %x, want %x", got, want)
	}
	var p [preambleLen]byte
	copy(p[:], want)
	if v, ok := peerVersion(p); !ok || v != Version {
		t.Errorf("own preamble parsed as (%d, %v)", v, ok)
	}
	p[7]++
	if v, ok := peerVersion(p); !ok || v != Version+1 {
		t.Errorf("newer peer parsed as (%d, %v)", v, ok)
	}
	// A version-0 peer's first bytes: a length prefix and a JSON envelope.
	copy(p[:], "\x00\x00\x00\x2a{\"id")
	if _, ok := peerVersion(p); ok {
		t.Error("a JSON frame passed for a preamble")
	}
}

// FuzzPreamble: the preamble parser accepts exactly the magic, and
// whatever version it reports is the one on the wire.
func FuzzPreamble(f *testing.F) {
	f.Add(appendPreamble(nil))
	f.Add([]byte("ROAR\x00\x00\x00\x01"))
	f.Add([]byte("\x00\x00\x00\x2a{\"id"))
	f.Add([]byte("GET / HT"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p [preambleLen]byte
		if copy(p[:], data) < preambleLen {
			return
		}
		v, ok := peerVersion(p)
		if ok != bytes.HasPrefix(data, []byte(preambleMagic)) {
			t.Fatalf("magic verdict %v on %q", ok, data[:preambleLen])
		}
		if ok && v != binary.BigEndian.Uint32(data[4:8]) {
			t.Fatalf("version %d from %x", v, data[4:8])
		}
	})
}

// FuzzDecodeBinaryFrame: arbitrary bytes never panic the binary
// envelope parser, and valid frames survive a re-encode round trip.
func FuzzDecodeBinaryFrame(f *testing.F) {
	seed := frame{ID: 9, kind: kindRequest, Type: "node.query", codec: codecBinary, Body: []byte{1, 2, 3}}
	var buf bytes.Buffer
	if err := writeFrame(&buf, &seed); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes()[4:]) // envelope without the length prefix
	f.Add([]byte{})
	f.Add([]byte{kindCancel, 0x01})
	f.Add([]byte{kindResponse, 0x00, 0x00, codecJSON})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decodeBinaryFrame(data)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeFrame(&out, fr); err != nil {
			t.Fatalf("valid frame failed to re-encode: %v", err)
		}
		back, err := readFrame(&out)
		if err != nil {
			t.Fatalf("re-encoded frame failed to parse: %v", err)
		}
		if back.ID != fr.ID || back.kind != fr.kind || back.Type != fr.Type ||
			back.Err != fr.Err || !bytes.Equal(back.Body, fr.Body) {
			t.Fatal("binary frame round trip diverged")
		}
		back.release()
	})
}
