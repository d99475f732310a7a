package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"

	"roar/internal/binfmt"
)

// Disk segment layout (little-endian where fixed-width, uvarint
// elsewhere), the SaveFile-style length-prefixed shape of the store's
// record files applied to an index:
//
//	8 bytes  magic "ROARSEG1"
//	uvarint  docCount
//	docIDs   first absolute, then uvarint deltas (strictly increasing)
//	uvarint  termCount
//	dict     termCount entries, terms strictly increasing:
//	           uvarint termLen, term bytes
//	           uvarint cardinality
//	           uvarint postingSize (encoded bitmap byte length)
//	blobs    postings concatenated in dict order, each postingSize bytes
//
// The header (docIDs + dict) is what OpenFile keeps resident; posting
// blobs are ReadAt on demand through the cache. docCount comes first so
// that OpenFile can size its one header read before it parses anything
// (headerReader). Bitmap encoding:
//
//	uvarint  containerCount
//	per container (keys strictly increasing):
//	  uvarint key
//	  byte    form: 0 array, 1 words
//	  uvarint cardinality
//	  array:  cardinality × uint16 LE   (1 ≤ card ≤ 4096)
//	  words:  8192 bytes                (card = popcount > 4096)
//
// Decoders read through binfmt's cursor and are strict — trailing bytes,
// unsorted keys or values, non-canonical container forms, and
// count/size mismatches are all rejected — and allocation is bounded by
// the input length, so a corrupt or adversarial segment cannot provoke
// huge allocations (FuzzDecodeSegment leans on both properties).

var segMagic = [8]byte{'R', 'O', 'A', 'R', 'S', 'E', 'G', '1'}

// --- encoding ---

// AppendBitmap appends b's encoding to buf.
func AppendBitmap(buf []byte, b *Bitmap) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b.keys)))
	for i, key := range b.keys {
		c := b.cs[i]
		buf = binary.AppendUvarint(buf, key)
		if c.words != nil {
			buf = append(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(c.card))
			for _, w := range c.words {
				buf = binary.LittleEndian.AppendUint64(buf, w)
			}
			continue
		}
		buf = append(buf, 0)
		buf = binary.AppendUvarint(buf, uint64(c.card))
		for _, v := range c.array {
			buf = binary.LittleEndian.AppendUint16(buf, v)
		}
	}
	return buf
}

// WriteSegment writes a memory-resident segment in the disk layout.
func WriteSegment(w io.Writer, s *Segment) error {
	if s.mem == nil {
		return fmt.Errorf("index: cannot write disk-backed segment %s (postings not resident)", s.name)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(segMagic[:]); err != nil {
		return err
	}
	var scratch []byte
	scratch = binary.AppendUvarint(scratch, uint64(len(s.docIDs)))
	prev := uint64(0)
	for i, id := range s.docIDs {
		if i == 0 {
			scratch = binary.AppendUvarint(scratch, id)
		} else {
			scratch = binary.AppendUvarint(scratch, id-prev)
		}
		prev = id
	}
	scratch = binary.AppendUvarint(scratch, uint64(len(s.terms)))
	// Encode postings once to learn their sizes for the dictionary.
	blobs := make([][]byte, len(s.terms))
	for i, t := range s.terms {
		blobs[i] = AppendBitmap(nil, s.mem[t])
		scratch = binary.AppendUvarint(scratch, uint64(len(t)))
		scratch = append(scratch, t...)
		scratch = binary.AppendUvarint(scratch, uint64(s.dict[t].card))
		scratch = binary.AppendUvarint(scratch, uint64(len(blobs[i])))
	}
	if _, err := bw.Write(scratch); err != nil {
		return err
	}
	for _, blob := range blobs {
		if _, err := bw.Write(blob); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveFile writes a memory-resident segment to path.
func SaveFile(path string, s *Segment) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("index: creating %s: %w", path, err)
	}
	if err := WriteSegment(f, s); err != nil {
		f.Close()
		return fmt.Errorf("index: writing %s: %w", path, err)
	}
	return f.Close()
}

// EncodeSegment renders a memory-resident segment as one byte slice
// (tests and the fuzz seed corpus).
func EncodeSegment(s *Segment) ([]byte, error) {
	var buf writerBuf
	if err := WriteSegment(&buf, s); err != nil {
		return nil, err
	}
	return buf.b, nil
}

type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// --- decoding ---

// decodeBitmapInto parses one bitmap from the cursor.
func decodeBitmapInto(r *binfmt.Reader) *Bitmap {
	// A container costs at least key(1) + form(1) + card(1) + 2 bytes.
	n := r.Count("bitmap containers", 5)
	b := NewBitmap()
	prevKey := uint64(0)
	for i := 0; i < n && r.Err() == nil; i++ {
		key := r.Uvarint("container key")
		if i > 0 && key <= prevKey {
			r.Fail("container key order")
			return nil
		}
		prevKey = key
		form := r.Byte("container form")
		card := int(r.Uvarint("container cardinality"))
		var c *container
		switch form {
		case 0:
			if card < 1 || card > arrayMaxCard {
				r.Fail("array container cardinality")
				return nil
			}
			raw := r.Take(2*card, "array container values")
			if r.Err() != nil {
				return nil
			}
			arr := make([]uint16, card)
			prev := -1
			for j := range arr {
				v := binary.LittleEndian.Uint16(raw[2*j:])
				if int(v) <= prev {
					r.Fail("array container value order")
					return nil
				}
				prev = int(v)
				arr[j] = v
			}
			c = &container{array: arr, card: card}
		case 1:
			raw := r.Take(containerWords*8, "words container payload")
			if r.Err() != nil {
				return nil
			}
			words := make([]uint64, containerWords)
			got := 0
			for j := range words {
				words[j] = binary.LittleEndian.Uint64(raw[8*j:])
				got += bits.OnesCount64(words[j])
			}
			if got != card || card <= arrayMaxCard {
				// card ≤ 4096 must be array form (canonical encoding).
				r.Fail("words container cardinality")
				return nil
			}
			c = &container{words: words, card: card}
		default:
			r.Fail("container form byte")
			return nil
		}
		b.keys = append(b.keys, key)
		b.cs = append(b.cs, c)
		b.card += c.card
	}
	if r.Err() != nil {
		return nil
	}
	return b
}

// DecodeBitmap parses one encoded bitmap, rejecting trailing bytes.
func DecodeBitmap(data []byte) (*Bitmap, error) {
	r := binfmt.NewReader(data)
	b := decodeBitmapInto(&r)
	if err := r.Finish("bitmap"); err != nil {
		return nil, err
	}
	return b, nil
}

// decodeHeader parses magic, docIDs, and the dictionary, returning a
// segment whose postingInfo offsets are absolute. The cursor is left at
// the first posting blob.
func decodeHeader(r *binfmt.Reader, name string) *Segment {
	magic := r.Take(8, "segment magic")
	if r.Err() == nil && string(magic) != string(segMagic[:]) {
		r.Fail("segment magic")
	}
	// Count bounds nDocs by the bytes left, so the table's allocation
	// stays linear in the input.
	nDocs := r.Count("segment docIDs", 1)
	docIDs := make([]uint64, 0, nDocs)
	prev := uint64(0)
	for i := 0; i < nDocs && r.Err() == nil; i++ {
		v := r.Uvarint("segment docID")
		if i > 0 {
			v += prev
			if v <= prev {
				r.Fail("segment docID order")
				break
			}
		}
		docIDs = append(docIDs, v)
		prev = v
	}
	// A dict entry costs at least termLen(1) + card(1) + size(1).
	nTerms := r.Count("segment terms", 3)
	s := &Segment{name: name, docIDs: docIDs, dict: make(map[string]postingInfo, binfmt.CapHint(nTerms))}
	blobBytes := int64(0)
	prevTerm := ""
	for i := 0; i < nTerms && r.Err() == nil; i++ {
		tl := int(r.Uvarint("term length"))
		term := string(r.Take(tl, "term bytes"))
		if r.Err() != nil {
			break
		}
		if i > 0 && term <= prevTerm {
			r.Fail("term order")
			break
		}
		prevTerm = term
		card := int(r.Uvarint("term cardinality"))
		size := int(r.Uvarint("posting size"))
		if r.Err() != nil {
			break
		}
		if card < 0 || size < 0 {
			r.Fail("dict entry")
			break
		}
		s.terms = append(s.terms, term)
		s.dict[term] = postingInfo{off: blobBytes, size: size, card: card}
		blobBytes += int64(size)
	}
	if r.Err() != nil {
		return nil
	}
	// Rebase offsets to the end of the header.
	base := int64(r.Offset())
	for t, info := range s.dict {
		info.off += base
		s.dict[t] = info
	}
	return s
}

// DecodeSegment parses a complete segment image into a memory-resident
// segment, rejecting trailing bytes. Every posting is decoded and
// checked through loadPosting, the path OpenFile's segments read their
// postings by, so the fuzzer that drives this decoder covers the one a
// node runs.
func DecodeSegment(data []byte) (*Segment, error) {
	r := binfmt.NewReader(data)
	s := decodeHeader(&r, "<bytes>")
	if r.Err() != nil {
		return nil, r.Err()
	}
	s.src = bytes.NewReader(data)
	mem := make(map[string]*Bitmap, len(s.terms))
	for _, t := range s.terms {
		// Take first: a size past the image fails here, before
		// loadPosting allocates for it.
		if r.Take(s.dict[t].size, "posting blob"); r.Err() != nil {
			return nil, r.Err()
		}
		bm, err := s.loadPosting(t)
		if err != nil {
			return nil, err
		}
		mem[t] = bm
	}
	if err := r.Finish("segment"); err != nil {
		return nil, err
	}
	s.src, s.mem = nil, mem
	return s, nil
}

// maxValue returns the largest value in a non-empty bitmap.
func maxValue(b *Bitmap) uint64 {
	if len(b.keys) == 0 {
		return 0
	}
	c := b.cs[len(b.cs)-1]
	base := b.keys[len(b.keys)-1] << 16
	if c.words != nil {
		for w := containerWords - 1; w >= 0; w-- {
			if c.words[w] != 0 {
				return base | uint64(w<<6+63-bits.LeadingZeros64(c.words[w]))
			}
		}
	}
	return base | uint64(c.array[len(c.array)-1])
}

// OpenFile opens a disk segment: the header (doc table + dictionary) is
// parsed and kept resident, posting blobs stay on disk behind ReadAt.
func OpenFile(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: opening %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("index: stat %s: %w", path, err)
	}
	h := headerReader{src: f, size: st.Size(), path: path}
	s, hdrLen, derr := h.read()
	if derr != nil {
		f.Close()
		return nil, derr
	}
	// Validate the blob region length against the file size.
	blobBytes := int64(0)
	for _, info := range s.dict {
		if end := info.off + int64(info.size); end > st.Size() {
			f.Close()
			return nil, fmt.Errorf("index: %s: posting blob past end of file", path)
		}
		blobBytes += int64(info.size)
	}
	if hdrLen+blobBytes != st.Size() {
		f.Close()
		return nil, fmt.Errorf("index: %s: %d trailing bytes after segment", path, st.Size()-hdrLen-blobBytes)
	}
	s.src = f
	s.closer = f
	return s, nil
}

// dictAllowance is the dictionary room a segment's first header read
// leaves after its doc table.
const dictAllowance = 1 << 16

// headerReader reads a segment header from the front of a file. Its
// first read is sized from the doc count declared right after the magic:
// the doc table takes at most binary.MaxVarintLen64 bytes a doc, and
// dictAllowance covers an ordinary dictionary. So an ordinary open reads
// each header byte once and parses the header once; a larger dictionary
// grows the window fourfold per retry, reading only the bytes it adds.
// parses and bytesRead count the work.
type headerReader struct {
	src  io.ReaderAt
	size int64
	path string

	parses, bytesRead int64
}

func (h *headerReader) read() (*Segment, int64, error) {
	buf, err := h.grow(nil, 8+binary.MaxVarintLen64)
	if err != nil {
		return nil, 0, err
	}
	r := binfmt.NewReader(buf)
	r.Take(8, "segment magic")
	// 0 when the prefix is corrupt, which the parse below reports; a
	// count past the file's size reads the whole file once.
	docs := min(r.Uvarint("segment docIDs"), uint64(h.size))
	want := 8 + binary.MaxVarintLen64*(1+int64(docs)) + dictAllowance
	for {
		if buf, err = h.grow(buf, want); err != nil {
			return nil, 0, err
		}
		h.parses++
		r := binfmt.NewReader(buf)
		s := decodeHeader(&r, h.path)
		if r.Err() == nil {
			return s, int64(r.Offset()), nil
		}
		if int64(len(buf)) == h.size {
			return nil, 0, fmt.Errorf("index: %s: %w", h.path, r.Err())
		}
		want = 4 * int64(len(buf))
	}
}

// grow extends buf, the file's first len(buf) bytes, to its first
// min(n, size) bytes, reading only what it adds.
func (h *headerReader) grow(buf []byte, n int64) ([]byte, error) {
	n = min(n, h.size)
	if n <= int64(len(buf)) {
		return buf, nil
	}
	next := make([]byte, n)
	copy(next, buf)
	got, err := h.src.ReadAt(next[len(buf):], int64(len(buf)))
	h.bytesRead += int64(got)
	if err != nil && got < len(next)-len(buf) {
		return nil, fmt.Errorf("index: reading %s: %w", h.path, err)
	}
	return next, nil
}
