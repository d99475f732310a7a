package store

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"roar/internal/pps"
)

// TestCorpusFileGolden pins the corpus file's bytes: the magic, then each
// record as a big-endian u32 length and pps.AppendRecord's form.
func TestCorpusFileGolden(t *testing.T) {
	recs := []pps.Encoded{
		{ID: 7, BloomMetadata: pps.BloomMetadata{Nonce: []byte{1, 2}, Filter: []byte{3}}},
		{ID: 300, BloomMetadata: pps.BloomMetadata{Filter: []byte{0xff}}},
	}
	const want = "ROARREC1" +
		"\x00\x00\x00\x06" + "\x07\x02\x01\x02\x01\x03" +
		"\x00\x00\x00\x05" + "\xac\x02\x00\x01\xff"
	path := filepath.Join(t.TempDir(), "corpus.dat")
	if err := SaveFile(path, recs); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("corpus file bytes changed:\n got %x\nwant %x", got, want)
	}
	back, err := LoadFile(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, recs) {
		t.Fatalf("loaded %+v, want %+v", back, recs)
	}
}

// TestLoadFileRejectsOtherLayouts: a file in the fixed-width layout of
// older builds (u32 length, u64 id, u16 nonce length, nonce, u32 filter
// length, filter, and no magic) fails to load rather than decode as
// garbage, and so do a record declared longer than maxRecordBytes, a
// truncated record and one with bytes past its filter.
func TestLoadFileRejectsOtherLayouts(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string]string{
		"fixed-width": "\x00\x00\x00\x11" + "\x00\x00\x00\x00\x00\x00\x00\x07" + "\x00\x02\x01\x02" + "\x00\x00\x00\x01\x03",
		"empty":       "",
		"oversized":   fileMagic + "\x00\x10\x00\x01",
		"truncated":   fileMagic + "\x00\x00\x00\x06\x07\x02\x01",
		"trailing":    fileMagic + "\x00\x00\x00\x07\x07\x02\x01\x02\x01\x03\x00",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if recs, err := LoadFile(context.Background(), path); err == nil {
			t.Errorf("%s: loaded %d records, want an error", name, len(recs))
		}
	}
}

// FuzzLoadFile: a corpus file comes from disk, at a path member.load
// takes over RPC, so arbitrary bytes must load or fail, never panic; what
// loads must save and load back to the same records.
func FuzzLoadFile(f *testing.F) {
	dir := f.TempDir()
	good := filepath.Join(dir, "good.dat")
	if err := SaveFile(good, []pps.Encoded{fuzzRec(1, 1), fuzzRec(2, 3), {ID: 9}}); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(fileMagic))
	f.Add([]byte{})
	f.Add([]byte(fileMagic + "\xff\xff\xff\xff"))
	path, again := filepath.Join(dir, "in.dat"), filepath.Join(dir, "again.dat")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := LoadFile(context.Background(), path)
		if err != nil {
			return
		}
		if err := SaveFile(again, recs); err != nil {
			t.Fatal(err)
		}
		back, err := LoadFile(context.Background(), again)
		if err != nil {
			t.Fatalf("reload of saved records failed: %v", err)
		}
		if !reflect.DeepEqual(back, recs) {
			t.Fatalf("save/load round trip diverged: %d -> %d records", len(recs), len(back))
		}
	})
}
