// Property tests for the on-disk code store, with deliberate focus on the
// chunk boundaries (rows exactly at / one past the block size), the empty
// store, and crash/corruption detection (truncated tails, per-block
// checksums).
package codestore

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// randCodes builds cols column slices of n random codes < maxCode.
func randCodes(rng *rand.Rand, cols, n, maxCode int) [][]uint16 {
	out := make([][]uint16, cols)
	for c := range out {
		col := make([]uint16, n)
		for r := range col {
			col[r] = uint16(rng.Intn(maxCode))
		}
		out[c] = col
	}
	return out
}

// checkStore verifies every access path of an open store against the
// source codes: whole-column block reads, random access, and Verify.
func checkStore(t *testing.T, s *Store, codes [][]uint16) {
	t.Helper()
	n := 0
	if len(codes) > 0 {
		n = len(codes[0])
	}
	if s.NumRows() != n || s.NumCols() != len(codes) {
		t.Fatalf("store is %dx%d, source is %dx%d", s.NumRows(), s.NumCols(), n, len(codes))
	}
	wantBlocks := 0
	if n > 0 {
		wantBlocks = (n + s.BlockRows() - 1) / s.BlockRows()
	}
	if s.NumBlocks() != wantBlocks {
		t.Fatalf("store has %d blocks, want %d", s.NumBlocks(), wantBlocks)
	}
	var scratch []uint16
	for c := range codes {
		got := 0
		for blk := 0; blk < s.NumBlocks(); blk++ {
			block := s.ColumnBlock(c, blk, scratch)
			scratch = block
			for i, code := range block {
				r := blk*s.BlockRows() + i
				if code != codes[c][r] {
					t.Fatalf("col %d row %d (block %d): got %d want %d", c, r, blk, code, codes[c][r])
				}
				got++
			}
		}
		if got != n {
			t.Fatalf("col %d blocks covered %d rows, want %d", c, got, n)
		}
	}
	// A mapped store lends each block's encoded bytes; they decode to the
	// same codes, and re-encode to the same bytes.
	for c := range codes {
		for blk := 0; blk < s.NumBlocks(); blk++ {
			raw := s.RawColumnBlock(c, blk)
			if raw == nil {
				if s.Mapped() {
					t.Fatalf("mapped store lent no bytes for block (%d,%d)", c, blk)
				}
				continue
			}
			dec := make([]uint16, len(raw)/2)
			DecodeCodes(dec, raw)
			if !slices.Equal(dec, s.ColumnBlock(c, blk, nil)) {
				t.Fatalf("raw block (%d,%d) decodes to %v, ColumnBlock reads %v", c, blk, dec, s.ColumnBlock(c, blk, nil))
			}
			if enc := AppendCodes(nil, dec); !slices.Equal(enc, raw) {
				t.Fatalf("block (%d,%d) re-encodes differently", c, blk)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200 && n > 0; i++ {
		c, r := rng.Intn(len(codes)), rng.Intn(n)
		if got := s.Code(c, r); got != codes[c][r] {
			t.Fatalf("random access (%d,%d): got %d want %d", c, r, got, codes[c][r])
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestChunkBoundaries sweeps row counts around the block size — the edge
// cases of block arithmetic: one block exactly, one row past it, multiples,
// a final short block, a single row, and the empty store.
func TestChunkBoundaries(t *testing.T) {
	const blockRows = 64
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, blockRows - 1, blockRows, blockRows + 1, 2 * blockRows, 2*blockRows + 17, 5 * blockRows} {
		codes := randCodes(rng, 3, n, 40)
		path := filepath.Join(t.TempDir(), "s.codes")
		if err := WriteFile(path, codes, blockRows); err != nil {
			t.Fatalf("n=%d: write: %v", n, err)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatalf("n=%d: open: %v", n, err)
		}
		checkStore(t, s, codes)
		s.Close()
	}
}

// TestStreamedChunksMatchOneShot pins that a writer fed odd-sized row
// chunks produces exactly the store a one-shot write does.
func TestStreamedChunksMatchOneShot(t *testing.T) {
	const blockRows, n, cols = 32, 533, 4
	rng := rand.New(rand.NewSource(2))
	codes := randCodes(rng, cols, n, 30)

	dir := t.TempDir()
	oneShot := filepath.Join(dir, "one.codes")
	if err := WriteFile(oneShot, codes, blockRows); err != nil {
		t.Fatal(err)
	}
	streamed := filepath.Join(dir, "stream.codes")
	w, err := Create(streamed, cols, blockRows)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([][]uint16, cols)
	for start := 0; start < n; {
		// Ragged chunk sizes, including chunks spanning multiple blocks.
		size := min(1+rng.Intn(2*blockRows+5), n-start)
		for c := range chunk {
			chunk[c] = codes[c][start : start+size]
		}
		if err := w.AppendColumns(chunk); err != nil {
			t.Fatal(err)
		}
		start += size
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(oneShot)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("streamed store differs from one-shot store (%d vs %d bytes)", len(b), len(a))
	}
}

// TestReopenAfterCrashTruncatedTail simulates a crashed writer: any
// truncation of a complete store must be rejected at Open (the index and
// footer are written last, so a partial file can never look complete).
func TestReopenAfterCrashTruncatedTail(t *testing.T) {
	const blockRows, n = 16, 100
	rng := rand.New(rand.NewSource(3))
	codes := randCodes(rng, 2, n, 20)
	path := filepath.Join(t.TempDir(), "s.codes")
	if err := WriteFile(path, codes, blockRows); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(full) - 1, len(full) - 8, len(full) - 12, len(full) / 2, headerSize + 1, 3} {
		trunc := filepath.Join(t.TempDir(), "t.codes")
		if err := os.WriteFile(trunc, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(trunc); err == nil {
			t.Fatalf("Open accepted a store truncated to %d of %d bytes", cut, len(full))
		} else if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrTruncated/ErrCorrupt", cut, err)
		}
	}
	// An abandoned writer (no Close) must likewise be rejected.
	abandoned := filepath.Join(t.TempDir(), "a.codes")
	w, err := Create(abandoned, 2, blockRows)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendColumns(codes); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: the writer never reaches Close.
	if _, err := Open(abandoned); err == nil {
		t.Fatal("Open accepted an unfinalized store")
	}
	w.Abort()
}

// TestPerBlockChecksum pins silent-corruption detection: a bit flip inside
// a data block passes Open (geometry and footer are intact) but fails
// Verify against the per-block checksum; a flip in the index fails Open
// outright via the footer checksum.
func TestPerBlockChecksum(t *testing.T) {
	const blockRows, n = 16, 100
	rng := rand.New(rand.NewSource(4))
	codes := randCodes(rng, 2, n, 20)
	path := filepath.Join(t.TempDir(), "s.codes")
	if err := WriteFile(path, codes, blockRows); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a bit in the middle of the data section.
	data := append([]byte(nil), full...)
	data[headerSize+37] ^= 0x04
	flipped := filepath.Join(t.TempDir(), "f.codes")
	if err := os.WriteFile(flipped, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(flipped)
	if err != nil {
		t.Fatalf("Open should defer data-block validation to Verify, got %v", err)
	}
	if err := s.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify on a bit-flipped block: got %v, want ErrCorrupt", err)
	}
	s.Close()

	// Flip a bit in the block index: the footer checksum covers it.
	idx := append([]byte(nil), full...)
	idx[len(idx)-16] ^= 0x01
	badIdx := filepath.Join(t.TempDir(), "i.codes")
	if err := os.WriteFile(badIdx, idx, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(badIdx); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on a flipped index: got %v, want ErrCorrupt", err)
	}
}

// TestWriteFileAtomic pins that WriteFile leaves no temp droppings and
// that a failed write does not clobber an existing store.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.codes")
	codes := randCodes(rand.New(rand.NewSource(5)), 2, 50, 10)
	if err := WriteFile(path, codes, 16); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("store dir has %d entries after WriteFile, want 1", len(entries))
	}
}
