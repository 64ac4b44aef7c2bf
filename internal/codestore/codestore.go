// Package codestore persists per-column bin codes in a chunked on-disk
// format, so the selection pipeline can run over tables whose binned
// representation does not fit in memory. It is the disk half of the
// out-of-core selection path: the stratified min-hash sampler streams
// column blocks out of a store, and only the sampled rows' tuple-vectors
// are ever materialized.
//
// Layout (little-endian):
//
//	header:  "SUBTABCS" magic · u16 version · u32 cols · u64 rows ·
//	         u32 blockRows
//	data:    block-major: for each block b, for each column c, the codes of
//	         rows [b*blockRows, min((b+1)*blockRows, rows)) as u16s — block-
//	         major so a writer can stream row chunks without knowing the
//	         final row count up front
//	index:   one u32 CRC-32C per (block, column) block, in data order
//	footer:  u32 CRC-32C over header+index · "SUBTABCE" end magic
//
// Every offset is computable from the header alone, so Open is O(1) in the
// data size: it validates the header, the exact file length, the footer
// checksum (which covers the block index) and the end magic. A crash mid-
// write leaves a file whose length cannot match its header (the index and
// footer are written last), which Open reports as ErrTruncated; silent
// bit rot inside a block is caught by Verify or by a checked block read.
//
// Readers are safe for concurrent use: the store memory-maps the file on
// platforms that support it and falls back to pread-style ReadAt elsewhere,
// and both access paths are stateless apart from caller-owned scratch.
package codestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"slices"
)

// Version is the current store format version.
const Version uint16 = 1

// DefaultBlockRows is the default rows-per-block granularity: 64Ki rows
// keep a per-column block at 128KiB — big enough to amortize I/O, small
// enough that a full column scan needs only one block of scratch.
const DefaultBlockRows = 1 << 16

var (
	magic    = [8]byte{'S', 'U', 'B', 'T', 'A', 'B', 'C', 'S'}
	endMagic = [8]byte{'S', 'U', 'B', 'T', 'A', 'B', 'C', 'E'}
)

// Sentinel errors.
var (
	// ErrTruncated marks a store whose file length does not match its
	// header — the signature of a crashed or interrupted writer.
	ErrTruncated = errors.New("codestore: truncated store file")
	// ErrCorrupt marks structural damage other than truncation (bad magic,
	// checksum mismatch, impossible geometry).
	ErrCorrupt = errors.New("codestore: corrupt store file")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const headerSize = 8 + 2 + 4 + 8 + 4 // magic + version + cols + rows + blockRows

// Writer streams column codes into a store file. Rows are appended in
// chunks (AppendColumns) and flushed block by block; Close finalizes the
// index and footer. A writer that never reaches Close leaves a file Open
// rejects, so a crashed export cannot be mistaken for a complete store.
type Writer struct {
	f         *os.File
	cols      int
	blockRows int
	rows      uint64
	buf       [][]uint16 // per-column pending rows (< blockRows)
	bufLen    int
	crcs      []uint32
	enc       []byte // block encode scratch
	err       error
}

// Create starts a store file at path with the given column count and
// rows-per-block (<= 0 uses DefaultBlockRows). The file is truncated.
func Create(path string, cols, blockRows int) (*Writer, error) {
	if cols <= 0 {
		return nil, fmt.Errorf("codestore: create: need at least one column, got %d", cols)
	}
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, cols: cols, blockRows: blockRows, buf: make([][]uint16, cols)}
	for c := range w.buf {
		w.buf[c] = make([]uint16, 0, blockRows)
	}
	// The header is rewritten with the final row count on Close; writing a
	// placeholder now keeps the data section at a fixed offset. WriteAt does
	// not advance the write offset, so seek past the header explicitly.
	if err := w.writeHeader(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	if _, err := f.Seek(headerSize, io.SeekStart); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return w, nil
}

func (w *Writer) writeHeader() error {
	hdr := make([]byte, 0, headerSize)
	hdr = append(hdr, magic[:]...)
	hdr = binary.LittleEndian.AppendUint16(hdr, Version)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(w.cols))
	hdr = binary.LittleEndian.AppendUint64(hdr, w.rows)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(w.blockRows))
	_, err := w.f.WriteAt(hdr, 0)
	return err
}

// AppendColumns appends one chunk of rows: chunk[c] holds the new codes of
// column c, and every column must contribute the same number of rows.
func (w *Writer) AppendColumns(chunk [][]uint16) error {
	if w.err != nil {
		return w.err
	}
	if len(chunk) != w.cols {
		return w.fail(fmt.Errorf("codestore: chunk has %d columns, store has %d", len(chunk), w.cols))
	}
	n := len(chunk[0])
	for c := 1; c < w.cols; c++ {
		if len(chunk[c]) != n {
			return w.fail(fmt.Errorf("codestore: ragged chunk: column 0 has %d rows, column %d has %d", n, c, len(chunk[c])))
		}
	}
	off := 0
	for off < n {
		take := min(w.blockRows-w.bufLen, n-off)
		for c := range w.buf {
			w.buf[c] = append(w.buf[c], chunk[c][off:off+take]...)
		}
		w.bufLen += take
		off += take
		if w.bufLen == w.blockRows {
			if err := w.flushBlock(); err != nil {
				return err
			}
		}
	}
	w.rows += uint64(n)
	return nil
}

// flushBlock writes the buffered rows of every column as one block.
func (w *Writer) flushBlock() error {
	for c := range w.buf {
		w.enc = AppendCodes(w.enc[:0], w.buf[c])
		w.crcs = append(w.crcs, crc32.Checksum(w.enc, crcTable))
		if _, err := w.f.Write(w.enc); err != nil {
			return w.fail(err)
		}
		w.buf[c] = w.buf[c][:0]
	}
	w.bufLen = 0
	return nil
}

func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// Close flushes the final (possibly short) block, writes the block index,
// the footer checksum and the end magic, rewrites the header with the
// final row count, and syncs the file.
func (w *Writer) Close() error {
	if w.err != nil {
		w.f.Close()
		return w.err
	}
	if w.bufLen > 0 {
		if err := w.flushBlock(); err != nil {
			w.f.Close()
			return err
		}
	}
	tail := make([]byte, 0, 4*len(w.crcs)+4+8)
	for _, crc := range w.crcs {
		tail = binary.LittleEndian.AppendUint32(tail, crc)
	}
	if _, err := w.f.Write(tail); err != nil {
		w.f.Close()
		return err
	}
	if err := w.writeHeader(); err != nil {
		w.f.Close()
		return err
	}
	// The footer checksum covers header + index, so a store whose geometry
	// or index was damaged after the fact fails Open even at the right size.
	h := crc32.New(crcTable)
	hdr := make([]byte, 0, headerSize)
	hdr = append(hdr, magic[:]...)
	hdr = binary.LittleEndian.AppendUint16(hdr, Version)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(w.cols))
	hdr = binary.LittleEndian.AppendUint64(hdr, w.rows)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(w.blockRows))
	h.Write(hdr)
	h.Write(tail)
	foot := binary.LittleEndian.AppendUint32(nil, h.Sum32())
	foot = append(foot, endMagic[:]...)
	if _, err := w.f.Write(foot); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Abort discards the writer and removes the partial file.
func (w *Writer) Abort() {
	path := w.f.Name()
	w.f.Close()
	os.Remove(path)
}

// WriteFile writes a complete store from in-memory column codes in one
// call (all columns must share one length). blockRows <= 0 uses
// DefaultBlockRows. The file is written to a temp name and renamed into
// place, so a crash never leaves a plausible-looking partial store at path.
func WriteFile(path string, codes [][]uint16, blockRows int) error {
	tmp := path + ".tmp"
	w, err := Create(tmp, len(codes), blockRows)
	if err != nil {
		return err
	}
	if err := w.AppendColumns(codes); err != nil {
		w.Abort()
		return err
	}
	if err := w.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Store is an open, read-only code store. All methods are safe for
// concurrent use. Close releases the mapping/file handle; stores that are
// garbage-collected without Close release their resources via a runtime
// cleanup, so an evicted model cannot leak a mapping forever.
type Store struct {
	path      string
	rows      int
	cols      int
	blockRows int
	nBlocks   int
	crcs      []uint32
	checksum  uint32 // footer CRC: the store's identity for external refs
	reg       *region
	cleanup   runtime.Cleanup
}

// region owns the OS resources (mapping and/or file handle) so the
// runtime cleanup can release them without referencing the Store itself.
type region struct {
	data []byte   // non-nil when memory-mapped
	f    *os.File // non-nil when reading through the file
}

func (r *region) release() {
	if r.data != nil {
		munmap(r.data)
		r.data = nil
	}
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// readAt reads into p at off from the mapping or the file.
func (r *region) readAt(p []byte, off int64) error {
	if r.data != nil {
		if off < 0 || off+int64(len(p)) > int64(len(r.data)) {
			return io.ErrUnexpectedEOF
		}
		copy(p, r.data[off:])
		return nil
	}
	_, err := r.f.ReadAt(p, off)
	return err
}

// Open opens the store at path, memory-mapping it when the platform
// supports it and falling back to plain file reads otherwise. It validates
// the header, the exact file length, the footer checksum and the end
// magic; a crashed writer's leftover fails here with ErrTruncated.
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := openFile(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return st, nil
}

func openFile(f *os.File, path string) (*Store, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, size, headerSize)
	}
	hdr := make([]byte, headerSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, err
	}
	if [8]byte(hdr[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(hdr[8:]); v != Version {
		return nil, fmt.Errorf("%w: store version %d, this build reads version %d", ErrCorrupt, v, Version)
	}
	cols := int(binary.LittleEndian.Uint32(hdr[10:]))
	rows64 := binary.LittleEndian.Uint64(hdr[14:])
	blockRows := int(binary.LittleEndian.Uint32(hdr[22:]))
	// Geometry caps double as overflow guards: with cols <= 2^24 and rows
	// <= 2^40 every size computation below stays far inside int64, so a
	// crafted header cannot wrap dataSize around to match a small file.
	if cols <= 0 || cols > 1<<24 || blockRows <= 0 || rows64 > 1<<40 ||
		(rows64 > 0 && uint64(cols) > (1<<62)/rows64) {
		return nil, fmt.Errorf("%w: impossible geometry (%d cols, %d rows, %d rows/block)", ErrCorrupt, cols, rows64, blockRows)
	}
	rows := int(rows64)
	nBlocks := (rows + blockRows - 1) / blockRows
	dataSize := int64(rows) * int64(cols) * 2
	indexSize := int64(nBlocks) * int64(cols) * 4
	want := int64(headerSize) + dataSize + indexSize + 4 + 8
	if size != want {
		return nil, fmt.Errorf("%w: %d bytes on disk, a %dx%d store needs %d (crashed writer?)", ErrTruncated, size, rows, cols, want)
	}
	tail := make([]byte, indexSize+4+8)
	if _, err := f.ReadAt(tail, int64(headerSize)+dataSize); err != nil {
		return nil, err
	}
	if [8]byte(tail[len(tail)-8:]) != endMagic {
		return nil, fmt.Errorf("%w: missing end magic (crashed writer?)", ErrTruncated)
	}
	h := crc32.New(crcTable)
	h.Write(hdr)
	h.Write(tail[:indexSize])
	footCRC := binary.LittleEndian.Uint32(tail[indexSize:])
	if h.Sum32() != footCRC {
		return nil, fmt.Errorf("%w: footer checksum mismatch", ErrCorrupt)
	}
	crcs := make([]uint32, nBlocks*cols)
	for i := range crcs {
		crcs[i] = binary.LittleEndian.Uint32(tail[i*4:])
	}
	reg := &region{}
	if data, err := mmapFile(f, size); err == nil {
		reg.data = data
		f.Close()
	} else {
		reg.f = f
	}
	st := &Store{
		path: path, rows: rows, cols: cols, blockRows: blockRows,
		nBlocks: nBlocks, crcs: crcs, checksum: footCRC, reg: reg,
	}
	st.cleanup = runtime.AddCleanup(st, func(r *region) { r.release() }, reg)
	return st, nil
}

// Close releases the mapping/file handle. Further reads fail or panic;
// Close is not safe to race with in-flight reads.
func (s *Store) Close() error {
	s.cleanup.Stop()
	s.reg.release()
	return nil
}

// Path returns the file the store was opened from.
func (s *Store) Path() string { return s.path }

// Checksum returns the store's footer CRC — a cheap identity covering the
// geometry and the per-block checksums, used by external references
// (modelio) to detect a swapped or regenerated store.
func (s *Store) Checksum() uint32 { return s.checksum }

// Mapped reports whether the store is memory-mapped (false = ReadAt
// fallback).
func (s *Store) Mapped() bool { return s.reg.data != nil }

// NumRows returns the row count.
func (s *Store) NumRows() int { return s.rows }

// NumCols returns the column count.
func (s *Store) NumCols() int { return s.cols }

// BlockRows returns the rows-per-block granularity.
func (s *Store) BlockRows() int { return s.blockRows }

// NumBlocks returns the number of row blocks.
func (s *Store) NumBlocks() int { return s.nBlocks }

// blockLen returns the row count of block blk (the last may be short).
func (s *Store) blockLen(blk int) int {
	if blk == s.nBlocks-1 {
		if r := s.rows - blk*s.blockRows; r < s.blockRows {
			return r
		}
	}
	return s.blockRows
}

// blockOff returns the file offset of column c's slice of block blk.
// Blocks before blk are all full; within a block columns are contiguous.
func (s *Store) blockOff(c, blk int) int64 {
	off := int64(headerSize) + int64(blk)*int64(s.cols)*int64(s.blockRows)*2
	return off + int64(c)*int64(s.blockLen(blk))*2
}

// ColumnBlock decodes column c's codes for block blk into scratch
// (grown as needed) and returns the decoded slice. Concurrent callers
// must pass distinct scratch.
func (s *Store) ColumnBlock(c, blk int, scratch []uint16) []uint16 {
	n := s.blockLen(blk)
	if cap(scratch) < n {
		scratch = make([]uint16, n)
	}
	scratch = scratch[:n]
	if s.reg.data != nil {
		off := s.blockOff(c, blk)
		DecodeCodes(scratch, s.reg.data[off:off+int64(n)*2])
		return scratch
	}
	raw := make([]byte, n*2)
	if err := s.reg.readAt(raw, s.blockOff(c, blk)); err != nil {
		panic(fmt.Sprintf("codestore: reading block (%d,%d) of %s: %v", c, blk, s.path, err))
	}
	DecodeCodes(scratch, raw)
	return scratch
}

// RawColumnBlock returns column c's codes in block blk in their encoded
// form (see DecodeCodes), straight from the mapped file, or nil when the
// store is not mapped. The bytes are read-only and valid until Close.
func (s *Store) RawColumnBlock(c, blk int) []byte {
	if s.reg.data == nil {
		return nil
	}
	off := s.blockOff(c, blk)
	return s.reg.data[off : off+int64(s.blockLen(blk))*2]
}

// DecodeCodes decodes len(dst) little-endian uint16 codes from raw (the
// encoding of store blocks and of the shard wire codec), stopping early if
// raw runs out. The loop re-slices raw past each pair it reads, which lets
// the compiler prove every index in bounds, so the body carries no bounds
// checks.
func DecodeCodes(dst []uint16, raw []byte) {
	for i := range dst {
		if len(raw) < 2 {
			return
		}
		dst[i] = uint16(raw[0]) | uint16(raw[1])<<8
		raw = raw[2:]
	}
}

// AppendCodes appends codes to buf in the little-endian encoding
// DecodeCodes reads, growing buf once.
func AppendCodes(buf []byte, codes []uint16) []byte {
	n := len(buf)
	buf = slices.Grow(buf, 2*len(codes))[:n+2*len(codes)]
	out := buf[n:]
	for _, v := range codes {
		if len(out) < 2 {
			break
		}
		out[0], out[1] = byte(v), byte(v>>8)
		out = out[2:]
	}
	return buf
}

// Code returns the code of one cell (random access). On the mmap path this
// is a two-byte load; on the fallback path a two-byte pread.
func (s *Store) Code(c, r int) uint16 {
	blk := r / s.blockRows
	off := s.blockOff(c, blk) + int64(r-blk*s.blockRows)*2
	if s.reg.data != nil {
		return binary.LittleEndian.Uint16(s.reg.data[off:])
	}
	var b [2]byte
	if err := s.reg.readAt(b[:], off); err != nil {
		panic(fmt.Sprintf("codestore: reading cell (%d,%d) of %s: %v", c, r, s.path, err))
	}
	return binary.LittleEndian.Uint16(b[:])
}

// Verify re-reads every block and checks it against the per-block
// checksums recorded at write time, returning the first damaged block.
// It is a full sequential read of the file — an explicit integrity pass,
// not something the hot path pays per access.
func (s *Store) Verify() error {
	buf := make([]byte, s.blockRows*2)
	for blk := 0; blk < s.nBlocks; blk++ {
		n := s.blockLen(blk) * 2
		for c := 0; c < s.cols; c++ {
			if err := s.reg.readAt(buf[:n], s.blockOff(c, blk)); err != nil {
				return fmt.Errorf("%w: reading block (col %d, block %d): %v", ErrCorrupt, c, blk, err)
			}
			if got, want := crc32.Checksum(buf[:n], crcTable), s.crcs[blk*s.cols+c]; got != want {
				return fmt.Errorf("%w: block (col %d, block %d) checksum %08x, recorded %08x", ErrCorrupt, c, blk, got, want)
			}
		}
	}
	return nil
}
