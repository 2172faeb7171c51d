package artifact

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/pkg/api"
)

// On-disk layout (all integers little-endian):
//
//	header   64 bytes (below)
//	records  RecordCount × 16 bytes, indexed by shape rank
//	strings  StringBytes of UTF-8, the rendered plan trees
//
// record (16 bytes):
//
//	off 0  kind     u8   core.Kind of the plan root
//	off 1  method   u8   paper method (§5) of the plan
//	off 2  dilation u8   a-priori dilation bound; 0xFF = no bound
//	off 3  flags    u8   bit0 present, bit1 minimal cube
//	off 4  cubeDim  u8   host cube dimension
//	off 5  reserved u8
//	off 6  strLen   u16  length of the rendered plan tree
//	off 8  strOff   u32  offset into the string section
//	off 12 reserved u32
//
// The header is written provisionally at build start (complete flag clear)
// and rewritten by Finalize with the section CRC and the flag set, so a
// torn build is never mistaken for a valid artifact.
const (
	Magic      = "PLNART"
	Version    = 1
	HeaderSize = 64
	RecordSize = 16

	flagComplete = 1 << 0 // header: Finalize ran

	recPresent = 1 << 0 // record: rank was swept
	recMinimal = 1 << 1 // record: plan reaches the minimal cube

	dilationNone = 0xFF // record dilation byte: no a-priori bound

	// MaxRecords caps an artifact's record count.  2^25 admits the full
	// paper domain — the ≤ 512³ mesh census is 22,500,864 canonical
	// shapes (360 MiB of fixed records before the string section).
	MaxRecords = 1 << 25
)

// Header describes an artifact file.
type Header struct {
	Family      string // guest family name ("mesh", "torus")
	Dims        int
	MaxAxis     int
	RecordCount uint64
	StringBytes uint64
	CRC         uint32 // IEEE CRC-32 of records ∥ strings
	Complete    bool
	Fingerprint uint64 // FNV-64a of the planner option fingerprint
}

// FingerprintHash hashes a planner option fingerprint (core.Planner.
// Fingerprint) for the header stamp.
func FingerprintHash(fp string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, fp)
	return h.Sum64()
}

func (h *Header) encode() []byte {
	b := make([]byte, HeaderSize)
	copy(b[0:6], Magic)
	binary.LittleEndian.PutUint16(b[6:8], Version)
	fam := make([]byte, 8)
	copy(fam, h.Family)
	copy(b[8:16], fam)
	b[16] = byte(h.Dims)
	binary.LittleEndian.PutUint16(b[18:20], uint16(h.MaxAxis))
	binary.LittleEndian.PutUint64(b[24:32], h.RecordCount)
	binary.LittleEndian.PutUint64(b[32:40], h.StringBytes)
	binary.LittleEndian.PutUint32(b[40:44], h.CRC)
	var flags uint32
	if h.Complete {
		flags |= flagComplete
	}
	binary.LittleEndian.PutUint32(b[44:48], flags)
	binary.LittleEndian.PutUint64(b[48:56], h.Fingerprint)
	binary.LittleEndian.PutUint32(b[56:60], crc32.ChecksumIEEE(b[:56]))
	return b
}

func decodeHeader(b []byte) (*Header, error) {
	if len(b) < HeaderSize {
		return nil, fmt.Errorf("artifact: file shorter than the %d-byte header", HeaderSize)
	}
	if string(b[0:6]) != Magic {
		return nil, fmt.Errorf("artifact: bad magic %q", b[0:6])
	}
	if v := binary.LittleEndian.Uint16(b[6:8]); v != Version {
		return nil, fmt.Errorf("artifact: version %d, this build reads %d", v, Version)
	}
	if got, want := crc32.ChecksumIEEE(b[:56]), binary.LittleEndian.Uint32(b[56:60]); got != want {
		return nil, fmt.Errorf("artifact: header checksum mismatch (%08x != %08x)", got, want)
	}
	fam := b[8:16]
	n := 0
	for n < len(fam) && fam[n] != 0 {
		n++
	}
	h := &Header{
		Family:      string(fam[:n]),
		Dims:        int(b[16]),
		MaxAxis:     int(binary.LittleEndian.Uint16(b[18:20])),
		RecordCount: binary.LittleEndian.Uint64(b[24:32]),
		StringBytes: binary.LittleEndian.Uint64(b[32:40]),
		CRC:         binary.LittleEndian.Uint32(b[40:44]),
		Complete:    binary.LittleEndian.Uint32(b[44:48])&flagComplete != 0,
		Fingerprint: binary.LittleEndian.Uint64(b[48:56]),
	}
	if h.Dims < 1 || h.MaxAxis < 1 {
		return nil, fmt.Errorf("artifact: degenerate bounds dims=%d max_axis=%d", h.Dims, h.MaxAxis)
	}
	if want := TotalRecords(h.Dims, h.MaxAxis); h.RecordCount != want || want > MaxRecords {
		return nil, fmt.Errorf("artifact: record count %d, want %d for dims=%d max_axis=%d (at most %d)",
			h.RecordCount, want, h.Dims, h.MaxAxis, MaxRecords)
	}
	return h, nil
}

// DecodeRecord decodes the 16 fixed bytes of a record into its plan entry;
// the plan string lives in the string section, so Plan is left empty.  It
// validates only record-local structure (a kind byte outside core.Kind is
// corrupt); section-relative bounds (strOff/strLen against the string
// section) are the loader's job.  A non-present record returns ok = false.
func DecodeRecord(b []byte) (rec api.PlanEntry, strOff uint64, strLen int, ok bool, err error) {
	if len(b) < RecordSize {
		return api.PlanEntry{}, 0, 0, false, fmt.Errorf("artifact: record truncated (%d bytes)", len(b))
	}
	flags := b[3]
	if flags&^byte(recPresent|recMinimal) != 0 {
		return api.PlanEntry{}, 0, 0, false, fmt.Errorf("artifact: unknown record flags %#02x", flags)
	}
	if flags&recPresent == 0 {
		return api.PlanEntry{}, 0, 0, false, nil
	}
	if b[5] != 0 || binary.LittleEndian.Uint32(b[12:16]) != 0 {
		return api.PlanEntry{}, 0, 0, false, fmt.Errorf("artifact: nonzero reserved record bytes")
	}
	kind := core.Kind(b[0])
	if !kind.IsValid() {
		return api.PlanEntry{}, 0, 0, false, fmt.Errorf("artifact: unknown plan kind %d", b[0])
	}
	rec = api.PlanEntry{
		Kind:     kind.String(),
		Method:   int(b[1]),
		Dilation: -1,
		CubeDim:  int(b[4]),
		Minimal:  flags&recMinimal != 0,
	}
	if b[2] != dilationNone {
		rec.Dilation = int(b[2])
	}
	return rec, uint64(binary.LittleEndian.Uint32(b[8:12])), int(binary.LittleEndian.Uint16(b[6:8])), true, nil
}

// encodeRec renders a plan entry into the 16 fixed record bytes.
func encodeRec(rec api.PlanEntry, strOff uint64, strLen int) ([]byte, error) {
	b := make([]byte, RecordSize)
	kind, err := core.ParseKind(rec.Kind)
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	switch {
	case rec.Dilation == -1:
		b[2] = dilationNone
	case rec.Dilation < 0 || rec.Dilation >= dilationNone:
		return nil, fmt.Errorf("artifact: dilation bound %d out of range", rec.Dilation)
	default:
		b[2] = byte(rec.Dilation)
	}
	if rec.CubeDim < 0 || rec.CubeDim > 0xFF {
		return nil, fmt.Errorf("artifact: cube dimension %d out of range", rec.CubeDim)
	}
	if rec.Method < 0 || rec.Method > 0xFF {
		return nil, fmt.Errorf("artifact: method %d out of range", rec.Method)
	}
	if strLen > 0xFFFF {
		return nil, fmt.Errorf("artifact: plan string of %d bytes exceeds the record limit", strLen)
	}
	if strOff > 0xFFFFFFFF {
		return nil, fmt.Errorf("artifact: string section exceeds 4 GiB")
	}
	b[0] = byte(kind)
	b[1] = byte(rec.Method)
	flags := byte(recPresent)
	if rec.Minimal {
		flags |= recMinimal
	}
	b[3] = flags
	b[4] = byte(rec.CubeDim)
	binary.LittleEndian.PutUint16(b[6:8], uint16(strLen))
	binary.LittleEndian.PutUint32(b[8:12], uint32(strOff))
	return b, nil
}

// Builder writes an artifact sequentially: records in rank order, plan
// strings appended to the trailing string section.  It is resumable — Pos
// reports (nextRank, stringCursor) after any Flush, and OpenBuilderAt
// reopens the file truncated back to exactly that position, so a replayed
// chunk rewrites bytes identically.
type Builder struct {
	f       *os.File
	hdr     Header
	strBase uint64 // file offset of the string section
	next    uint64 // next rank to be written
	cursor  uint64 // string-section bytes written
}

// NewBuilder creates (truncating) the artifact file and writes the
// provisional header.
func NewBuilder(path, family string, dims, maxAxis int, fingerprint string) (*Builder, error) {
	return openBuilder(path, family, dims, maxAxis, fingerprint, 0, 0)
}

// OpenBuilderAt reopens a partially built artifact at a checkpointed
// (nextRank, stringCursor) position, truncating anything a torn chunk may
// have written past it.
func OpenBuilderAt(path, family string, dims, maxAxis int, fingerprint string, nextRank, cursor uint64) (*Builder, error) {
	return openBuilder(path, family, dims, maxAxis, fingerprint, nextRank, cursor)
}

func openBuilder(path, family string, dims, maxAxis int, fingerprint string, nextRank, cursor uint64) (*Builder, error) {
	if len(family) == 0 || len(family) > 8 {
		return nil, fmt.Errorf("artifact: family name %q must be 1..8 bytes", family)
	}
	total := TotalRecords(dims, maxAxis)
	if total == 0 || total > MaxRecords {
		return nil, fmt.Errorf("artifact: dims=%d max_axis=%d spans %d records (cap %d)", dims, maxAxis, total, MaxRecords)
	}
	if nextRank > total {
		return nil, fmt.Errorf("artifact: resume rank %d beyond record count %d", nextRank, total)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	b := &Builder{
		f: f,
		hdr: Header{
			Family: family, Dims: dims, MaxAxis: maxAxis,
			RecordCount: total, Fingerprint: FingerprintHash(fingerprint),
		},
		strBase: HeaderSize + total*RecordSize,
		next:    nextRank,
		cursor:  cursor,
	}
	// Provisional header (complete flag clear), then cut the file back to
	// the resume position: records are pre-sized (sparse until written) and
	// the string section ends exactly at the checkpointed cursor.
	if _, err := f.WriteAt(b.hdr.encode(), 0); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(int64(b.strBase + cursor)); err != nil {
		f.Close()
		return nil, err
	}
	return b, nil
}

// Pos returns the resume position after the records written so far.
func (b *Builder) Pos() (nextRank, cursor uint64) { return b.next, b.cursor }

// Add writes the plan record (core.Plan.Entry) for the next shape in rank
// order.  The shape must be the canonical shape of rank Pos() — the
// builder verifies it.  A record is position-independent, so a plancensus
// fold replays entries computed in process or on a fabric peer
// byte-identically.
func (b *Builder) Add(s mesh.Shape, rec api.PlanEntry) error {
	if err := CheckShape(s, b.hdr.Dims, b.hdr.MaxAxis); err != nil {
		return err
	}
	if r := Rank(s); r != b.next {
		return fmt.Errorf("artifact: shape %s has rank %d, builder expects %d", s, r, b.next)
	}
	enc, err := encodeRec(rec, b.cursor, len(rec.Plan))
	if err != nil {
		return err
	}
	if _, err := b.f.WriteAt(enc, int64(HeaderSize+b.next*RecordSize)); err != nil {
		return err
	}
	if _, err := b.f.WriteAt([]byte(rec.Plan), int64(b.strBase+b.cursor)); err != nil {
		return err
	}
	b.next++
	b.cursor += uint64(len(rec.Plan))
	return nil
}

// Flush fsyncs everything written so far; call it before checkpointing
// Pos so a crash never loses acknowledged records.
func (b *Builder) Flush() error { return b.f.Sync() }

// Finalize checksums the sections, writes the completed header, closes the
// file and returns the final header.  Every rank must have been added.
func (b *Builder) Finalize() (Header, error) {
	if b.next != b.hdr.RecordCount {
		return Header{}, fmt.Errorf("artifact: finalize after %d of %d records", b.next, b.hdr.RecordCount)
	}
	if err := b.f.Sync(); err != nil {
		return Header{}, err
	}
	crc := crc32.NewIEEE()
	if _, err := b.f.Seek(HeaderSize, io.SeekStart); err != nil {
		return Header{}, err
	}
	if _, err := io.Copy(crc, b.f); err != nil {
		return Header{}, err
	}
	b.hdr.StringBytes = b.cursor
	b.hdr.CRC = crc.Sum32()
	b.hdr.Complete = true
	if _, err := b.f.WriteAt(b.hdr.encode(), 0); err != nil {
		return Header{}, err
	}
	if err := b.f.Sync(); err != nil {
		return Header{}, err
	}
	return b.hdr, b.f.Close()
}

// Abort closes the builder without finalizing (the provisional header
// keeps the file invalid for loaders).
func (b *Builder) Abort() error { return b.f.Close() }

// Artifact is a loaded, validated artifact serving O(1) lookups.  It is
// immutable and safe for concurrent use.
type Artifact struct {
	hdr  Header
	path string
	data sectionReader
}

// sectionReader abstracts the two byte sources: the mmap window and the
// pread fallback.
type sectionReader interface {
	slice(off, n uint64) ([]byte, error)
	close() error
}

// fileReader is the pread fallback when mmap is unavailable.
type fileReader struct {
	f    *os.File
	size uint64
}

func (r *fileReader) slice(off, n uint64) ([]byte, error) {
	if off+n > r.size {
		return nil, fmt.Errorf("artifact: read [%d,%d) beyond file size %d", off, off+n, r.size)
	}
	b := make([]byte, n)
	if _, err := r.f.ReadAt(b, int64(off)); err != nil {
		return nil, err
	}
	return b, nil
}

func (r *fileReader) close() error { return r.f.Close() }

// Open loads an artifact: header validation (magic, version, checksums,
// complete flag, section sizes against the file size), then an mmap of the
// whole file — falling back to pread when the platform or filesystem
// refuses the mapping.  The full-body CRC is verified once at open.
func Open(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := uint64(st.Size())
	hb := make([]byte, HeaderSize)
	if _, err := io.ReadFull(f, hb); err != nil {
		f.Close()
		return nil, fmt.Errorf("artifact: %s: short header read: %v", path, err)
	}
	hdr, err := decodeHeader(hb)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("artifact: %s: %v", path, err)
	}
	if !hdr.Complete {
		f.Close()
		return nil, fmt.Errorf("artifact: %s: build did not finalize (torn or in progress)", path)
	}
	// Subtracted, so a string-section size near 2^64 cannot wrap the total
	// around to the file's length (the capped record count cannot wrap).
	records := HeaderSize + hdr.RecordCount*RecordSize
	if size < records || size-records != hdr.StringBytes {
		f.Close()
		return nil, fmt.Errorf("artifact: %s: file is %d bytes, header describes %d records and %d string bytes",
			path, size, hdr.RecordCount, hdr.StringBytes)
	}
	crc := crc32.NewIEEE()
	if _, err := io.Copy(crc, f); err != nil {
		f.Close()
		return nil, err
	}
	if got := crc.Sum32(); got != hdr.CRC {
		f.Close()
		return nil, fmt.Errorf("artifact: %s: body checksum mismatch (%08x != %08x)", path, got, hdr.CRC)
	}
	data, err := mapFile(f, size)
	if err != nil {
		// pread fallback: keep the descriptor.
		data = &fileReader{f: f, size: size}
	} else {
		f.Close()
	}
	return &Artifact{hdr: *hdr, path: path, data: data}, nil
}

// Header returns a copy of the artifact's header.
func (a *Artifact) Header() Header { return a.hdr }

// Path returns the file the artifact was loaded from.
func (a *Artifact) Path() string { return a.path }

// Close releases the mapping or descriptor.
func (a *Artifact) Close() error { return a.data.close() }

// Covers reports whether a canonical shape is inside the artifact's domain.
func (a *Artifact) Covers(s mesh.Shape) bool {
	return CheckShape(s, a.hdr.Dims, a.hdr.MaxAxis) == nil
}

// Lookup returns the record for a canonical shape, or ok = false when the
// shape is outside the artifact's domain (wrong arity, axis bound, or
// non-canonical order).  Corrupt in-domain records return an error.
func (a *Artifact) Lookup(s mesh.Shape) (api.PlanEntry, bool, error) {
	if !a.Covers(s) {
		return api.PlanEntry{}, false, nil
	}
	return a.At(Rank(s))
}

// At returns the record at a rank.
func (a *Artifact) At(rank uint64) (api.PlanEntry, bool, error) {
	if rank >= a.hdr.RecordCount {
		return api.PlanEntry{}, false, fmt.Errorf("artifact: rank %d beyond record count %d", rank, a.hdr.RecordCount)
	}
	rb, err := a.data.slice(HeaderSize+rank*RecordSize, RecordSize)
	if err != nil {
		return api.PlanEntry{}, false, err
	}
	rec, strOff, strLen, ok, err := DecodeRecord(rb)
	if err != nil || !ok {
		return api.PlanEntry{}, false, err
	}
	if strOff+uint64(strLen) > a.hdr.StringBytes {
		return api.PlanEntry{}, false, fmt.Errorf("artifact: record %d string [%d,%d) beyond section size %d",
			rank, strOff, strOff+uint64(strLen), a.hdr.StringBytes)
	}
	sb, err := a.data.slice(HeaderSize+a.hdr.RecordCount*RecordSize+strOff, uint64(strLen))
	if err != nil {
		return api.PlanEntry{}, false, err
	}
	rec.Plan = string(sb)
	return rec, true, nil
}
