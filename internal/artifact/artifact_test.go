package artifact

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/mesh"
)

// buildSmall builds a dims×maxAxis mesh artifact through the real planner
// and returns its path.
func buildSmall(t testing.TB, dims, maxAxis int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plans.art")
	pl := core.NewPlanner(core.DefaultOptions)
	b, err := NewBuilder(path, "mesh", dims, maxAxis, pl.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c <= maxAxis; c++ {
		EachShapeWithMax(dims, c, func(s mesh.Shape) {
			if err := b.Add(s, pl.Plan(s).Entry()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if _, err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRankEnumerationParity pins the rank formula to the chunk enumeration:
// EachShapeWithMax must emit exactly the ChunkRange ranks in order, and the
// chunks must tile TotalRecords.
func TestRankEnumerationParity(t *testing.T) {
	for _, dims := range []int{1, 2, 3, 4} {
		maxAxis := 9
		var next uint64
		for c := 1; c <= maxAxis; c++ {
			lo, hi := ChunkRange(dims, c)
			if lo != next {
				t.Fatalf("dims=%d chunk %d starts at %d, want %d", dims, c, lo, next)
			}
			EachShapeWithMax(dims, c, func(s mesh.Shape) {
				if !IsCanonical(s) {
					t.Fatalf("enumeration emitted non-canonical %v", s)
				}
				if got := Rank(s); got != next {
					t.Fatalf("dims=%d shape %v has rank %d, enumeration position %d", dims, s, got, next)
				}
				next++
			})
			if next != hi {
				t.Fatalf("dims=%d chunk %d ended at %d, want %d", dims, c, next, hi)
			}
		}
		if total := TotalRecords(dims, maxAxis); next != total {
			t.Fatalf("dims=%d enumerated %d shapes, TotalRecords says %d", dims, next, total)
		}
	}
}

// TestGoldenRoundTrip builds an artifact, loads it, and checks every record
// byte-identical to a fresh planner run — including a second loader pass to
// prove reads are stable — plus resume-at-checkpoint byte-identity.
func TestGoldenRoundTrip(t *testing.T) {
	const dims, maxAxis = 3, 12
	path := buildSmall(t, dims, maxAxis)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	a, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	hdr := a.Header()
	if hdr.Family != "mesh" || hdr.Dims != dims || hdr.MaxAxis != maxAxis || !hdr.Complete {
		t.Fatalf("header = %+v", hdr)
	}
	pl := core.NewPlanner(core.DefaultOptions)
	if hdr.Fingerprint != FingerprintHash(pl.Fingerprint()) {
		t.Fatalf("fingerprint %x does not match planner %q", hdr.Fingerprint, pl.Fingerprint())
	}
	checked := 0
	for c := 1; c <= maxAxis; c++ {
		EachShapeWithMax(dims, c, func(s mesh.Shape) {
			p := pl.Plan(s)
			for pass := 0; pass < 2; pass++ {
				rec, ok, err := a.Lookup(s)
				if err != nil || !ok {
					t.Fatalf("Lookup(%v): ok=%v err=%v", s, ok, err)
				}
				dil := p.Dilation
				if dil == core.DilationUnknown {
					dil = -1
				}
				if rec.Plan != p.String() || rec.Kind != p.Kind.String() || rec.Method != p.Method ||
					rec.CubeDim != p.CubeDim || rec.Dilation != dil || rec.Minimal != p.Minimal() {
					t.Fatalf("Lookup(%v) = %+v, planner says %v (dil %d method %d cube %d minimal %v)",
						s, rec, p, dil, p.Method, p.CubeDim, p.Minimal())
				}
			}
			checked++
		})
	}
	if uint64(checked) != hdr.RecordCount {
		t.Fatalf("checked %d records, header says %d", checked, hdr.RecordCount)
	}

	// Out-of-domain and non-canonical shapes must miss, not error.
	for _, s := range []mesh.Shape{{5, 3, 4}, {1, 2}, {1, 2, 3, 4}, {1, 2, 13}} {
		if _, ok, err := a.Lookup(s); ok || err != nil {
			t.Fatalf("Lookup(%v) = ok=%v err=%v, want miss", s, ok, err)
		}
	}

	// Kill-and-resume byte-identity: rebuild interrupted at a chunk
	// boundary, resuming with OpenBuilderAt, and require the same bytes.
	resumed := filepath.Join(t.TempDir(), "resumed.art")
	b, err := NewBuilder(resumed, "mesh", dims, maxAxis, pl.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	stop := maxAxis / 2
	for c := 1; c <= stop; c++ {
		EachShapeWithMax(dims, c, func(s mesh.Shape) {
			if err := b.Add(s, pl.Plan(s).Entry()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	nextRank, cursor := b.Pos()
	if err := b.Abort(); err != nil { // simulated crash after checkpoint
		t.Fatal(err)
	}
	b, err = OpenBuilderAt(resumed, "mesh", dims, maxAxis, pl.Fingerprint(), nextRank, cursor)
	if err != nil {
		t.Fatal(err)
	}
	for c := stop + 1; c <= maxAxis; c++ {
		EachShapeWithMax(dims, c, func(s mesh.Shape) {
			if err := b.Add(s, pl.Plan(s).Entry()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if _, err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed artifact differs from uninterrupted build (%d vs %d bytes)", len(got), len(want))
	}
}

// TestOpenRejectsCorruption checks every guarded failure mode: truncation,
// magic/version/checksum damage, body bit-flips, and a torn (unfinalized)
// build.
func TestOpenRejectsCorruption(t *testing.T) {
	good := readSmall(t)
	write := func(t *testing.T, b []byte) string {
		p := filepath.Join(t.TempDir(), "bad.art")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for name, b := range corruptions(good) {
		t.Run(name, func(t *testing.T) {
			if _, err := Open(write(t, b)); err == nil {
				t.Fatalf("Open accepted a %s artifact", name)
			}
		})
	}
	// "not finalized" with a fixed-up header checksum must still be
	// rejected, by the complete flag itself.
	b := bytes.Clone(good)
	binary.LittleEndian.PutUint32(b[44:48], 0)
	binary.LittleEndian.PutUint32(b[56:60], 0)
	// Recompute the header checksum so only the flag is "wrong".
	hdr, err := decodeHeaderLoose(b[:HeaderSize])
	if err != nil {
		t.Fatal(err)
	}
	copy(b, hdr.encode())
	if _, err := Open(write(t, b)); err == nil {
		t.Fatal("Open accepted an unfinalized artifact with a valid header checksum")
	}
}

// readSmall returns the bytes of a 2-D artifact with axes ≤ 6.
func readSmall(t testing.TB) []byte {
	good, err := os.ReadFile(buildSmall(t, 2, 6))
	if err != nil {
		t.Fatal(err)
	}
	return good
}

// corruptions returns the damaged copies of a good artifact that Open must
// reject: truncation, magic/version/checksum damage, body bit-flips, a torn
// (unfinalized) build, and section sizes that wrap.
func corruptions(good []byte) map[string][]byte {
	mutate := func(f func([]byte)) []byte {
		b := bytes.Clone(good)
		f(b)
		return b
	}
	return map[string][]byte{
		"empty":            {},
		"short header":     good[:HeaderSize-1],
		"truncated body":   good[:len(good)-1],
		"bad magic":        mutate(func(b []byte) { b[0] = 'X' }),
		"bad version":      mutate(func(b []byte) { binary.LittleEndian.PutUint16(b[6:8], 99) }),
		"header bit flip":  mutate(func(b []byte) { b[17] ^= 1 }),
		"body bit flip":    mutate(func(b []byte) { b[HeaderSize+3] ^= 0x04 }),
		"string bit flip":  mutate(func(b []byte) { b[len(b)-1] ^= 1 }),
		"not finalized":    mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[44:48], 0); binary.LittleEndian.PutUint32(b[56:60], 0) }),
		"trailing garbage": append(bytes.Clone(good), 0),
		// One record and no strings, under a string-section size that wraps
		// the header's total around to the file's length.
		"sections that wrap": func() []byte {
			b := bytes.Clone(good[:HeaderSize+RecordSize])
			records := binary.LittleEndian.Uint64(b[24:32])
			binary.LittleEndian.PutUint64(b[32:40], RecordSize-records*RecordSize)
			reseal(b)
			return b
		}(),
	}
}

// reseal stamps b's header with the checksums of its own bytes: the body
// CRC, then the header CRC over it.
func reseal(b []byte) {
	binary.LittleEndian.PutUint32(b[40:44], crc32.ChecksumIEEE(b[HeaderSize:]))
	binary.LittleEndian.PutUint32(b[56:60], crc32.ChecksumIEEE(b[:56]))
}

// FuzzArtifactOpen: for any file bytes, Open returns an error or an
// artifact whose header describes exactly the file's sections and whose
// Header, At and Lookup do not panic.  With resealed set the
// bytes first get the checksums of their own contents, so that mutations
// reach the section-size checks and the records behind the CRCs.  Seeds:
// the good artifact and each of its corruptions, plain and resealed, and
// in testdata/fuzz/FuzzArtifactOpen inputs that fuzzing runs found to reach
// new code.
func FuzzArtifactOpen(f *testing.F) {
	good := readSmall(f)
	f.Add(good, false)
	for _, b := range corruptions(good) {
		f.Add(b, false)
		f.Add(b, true)
	}
	path := filepath.Join(f.TempDir(), "fuzz.art")
	f.Fuzz(func(t *testing.T, b []byte, resealed bool) {
		if resealed && len(b) >= HeaderSize {
			b = bytes.Clone(b)
			reseal(b)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		a, err := Open(path)
		if err != nil {
			return
		}
		defer a.Close()
		h := a.Header()
		if n := uint64(len(b)); (n-HeaderSize)/RecordSize < h.RecordCount || n-HeaderSize-h.RecordCount*RecordSize != h.StringBytes {
			t.Fatalf("accepted a %d-byte file whose header describes %d records and %d string bytes", n, h.RecordCount, h.StringBytes)
		}
		for rank := uint64(0); rank < min(h.RecordCount, 1<<10); rank++ {
			a.At(rank)
		}
		a.At(h.RecordCount - 1)
		a.At(h.RecordCount)
		ones, top := make(mesh.Shape, h.Dims), make(mesh.Shape, h.Dims)
		for i := range ones {
			ones[i], top[i] = 1, h.MaxAxis
		}
		a.Lookup(ones)
		a.Lookup(top)
	})
}

// decodeHeaderLoose decodes without the checksum gate, for tests that
// re-encode a mutated header.
func decodeHeaderLoose(b []byte) (*Header, error) {
	h := &Header{
		Family:      "mesh",
		Dims:        int(b[16]),
		MaxAxis:     int(binary.LittleEndian.Uint16(b[18:20])),
		RecordCount: binary.LittleEndian.Uint64(b[24:32]),
		StringBytes: binary.LittleEndian.Uint64(b[32:40]),
		CRC:         binary.LittleEndian.Uint32(b[40:44]),
		Complete:    binary.LittleEndian.Uint32(b[44:48])&flagComplete != 0,
		Fingerprint: binary.LittleEndian.Uint64(b[48:56]),
	}
	return h, nil
}

// FuzzDecodeRecord fuzzes the fixed-width record decoder: it must never
// panic, and every accepted record must re-encode consistently.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0}, RecordSize))
	f.Add([]byte{0, 1, 1, 3, 9, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{8, 5, 0xFF, 1, 27, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, strOff, strLen, ok, err := DecodeRecord(b)
		if err != nil || !ok {
			return
		}
		if rec.Dilation < -1 || rec.CubeDim < 0 || rec.Method < 0 || strLen < 0 {
			t.Fatalf("accepted record with impossible fields: %+v strOff=%d strLen=%d", rec, strOff, strLen)
		}
	})
}

// BenchmarkArtifactLookup measures the O(1) mmap lookup path.
func BenchmarkArtifactLookup(b *testing.B) {
	path := filepath.Join(b.TempDir(), "plans.art")
	const dims, maxAxis = 3, 24
	pl := core.NewPlanner(core.DefaultOptions)
	bl, err := NewBuilder(path, "mesh", dims, maxAxis, pl.Fingerprint())
	if err != nil {
		b.Fatal(err)
	}
	var shapes []mesh.Shape
	for c := 1; c <= maxAxis; c++ {
		EachShapeWithMax(dims, c, func(s mesh.Shape) {
			shapes = append(shapes, s.Clone())
			if err := bl.Add(s, pl.Plan(s).Entry()); err != nil {
				b.Fatal(err)
			}
		})
	}
	if _, err := bl.Finalize(); err != nil {
		b.Fatal(err)
	}
	a, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		rec, ok, err := a.Lookup(shapes[i%len(shapes)])
		if err != nil || !ok {
			b.Fatalf("lookup failed: %+v %v %v", rec, ok, err)
		}
		sink += rec.CubeDim
	}
	benchCubeDims = sink
}

// benchCubeDims keeps the benchmarked lookups from being dead-code
// eliminated.
var benchCubeDims int
