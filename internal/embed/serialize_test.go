package embed

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cube"
	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/pkg/api"
)

// decode reads an embedding the way embedctl verify reads its file: the
// JSON of api.EmbeddingSerial, then FromSerial.
func decode(data []byte) (*Embedding, error) {
	var s api.EmbeddingSerial
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	return FromSerial(&s)
}

// roundTrip pushes e through the JSON schema and back.
func roundTrip(t *testing.T, e *Embedding) *Embedding {
	t.Helper()
	s := e.Serial()
	if s.Version != api.EmbeddingSchemaVersion {
		t.Fatalf("serial version = %d, want %d", s.Version, api.EmbeddingSchemaVersion)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decode(data)
	if err != nil {
		t.Fatalf("%s: %v", e.Guest, err)
	}
	return got
}

// checkRoundTrip fails unless the guest, family, cube, map, load factor
// and metrics of e survive roundTrip.
func checkRoundTrip(t *testing.T, e *Embedding) *Embedding {
	t.Helper()
	got := roundTrip(t, e)
	if !got.Guest.Equal(e.Guest) || got.Family != e.Family || got.N != e.N {
		t.Fatalf("%s: header mismatch", e.Guest)
	}
	for i := range e.Map {
		if got.Map[i] != e.Map[i] {
			t.Fatalf("%s: map[%d] = %d, want %d", e.Guest, i, got.Map[i], e.Map[i])
		}
	}
	if got.LoadFactor() != e.LoadFactor() {
		t.Fatalf("%s: load factor %d, want %d", e.Guest, got.LoadFactor(), e.LoadFactor())
	}
	if got.Measure() != e.Measure() {
		t.Fatalf("%s: metrics changed: %v vs %v", e.Guest, got.Measure(), e.Measure())
	}
	return got
}

// manyToOne builds a 2-to-1 embedding of the shape into a cube one
// dimension below minimal: node i goes to i mod 2^n, which VerifyManyToOne
// accepts (injectivity is not required).
func manyToOne(s mesh.Shape) *Embedding {
	e := New(s, s.MinCubeDim()-1)
	hn := e.HostNodes()
	for i := range e.Map {
		e.Map[i] = cube.Node(i % hn)
	}
	return e
}

func withFamily(e *Embedding, f guest.Family) *Embedding {
	e.Family = f
	return e
}

func TestSerializeRoundTrip(t *testing.T) {
	for _, e := range []*Embedding{
		Gray(mesh.Shape{3, 5}), Gray(mesh.Shape{5, 6, 7}),
		withFamily(Gray(mesh.Shape{1}), guest.Torus),
		withFamily(Gray(mesh.Shape{17}), guest.Torus),
	} {
		checkRoundTrip(t, e)
	}
}

func TestSerializeRoundTripTorus(t *testing.T) {
	for _, s := range []mesh.Shape{{6, 10}, {4, 4, 4}} {
		e := withFamily(Gray(s), guest.Torus)
		if !e.Serial().Wrap {
			t.Fatalf("%v: torus serial lacks the wrap marker", s)
		}
		if got := checkRoundTrip(t, e); got.Family != guest.Torus {
			t.Fatalf("%v: torus family lost", s)
		}
	}
}

func TestSerializeRoundTripManyToOne(t *testing.T) {
	e := manyToOne(mesh.Shape{5, 7})
	if got := checkRoundTrip(t, e); got.LoadFactor() < 2 {
		t.Fatalf("load factor %d, want at least 2", got.LoadFactor())
	}
}

// TestSerialRoundTrip checks every family through the schema, the
// cylinder and tree included.
func TestSerialRoundTrip(t *testing.T) {
	for _, e := range []*Embedding{
		Gray(mesh.Shape{5, 6, 7}), manyToOne(mesh.Shape{9, 9}),
		withFamily(Gray(mesh.Shape{8, 4}), guest.Torus),
		withFamily(Gray(mesh.Shape{3, 4}), guest.Cylinder),
		TreeInorder(mesh.Shape{15}),
	} {
		checkRoundTrip(t, e)
	}
}

func TestSerializeRoundTripRandom(t *testing.T) {
	f := func(a, b uint8, wrap bool) bool {
		e := Gray(mesh.Shape{int(a%7) + 1, int(b%7) + 1})
		if wrap {
			e.Family = guest.Torus
		}
		got := roundTrip(t, e)
		return got.Guest.Equal(e.Guest) && got.Family == e.Family && got.Measure() == e.Measure()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFromSerialRejects(t *testing.T) {
	base := Gray(mesh.Shape{3, 5}).Serial()
	wrongVersion := *base
	wrongVersion.Version = api.EmbeddingSchemaVersion + 1
	shortMap := *base
	shortMap.Map = shortMap.Map[:3]
	longMap := *base
	longMap.Map = append(append([]uint64(nil), base.Map...), 0)
	badGuest := *base
	badGuest.Guest = "3x0"
	badFamily := *base
	badFamily.Family = "klein-bottle"
	wrapConflict := *base
	wrapConflict.Family, wrapConflict.Wrap = "cylinder", true
	badCube := *base
	badCube.Cube = 63
	outOfCube := *base
	outOfCube.Map = append([]uint64(nil), base.Map...)
	outOfCube.Map[0] = 1 << 60
	for name, s := range map[string]*api.EmbeddingSerial{
		"version": &wrongVersion, "short-map": &shortMap, "long-map": &longMap,
		"bad-guest": &badGuest, "bad-family": &badFamily, "wrap-conflict": &wrapConflict,
		"bad-cube": &badCube, "out-of-cube": &outOfCube,
	} {
		if _, err := FromSerial(s); err == nil {
			t.Errorf("%s: accepted invalid serial", name)
		}
	}
}

// oversizedSerials name guests whose node count exceeds any allocation
// (2^48) or overflows an int to 0 (2^64), with a map that cannot match:
// the reader must reject them without sizing a map from the header.
var oversizedSerials = []string{
	`{"version":1,"guest":"65536x65536x65536","cube":4,"map":[0]}`,
	`{"version":1,"guest":"4294967296x4294967296","cube":4,"map":[]}`,
}

// garbageSerials are other inputs that are not a serialized embedding.
var garbageSerials = []string{
	``,
	`not-an-embedding`,
	`{"version":1,"guest":"3x5","cube":4,"map":[0,1,2`,
	`{"version":1,"guest":"3x5","cube":4,"map":"0 1 2"}`,
	`{"version":1,"guest":"3x5","cube":4,"map":[0,1,2]}`,
	`{"version":1,"guest":"3x5","wrap":"maybe","cube":4,"map":[]}`,
	`{"version":1,"cube":4,"map":[]}`,
	`{"version":1,"guest":"2","cube":1,"map":[5,0]}`,
}

func TestReadRejectsGarbage(t *testing.T) {
	for _, body := range append(append([]string(nil), garbageSerials...), oversizedSerials...) {
		if _, err := decode([]byte(body)); err == nil {
			t.Errorf("accepted garbage %q", body)
		}
	}
}

// manyToOneSerial maps the four nodes of a 2x2 mesh onto the two nodes of
// a 1-cube.
const manyToOneSerial = `{"version":1,"guest":"2x2","cube":1,"map":[0,0,1,1]}`

func TestReadAcceptsManyToOne(t *testing.T) {
	e, err := decode([]byte(manyToOneSerial))
	if err != nil {
		t.Fatal(err)
	}
	if e.LoadFactor() != 2 {
		t.Errorf("load = %d", e.LoadFactor())
	}
}

// BenchmarkSerialize measures reading a 16x16x16 embedding back: JSON
// decode plus FromSerial.
func BenchmarkSerialize(b *testing.B) {
	data, err := json.Marshal(Gray(mesh.Shape{16, 16, 16}).Serial())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// checkLoaded fails unless a loaded embedding has one map entry per guest
// node, counted without overflow, and passes VerifyManyToOne.
func checkLoaded(t *testing.T, e *Embedding) {
	if nodes, ok := e.Guest.NodesWithin(math.MaxInt); !ok || nodes != len(e.Map) {
		t.Fatalf("accepted guest %v with %d map entries", e.Guest, len(e.Map))
	}
	if err := e.VerifyManyToOne(); err != nil {
		t.Fatalf("accepted an invalid embedding: %v", err)
	}
}

// FuzzRead fuzzes the bytes of an embedding file.
func FuzzRead(f *testing.F) {
	for _, s := range oversizedSerials {
		f.Add([]byte(s))
	}
	valid, err := json.Marshal(Gray(mesh.Shape{3, 5}).Serial())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, s := range garbageSerials {
		f.Add([]byte(s))
	}
	f.Add([]byte(manyToOneSerial))
	f.Fuzz(func(t *testing.T, body []byte) {
		if e, err := decode(body); err == nil {
			checkLoaded(t, e)
		}
	})
}

// FuzzFromSerial fuzzes the fields of a serial below the JSON layer, so
// the mutator works on the guest, family, wrap marker and cube directly.
// Each byte of raw is one map entry, which keeps small valid maps within
// the mutator's reach.
func FuzzFromSerial(f *testing.F) {
	for _, s := range []*api.EmbeddingSerial{
		Gray(mesh.Shape{3, 5}).Serial(),
		withFamily(Gray(mesh.Shape{4, 4}), guest.Torus).Serial(),
		withFamily(Gray(mesh.Shape{3, 4}), guest.Cylinder).Serial(),
		TreeInorder(mesh.Shape{7}).Serial(),
		manyToOne(mesh.Shape{2, 2}).Serial(),
		{Version: 1, Guest: "65536x65536x65536", Cube: 4, Map: []uint64{0}},
		{Version: 1, Guest: "4294967296x4294967296", Cube: 4},
	} {
		raw := make([]byte, len(s.Map))
		for i, h := range s.Map {
			raw[i] = byte(h)
		}
		f.Add(s.Version, s.Guest, s.Family, s.Wrap, s.Cube, raw)
	}
	f.Fuzz(func(t *testing.T, version int, g, fam string, wrap bool, n int, raw []byte) {
		m := make([]uint64, len(raw))
		for i, b := range raw {
			m[i] = uint64(b)
		}
		s := &api.EmbeddingSerial{Version: version, Guest: g, Family: fam, Wrap: wrap, Cube: n, Map: m}
		if e, err := FromSerial(s); err == nil {
			checkLoaded(t, e)
		}
	})
}
