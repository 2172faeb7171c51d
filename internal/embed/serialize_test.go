package embed

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cube"
	"repro/internal/guest"
	"repro/internal/mesh"
)

func TestSerializeRoundTrip(t *testing.T) {
	for _, s := range []mesh.Shape{{3, 5}, {5, 6, 7}, {1}, {17}} {
		e := Gray(s)
		if s.Dims() == 1 {
			e.Family = guest.Torus
		}
		var b strings.Builder
		if _, err := e.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		got, err := Read(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !got.Guest.Equal(e.Guest) || got.N != e.N || got.Family != e.Family {
			t.Fatalf("%v: header mismatch", s)
		}
		for i := range e.Map {
			if got.Map[i] != e.Map[i] {
				t.Fatalf("%v: map[%d] = %d, want %d", s, i, got.Map[i], e.Map[i])
			}
		}
	}
}

func TestSerializeRoundTripRandom(t *testing.T) {
	f := func(a, b uint8, wrap bool) bool {
		s := mesh.Shape{int(a%7) + 1, int(b%7) + 1}
		e := Gray(s)
		if wrap {
			e.Family = guest.Torus
		}
		var sb strings.Builder
		if _, err := e.WriteTo(&sb); err != nil {
			return false
		}
		got, err := Read(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		return got.Guest.Equal(e.Guest) && got.Family == e.Family && got.Measure() == e.Measure()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// roundTrip pushes e through the text format and back.
func roundTrip(t *testing.T, e *Embedding) *Embedding {
	t.Helper()
	var b strings.Builder
	if _, err := e.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// manyToOne builds a 2-to-1 embedding of the shape into a cube one
// dimension below minimal: consecutive snake... simply idx % hostNodes,
// which VerifyManyToOne accepts (injectivity is not required).
func manyToOne(s mesh.Shape) *Embedding {
	e := New(s, s.MinCubeDim()-1)
	hn := e.HostNodes()
	for i := range e.Map {
		e.Map[i] = cube.Node(i % hn)
	}
	return e
}

func TestSerializeRoundTripTorus(t *testing.T) {
	for _, s := range []mesh.Shape{{6, 10}, {4, 4, 4}} {
		e := Gray(s)
		e.Family = guest.Torus
		got := roundTrip(t, e)
		if got.Family != guest.Torus {
			t.Fatalf("%v: torus family lost", s)
		}
		if got.Measure() != e.Measure() {
			t.Fatalf("%v: metrics changed: %v vs %v", s, got.Measure(), e.Measure())
		}
	}
}

func TestSerializeRoundTripManyToOne(t *testing.T) {
	e := manyToOne(mesh.Shape{5, 7})
	got := roundTrip(t, e)
	if got.LoadFactor() != e.LoadFactor() || got.LoadFactor() < 2 {
		t.Fatalf("load factor %d vs %d", got.LoadFactor(), e.LoadFactor())
	}
	if got.Measure() != e.Measure() {
		t.Fatalf("metrics changed: %v vs %v", got.Measure(), e.Measure())
	}
}

func TestSerialRoundTrip(t *testing.T) {
	cases := []*Embedding{Gray(mesh.Shape{5, 6, 7}), manyToOne(mesh.Shape{9, 9})}
	torus := Gray(mesh.Shape{8, 4})
	torus.Family = guest.Torus
	cases = append(cases, torus)
	cyl := Gray(mesh.Shape{3, 4})
	cyl.Family = guest.Cylinder
	cases = append(cases, cyl, TreeInorder(mesh.Shape{15}))
	for _, e := range cases {
		s := e.Serial()
		if s.Version != SchemaVersion {
			t.Fatalf("serial version = %d, want %d", s.Version, SchemaVersion)
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Serial
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		got, err := FromSerial(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Guest.Equal(e.Guest) || got.Family != e.Family || got.N != e.N {
			t.Fatalf("%s: header mismatch", e.Guest)
		}
		if got.Measure() != e.Measure() {
			t.Fatalf("%s: metrics changed", e.Guest)
		}
	}
}

func TestFromSerialRejects(t *testing.T) {
	base := Gray(mesh.Shape{3, 5}).Serial()
	wrongVersion := *base
	wrongVersion.Version = SchemaVersion + 1
	shortMap := *base
	shortMap.Map = shortMap.Map[:3]
	badGuest := *base
	badGuest.Guest = "3x0"
	outOfCube := *base
	outOfCube.Map = append([]uint64(nil), base.Map...)
	outOfCube.Map[0] = 1 << 60
	for name, s := range map[string]*Serial{
		"version": &wrongVersion, "short-map": &shortMap,
		"bad-guest": &badGuest, "out-of-cube": &outOfCube,
	} {
		if _, err := FromSerial(s); err == nil {
			t.Errorf("%s: accepted invalid serial", name)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not-an-embedding",
		"repro-embedding v1\nguest 3x5\nwrap false\ncube 4\nmap\n1 2 3",                       // truncated
		"repro-embedding v1\nguest 3x5\nwrap false\ncube 4\nmap\n" + strings.Repeat("1 ", 20), // injectivity aside, extra entries
		"repro-embedding v1\nguest 3x0\nwrap false\ncube 4\nmap\n",
		"repro-embedding v1\nwrap maybe\n",
		"repro-embedding v1\nmystery field\n",
		"repro-embedding v1\nmap\n",                                   // map before guest
		"repro-embedding v1\nguest 2\nwrap false\ncube 1\nmap\n5 0\n", // out of cube
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("accepted garbage %q", c)
		}
	}
}

func TestReadAcceptsManyToOne(t *testing.T) {
	in := "repro-embedding v1\nguest 2x2\nwrap false\ncube 1\nmap\n0 0 1 1\n"
	e, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if e.LoadFactor() != 2 {
		t.Errorf("load = %d", e.LoadFactor())
	}
}

func BenchmarkSerialize(b *testing.B) {
	e := Gray(mesh.Shape{16, 16, 16})
	var sb strings.Builder
	e.WriteTo(&sb)
	data := sb.String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(strings.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// oversizedSerials and oversizedTexts name guests whose node count exceeds
// any allocation (2^48) or overflows an int to 0 (2^64), with a map that
// cannot match.  Both readers must reject them without sizing a map from
// the header.
var (
	oversizedSerials = []string{
		`{"version":1,"guest":"65536x65536x65536","cube":4,"map":[0]}`,
		`{"version":1,"guest":"4294967296x4294967296","cube":4,"map":[]}`,
	}
	oversizedTexts = []string{
		"repro-embedding v1\nguest 65536x65536x65536\nwrap false\ncube 4\nmap\n0 1\n",
		"repro-embedding v1\nguest 4294967296x4294967296\nwrap false\ncube 4\nmap\n",
	}
)

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

func FuzzFromSerial(f *testing.F) {
	for _, s := range oversizedSerials {
		f.Add([]byte(s))
	}
	valid, _ := json.Marshal(Gray(mesh.Shape{3, 5}).Serial())
	f.Add(valid)
	f.Fuzz(func(t *testing.T, body []byte) {
		var s Serial
		if json.Unmarshal(body, &s) != nil {
			return
		}
		if e, err := FromSerial(&s); err == nil {
			checkLoaded(t, e)
		}
	})
}

func FuzzRead(f *testing.F) {
	for _, s := range oversizedTexts {
		f.Add(s)
	}
	var valid strings.Builder
	if _, err := Gray(mesh.Shape{3, 5}).WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.String())
	f.Fuzz(func(t *testing.T, text string) {
		if e, err := Read(strings.NewReader(text)); err == nil {
			checkLoaded(t, e)
		}
	})
}
