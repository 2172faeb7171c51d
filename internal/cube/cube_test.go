package cube

import (
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	if Dist(0, 0b111) != 3 {
		t.Error("Dist(0,7) != 3")
	}
	if Dist(5, 5) != 0 {
		t.Error("Dist(x,x) != 0")
	}
}

func TestLinkBetween(t *testing.T) {
	l := LinkBetween(0b100, 0b110)
	if l.Lo != 0b100 || l.Dim != 1 {
		t.Errorf("LinkBetween = %+v", l)
	}
	// order-independent
	l2 := LinkBetween(0b110, 0b100)
	if l != l2 {
		t.Errorf("LinkBetween not symmetric: %+v vs %+v", l, l2)
	}
}

func TestLinkBetweenPanicsNonAdjacent(t *testing.T) {
	for _, pair := range [][2]Node{{0, 3}, {1, 1}, {0, 7}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LinkBetween(%d,%d) did not panic", pair[0], pair[1])
				}
			}()
			LinkBetween(pair[0], pair[1])
		}()
	}
}

func TestRoute(t *testing.T) {
	f := func(a, b uint16) bool {
		p := Route(Node(a), Node(b))
		if p.Len() != Dist(Node(a), Node(b)) {
			return false
		}
		if p[0] != Node(a) || p[len(p)-1] != Node(b) {
			return false
		}
		return p.Validate(16) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRouteDimensionOrder(t *testing.T) {
	p := Route(0b000, 0b101)
	want := Path{0b000, 0b001, 0b101}
	if len(p) != len(want) {
		t.Fatalf("Route = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Errorf("Route[%d] = %d, want %d", i, p[i], want[i])
		}
	}
}

func TestShortestPaths(t *testing.T) {
	paths := ShortestPaths(0b00, 0b11)
	if len(paths) != 2 {
		t.Fatalf("distance-2 pair has %d shortest paths, want 2", len(paths))
	}
	for _, p := range paths {
		if p.Len() != 2 || p.Validate(2) != nil {
			t.Errorf("bad path %v", p)
		}
	}
	// The two paths use the two distinct intermediate nodes.
	if paths[0][1] == paths[1][1] {
		t.Error("shortest paths share an intermediate node")
	}
	if got := len(ShortestPaths(0, 0b111)); got != 6 {
		t.Errorf("distance-3 pair has %d paths, want 6", got)
	}
	if got := len(ShortestPaths(5, 5)); got != 1 {
		t.Errorf("distance-0 pair has %d paths, want 1", got)
	}
}

func TestPathValidate(t *testing.T) {
	if err := (Path{0, 1, 3, 2}).Validate(2); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	if err := (Path{0, 3}).Validate(2); err == nil {
		t.Error("non-adjacent step accepted")
	}
	if err := (Path{0, 4}).Validate(2); err == nil {
		t.Error("out-of-cube node accepted")
	}
}

func TestNumLinks(t *testing.T) {
	cases := []struct{ n, want int }{{0, 0}, {1, 1}, {2, 4}, {3, 12}, {4, 32}, {10, 5120}}
	for _, c := range cases {
		if got := NumLinks(c.n); got != c.want {
			t.Errorf("NumLinks(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestLinkIndexDenseBijection(t *testing.T) {
	for n := 1; n <= 6; n++ {
		seen := make(map[int]Link)
		count := 0
		for v := Node(0); v < Node(1)<<uint(n); v++ {
			for d := 0; d < n; d++ {
				w := Node(uint64(v) ^ (1 << uint(d)))
				if w < v {
					continue // count each undirected link once
				}
				l := LinkBetween(v, w)
				idx := LinkIndex(l, n)
				if idx < 0 || idx >= NumLinks(n) {
					t.Fatalf("n=%d: index %d out of range", n, idx)
				}
				if prev, dup := seen[idx]; dup {
					t.Fatalf("n=%d: index collision %d: %+v and %+v", n, idx, prev, l)
				}
				seen[idx] = l
				count++
			}
		}
		if count != NumLinks(n) {
			t.Fatalf("n=%d: enumerated %d links, want %d", n, count, NumLinks(n))
		}
	}
}

func TestPathLinks(t *testing.T) {
	p := Route(0b000, 0b110)
	links := p.Links()
	if len(links) != 2 {
		t.Fatalf("links = %v", links)
	}
	if (Path{}).Links() != nil {
		t.Error("empty path should have nil links")
	}
	if (Path{5}).Links() != nil {
		t.Error("single-node path should have nil links")
	}
}

func BenchmarkRoute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Route(Node(i), Node(i)*2654435761%1024)
	}
}

func BenchmarkLinkIndex(b *testing.B) {
	l := Link{Lo: 12345, Dim: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = LinkIndex(l, 20)
	}
}

func TestRouteIntoReusesBuffer(t *testing.T) {
	pairs := [][2]Node{{0, 0}, {0, 1}, {5, 10}, {0b1011, 0b0110}, {127, 0}}
	var buf Path
	for _, pr := range pairs {
		buf = RouteInto(buf[:0], pr[0], pr[1])
		want := Route(pr[0], pr[1])
		if len(buf) != len(want) {
			t.Fatalf("RouteInto(%d,%d) length %d, want %d", pr[0], pr[1], len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Errorf("RouteInto(%d,%d)[%d] = %d, want %d", pr[0], pr[1], i, buf[i], want[i])
			}
		}
	}
}

func TestAppendLinksMatchesLinks(t *testing.T) {
	p := Route(0b0000, 0b1011)
	var buf []Link
	buf = p.AppendLinks(buf[:0])
	want := p.Links()
	if len(buf) != len(want) {
		t.Fatalf("AppendLinks length %d, want %d", len(buf), len(want))
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Errorf("link %d = %v, want %v", i, buf[i], want[i])
		}
	}
	// Appending after existing content must preserve the prefix.
	pre := []Link{{Lo: 9, Dim: 3}}
	out := p.AppendLinks(pre)
	if out[0] != pre[0] || len(out) != 1+len(want) {
		t.Errorf("AppendLinks clobbered the prefix: %v", out)
	}
	if Path(nil).AppendLinks(nil) != nil {
		t.Error("empty path should append nothing")
	}
}

func TestLinkBetweenLowEndpoint(t *testing.T) {
	// Lo must always be the endpoint whose differing bit is zero, whichever
	// argument order is used.
	for dim := 0; dim < 6; dim++ {
		for lo := Node(0); lo < 64; lo++ {
			if (lo>>uint(dim))&1 == 1 {
				continue
			}
			hi := Node(uint64(lo) | 1<<uint(dim))
			want := Link{Lo: lo, Dim: dim}
			if got := LinkBetween(lo, hi); got != want {
				t.Fatalf("LinkBetween(%d,%d) = %v, want %v", lo, hi, got, want)
			}
			if got := LinkBetween(hi, lo); got != want {
				t.Fatalf("LinkBetween(%d,%d) = %v, want %v", hi, lo, got, want)
			}
		}
	}
}
