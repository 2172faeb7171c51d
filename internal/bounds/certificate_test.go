package bounds

import (
	"encoding/json"
	"testing"

	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/pkg/api"
)

// row is one compare row with the four measures a certificate reads.
func row(technique string, cube, dil int, wl int64, cong int) api.CompareRow {
	return api.CompareRow{Technique: technique, Metrics: api.Metrics{CubeDim: cube, Dilation: dil, Wirelength: wl, Congestion: cong}}
}

// TestCertificateRules pins each certificate rule on the cases no other
// test covers.  Every want is the certificate object /v1/plan, /v1/embed or
// /v1/compare served for the same guest before the rules moved here, so
// the table also pins the wire bytes.
func TestCertificateRules(t *testing.T) {
	zeroRows := []api.CompareRow{row("decomposition", 0, 0, 0, 0), row("gray", 0, 0, 0, 0), row("snake", 0, 0, 0, 0)}
	// /v1/compare 3x5: the Gray row is dilation-1 but lives in the 5-cube,
	// so only the 4-cube rows count.
	rows3x5 := []api.CompareRow{
		row("decomposition", 4, 2, 25, 2), row("fold", 4, 2, 25, 2), row("gray", 5, 1, 22, 1),
		row("rowmajor", 4, 4, 38, 2), row("snake", 4, 3, 32, 3),
	}
	const edgeless = `{"cube_dim":0,"lower_bounds":{"dilation":0,"wirelength":0,"congestion":0},"dilation_gap":0,"wirelength_gap":0,"congestion_gap":0,"gap_to_optimal":0,"optimal":true}`
	for _, c := range []struct {
		name string
		got  api.Certificate
		want string
	}{
		{"plan 1 (edgeless)", PlanCertificate(guest.Mesh, mesh.Shape{1}, 0, 1), edgeless},
		{"plan 1x1x1 (edgeless)", PlanCertificate(guest.Mesh, mesh.Shape{1, 1, 1}, 0, 1), edgeless},
		{"plan tree 1 (edgeless)", PlanCertificate(guest.Tree, mesh.Shape{1}, 0, 0), edgeless},
		{"embed 1x1x1 (edgeless)", MeasuredCertificate(guest.Mesh, mesh.Shape{1, 1, 1}, zeroRows[0].Metrics), edgeless},
		{"compare 1x1x1 (edgeless)", compare(guest.Mesh, mesh.Shape{1, 1, 1}, zeroRows), edgeless},
		{"plan 5x5x5 (snake fallback)", PlanCertificate(guest.Mesh, mesh.Shape{5, 5, 5}, 7, -1),
			`{"cube_dim":7,"lower_bounds":{"dilation":1,"wirelength":300,"congestion":1},"dilation_gap":-1,"wirelength_gap":-1,"congestion_gap":-1,"gap_to_optimal":-1,"optimal":false}`},
		{"plan torus 3x3x3 (snake fallback)", PlanCertificate(guest.Torus, mesh.Shape{3, 3, 3}, 5, -1),
			`{"cube_dim":5,"lower_bounds":{"dilation":2,"wirelength":102,"congestion":2},"dilation_gap":-1,"wirelength_gap":-1,"congestion_gap":-1,"gap_to_optimal":-1,"optimal":false}`},
		{"plan 4x4x4 (Gray-minimal)", PlanCertificate(guest.Mesh, mesh.Shape{4, 4, 4}, 6, 1),
			`{"cube_dim":6,"lower_bounds":{"dilation":1,"wirelength":144,"congestion":1},"dilation_gap":0,"wirelength_gap":-1,"congestion_gap":-1,"gap_to_optimal":0,"optimal":true}`},
		{"plan tree 31", PlanCertificate(guest.Tree, mesh.Shape{31}, 5, 2),
			`{"cube_dim":5,"lower_bounds":{"dilation":2,"wirelength":31,"congestion":1},"dilation_gap":0,"wirelength_gap":-1,"congestion_gap":-1,"gap_to_optimal":0,"optimal":true}`},
		{"embed 5x6x7 (wirelength gap)", MeasuredCertificate(guest.Mesh, mesh.Shape{5, 6, 7}, row("", 8, 2, 565, 2).Metrics),
			`{"cube_dim":8,"lower_bounds":{"dilation":1,"wirelength":523,"congestion":1},"dilation_gap":1,"wirelength_gap":42,"congestion_gap":1,"gap_to_optimal":44,"optimal":false}`},
		{"embed cylinder 3x4x8", MeasuredCertificate(guest.Cylinder, mesh.Shape{3, 4, 8}, row("", 7, 1, 232, 1).Metrics),
			`{"cube_dim":7,"lower_bounds":{"dilation":1,"wirelength":232,"congestion":1},"dilation_gap":0,"wirelength_gap":0,"congestion_gap":0,"gap_to_optimal":0,"optimal":true}`},
		{"compare 3x5 (Gray row in a larger cube)", compare(guest.Mesh, mesh.Shape{3, 5}, rows3x5),
			`{"cube_dim":4,"lower_bounds":{"dilation":1,"wirelength":22,"congestion":1},"dilation_gap":1,"wirelength_gap":3,"congestion_gap":1,"gap_to_optimal":5,"optimal":false}`},
	} {
		got, err := json.Marshal(c.got)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
	if c, ok := CompareCertificate(guest.Mesh, mesh.Shape{3, 5}, rows3x5[2:3]); ok {
		t.Errorf("compare 3x5 with only the 5-cube Gray row: certified %+v, want none", c)
	}
}

// compare is CompareCertificate for rows known to reach the minimal cube.
func compare(f guest.Family, s mesh.Shape, rows []api.CompareRow) api.Certificate {
	c, _ := CompareCertificate(f, s, rows)
	return c
}
