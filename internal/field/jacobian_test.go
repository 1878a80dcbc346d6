package field

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/vmath"
)

// The per-node conversions and diagnostics read each node's Jacobian
// from the grid's node table. These tests pin them bit for bit to
// references that still evaluate g.Jacobian at every node.

// degenerateGrid is a seeded randomly perturbed box whose i = 0 face is
// collapsed onto the i = 1 face, so every i = 0 node has a singular
// Jacobian and takes the zero-velocity / !ok branches.
func degenerateGrid(t testing.TB, seed int64) *grid.Grid {
	t.Helper()
	g, err := grid.NewCartesian(7, 6, 5, vmath.AABB{Min: vmath.V3(0, 0, 0), Max: vmath.V3(6, 5, 4)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for n := range g.X {
		g.X[n] += (rng.Float32() - 0.5) * 0.3
		g.Y[n] += (rng.Float32() - 0.5) * 0.3
		g.Z[n] += (rng.Float32() - 0.5) * 0.3
	}
	for k := 0; k < g.NK; k++ {
		for j := 0; j < g.NJ; j++ {
			g.SetAt(0, j, k, g.At(1, j, k))
		}
	}
	return g
}

func nodeGC(i, j, k int) vmath.Vec3 {
	return vmath.Vec3{X: float32(i), Y: float32(j), Z: float32(k)}
}

func refToGridCoords(f *Field, g *grid.Grid) *Field {
	out := NewField(f.NI, f.NJ, f.NK, GridCoords)
	for k := 0; k < f.NK; k++ {
		for j := 0; j < f.NJ; j++ {
			for i := 0; i < f.NI; i++ {
				if u, ok := solveJacobian(g.Jacobian(nodeGC(i, j, k)), f.At(i, j, k)); ok {
					out.SetAt(i, j, k, u)
				}
			}
		}
	}
	return out
}

func refToPhysicalVelocity(f *Field, g *grid.Grid) *Field {
	out := NewField(f.NI, f.NJ, f.NK, Physical)
	for k := 0; k < f.NK; k++ {
		for j := 0; j < f.NJ; j++ {
			for i := 0; i < f.NI; i++ {
				cols := g.Jacobian(nodeGC(i, j, k))
				u := f.At(i, j, k)
				out.SetAt(i, j, k, vmath.Vec3{
					X: cols[0].X*u.X + cols[1].X*u.Y + cols[2].X*u.Z,
					Y: cols[0].Y*u.X + cols[1].Y*u.Y + cols[2].Y*u.Z,
					Z: cols[0].Z*u.X + cols[1].Z*u.Y + cols[2].Z*u.Z,
				})
			}
		}
	}
	return out
}

func refQCriterion(f *Field, g *grid.Grid) []float32 {
	out := make([]float32, f.NumNodes())
	for k := 0; k < f.NK; k++ {
		for j := 0; j < f.NJ; j++ {
			for i := 0; i < f.NI; i++ {
				inv, ok := invert3(g.Jacobian(nodeGC(i, j, k)))
				if !ok {
					continue
				}
				chain := func(a []float32) vmath.Vec3 {
					gxi := gradComputational(g, a, i, j, k)
					return vmath.Vec3{
						X: gxi.X*inv[0].X + gxi.Y*inv[1].X + gxi.Z*inv[2].X,
						Y: gxi.X*inv[0].Y + gxi.Y*inv[1].Y + gxi.Z*inv[2].Y,
						Z: gxi.X*inv[0].Z + gxi.Y*inv[1].Z + gxi.Z*inv[2].Z,
					}
				}
				gu, gv, gw := chain(f.U), chain(f.V), chain(f.W)
				out[g.Index(i, j, k)] = -0.5*(gu.X*gu.X+gv.Y*gv.Y+gw.Z*gw.Z) -
					(gu.Y*gv.X + gu.Z*gw.X + gv.Z*gw.Y)
			}
		}
	}
	return out
}

func requireBitsEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for n := range want {
		if math.Float32bits(got[n]) != math.Float32bits(want[n]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, n, got[n], want[n])
		}
	}
}

func TestNodeJacobianConversionsBitIdentical(t *testing.T) {
	taper, err := grid.NewTaperedCylinder(grid.TaperedCylinderSpec{
		NI: 12, NJ: 16, NK: 4, R0: 1, R1: 0.5, Router: 12, Span: 16, Stretch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *grid.Grid
	}{{"tapered", taper}, {"degenerate", degenerateGrid(t, 7)}} {
		g := tc.g
		phys := randomField(g.NI, g.NJ, g.NK, 11)
		gc, err := ToGridCoords(phys, g)
		if err != nil {
			t.Fatal(err)
		}
		want := refToGridCoords(phys, g)
		requireBitsEqual(t, tc.name+" ToGridCoords.U", gc.U, want.U)
		requireBitsEqual(t, tc.name+" ToGridCoords.V", gc.V, want.V)
		requireBitsEqual(t, tc.name+" ToGridCoords.W", gc.W, want.W)

		back, err := ToPhysicalVelocity(gc, g)
		if err != nil {
			t.Fatal(err)
		}
		wantBack := refToPhysicalVelocity(gc, g)
		requireBitsEqual(t, tc.name+" ToPhysicalVelocity.U", back.U, wantBack.U)
		requireBitsEqual(t, tc.name+" ToPhysicalVelocity.V", back.V, wantBack.V)
		requireBitsEqual(t, tc.name+" ToPhysicalVelocity.W", back.W, wantBack.W)

		q, err := QCriterion(g, phys)
		if err != nil {
			t.Fatal(err)
		}
		requireBitsEqual(t, tc.name+" QCriterion", q, refQCriterion(phys, g))
	}

	// The collapsed face really is degenerate: a nonzero velocity there
	// converts to zero, and its Q-criterion is zero.
	g := degenerateGrid(t, 7)
	phys := randomField(g.NI, g.NJ, g.NK, 11)
	gc, _ := ToGridCoords(phys, g)
	q, _ := QCriterion(g, phys)
	if phys.At(0, 2, 2) == (vmath.Vec3{}) || gc.At(0, 2, 2) != (vmath.Vec3{}) || q[g.Index(0, 2, 2)] != 0 {
		t.Errorf("collapsed node: phys %v -> grid %v, Q %v; want zero grid velocity and Q",
			phys.At(0, 2, 2), gc.At(0, 2, 2), q[g.Index(0, 2, 2)])
	}
}

// TestNodeJacobianConcurrentFirstUse has several goroutines reach a
// fresh grid's node table at once, as the live producer and the
// server's tool path do on one shared grid with no common lock. Run it
// under -race.
func TestNodeJacobianConcurrentFirstUse(t *testing.T) {
	g := degenerateGrid(t, 3)
	phys := randomField(g.NI, g.NJ, g.NK, 5)
	want := refToGridCoords(phys, g)

	const workers = 4
	start := make(chan struct{})
	results := make([]*Field, workers)
	jacs := make([][3]vmath.Vec3, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			jacs[w] = g.NodeJacobian(w+1, 2, 3)
			gc, err := ToGridCoords(phys, g)
			if err != nil {
				t.Error(err)
				return
			}
			results[w] = gc
		}(w)
	}
	close(start)
	wg.Wait()
	for w := 0; w < workers; w++ {
		if jacs[w] != g.Jacobian(nodeGC(w+1, 2, 3)) {
			t.Errorf("worker %d: NodeJacobian %v, Jacobian %v", w, jacs[w], g.Jacobian(nodeGC(w+1, 2, 3)))
		}
		if results[w] == nil {
			continue
		}
		requireBitsEqual(t, "ToGridCoords.U", results[w].U, want.U)
		requireBitsEqual(t, "ToGridCoords.V", results[w].V, want.V)
		requireBitsEqual(t, "ToGridCoords.W", results[w].W, want.W)
	}
}

// liveToolsGrid is the 24x32x8 tapered-cylinder grid the in-situ
// producer and the shared tools convert over every round.
func liveToolsGrid(b *testing.B) *grid.Grid {
	b.Helper()
	g, err := grid.NewTaperedCylinder(grid.TaperedCylinderSpec{
		NI: 24, NJ: 32, NK: 8, R0: 1, R1: 0.5, Router: 12, Span: 16, Stretch: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

var benchSink any

func BenchmarkToGridCoords(b *testing.B) {
	g := liveToolsGrid(b)
	phys := randomField(g.NI, g.NJ, g.NK, 1)
	if _, err := ToGridCoords(phys, g); err != nil { // first use builds the node table
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		out, err := ToGridCoords(phys, g)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = out
	}
}

func BenchmarkToPhysicalVelocity(b *testing.B) {
	g := liveToolsGrid(b)
	gc := randomField(g.NI, g.NJ, g.NK, 1)
	gc.Coords = GridCoords
	if _, err := ToPhysicalVelocity(gc, g); err != nil { // first use builds the node table
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		out, err := ToPhysicalVelocity(gc, g)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = out
	}
}

func BenchmarkQCriterion(b *testing.B) {
	g := liveToolsGrid(b)
	phys := randomField(g.NI, g.NJ, g.NK, 1)
	if _, err := QCriterion(g, phys); err != nil { // first use builds the node table
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		out, err := QCriterion(g, phys)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = out
	}
}
