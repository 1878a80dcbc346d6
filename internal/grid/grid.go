// Package grid implements the curvilinear computational grids on which
// the windtunnel's flowfields live. A grid stores the physical position
// of each node indexed by integer computational coordinates (i, j, k).
//
// Following §2.1 of the paper, all particle integration happens in
// computational ("grid") coordinates: velocities are pre-converted to
// grid coordinates once per dataset, so each integration step needs
// only array indexing and trilinear interpolation — never a search of
// the curvilinear grid. Paths are converted back to physical
// coordinates by direct lookup of node positions with trilinear
// interpolation.
//
// Those conversions need the grid Jacobian at every node, on every
// timestep a live solver produces and every field diagnostic the
// shared tools derive. A Grid therefore keeps a per-node Jacobian
// table (NodeJacobian), built once on first use: 36 bytes per node,
// 221 KB on a 24x32x8 grid. The table relies on an invariant every
// Grid obeys: node positions are fixed once the grid is first used.
// The builders and readers fill X/Y/Z before returning the grid, and
// nothing writes them afterwards. Different node positions make a new
// Grid, as the live producer's shifted sampling grid does.
package grid

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/vmath"
)

// Grid is a structured curvilinear grid of NI x NJ x NK nodes. Node
// (i, j, k) has physical position (X[idx], Y[idx], Z[idx]) with
// idx = (k*NJ + j)*NI + i; i varies fastest, matching PLOT3D ordering.
// X, Y and Z must not be written once the grid has been handed to a
// caller (see the package doc): the node Jacobian table caches them.
type Grid struct {
	NI, NJ, NK int
	X, Y, Z    []float32

	jacOnce sync.Once
	jac     [][3]vmath.Vec3 // Jacobian(node) per node index, built by jacOnce
}

// New allocates an empty grid of the given dimensions. Each dimension
// must be at least 2 so every cell has a full trilinear stencil.
func New(ni, nj, nk int) (*Grid, error) {
	if ni < 2 || nj < 2 || nk < 2 {
		return nil, fmt.Errorf("grid: dimensions %dx%dx%d too small (need >= 2 each)", ni, nj, nk)
	}
	n := ni * nj * nk
	return &Grid{
		NI: ni, NJ: nj, NK: nk,
		X: make([]float32, n),
		Y: make([]float32, n),
		Z: make([]float32, n),
	}, nil
}

// NumNodes returns the total number of grid nodes.
func (g *Grid) NumNodes() int { return g.NI * g.NJ * g.NK }

// Index returns the linear index of node (i, j, k). It does not bounds
// check; callers on hot paths have already validated.
func (g *Grid) Index(i, j, k int) int { return (k*g.NJ+j)*g.NI + i }

// At returns the physical position of node (i, j, k).
func (g *Grid) At(i, j, k int) vmath.Vec3 {
	idx := g.Index(i, j, k)
	return vmath.Vec3{X: g.X[idx], Y: g.Y[idx], Z: g.Z[idx]}
}

// SetAt sets the physical position of node (i, j, k).
func (g *Grid) SetAt(i, j, k int, p vmath.Vec3) {
	idx := g.Index(i, j, k)
	g.X[idx], g.Y[idx], g.Z[idx] = p.X, p.Y, p.Z
}

// InBounds reports whether the grid coordinate gc lies inside the
// grid's computational domain [0, NI-1] x [0, NJ-1] x [0, NK-1].
func (g *Grid) InBounds(gc vmath.Vec3) bool {
	return gc.X >= 0 && gc.X <= float32(g.NI-1) &&
		gc.Y >= 0 && gc.Y <= float32(g.NJ-1) &&
		gc.Z >= 0 && gc.Z <= float32(g.NK-1)
}

// ClampToBounds returns gc clamped into the computational domain.
func (g *Grid) ClampToBounds(gc vmath.Vec3) vmath.Vec3 {
	return vmath.Vec3{
		X: clamp(gc.X, 0, float32(g.NI-1)),
		Y: clamp(gc.Y, 0, float32(g.NJ-1)),
		Z: clamp(gc.Z, 0, float32(g.NK-1)),
	}
}

func clamp(v, lo, hi float32) float32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// cellOf splits a grid coordinate into a cell origin (i0, j0, k0) and
// fractional offsets in [0, 1]. Coordinates on the high boundary fold
// into the last cell so interpolation stays in range.
func (g *Grid) cellOf(gc vmath.Vec3) (i0, j0, k0 int, fx, fy, fz float32) {
	i0, fx = splitCoord(gc.X, g.NI)
	j0, fy = splitCoord(gc.Y, g.NJ)
	k0, fz = splitCoord(gc.Z, g.NK)
	return
}

func splitCoord(c float32, n int) (int, float32) {
	i := int(math.Floor(float64(c)))
	if i < 0 {
		i = 0
	}
	if i > n-2 {
		i = n - 2
	}
	return i, c - float32(i)
}

// PhysAt returns the physical position corresponding to grid
// coordinate gc, by trilinear interpolation of node positions. gc is
// clamped to the computational domain.
func (g *Grid) PhysAt(gc vmath.Vec3) vmath.Vec3 {
	gc = g.ClampToBounds(gc)
	i0, j0, k0, fx, fy, fz := g.cellOf(gc)
	return vmath.Vec3{
		X: g.trilerp(g.X, i0, j0, k0, fx, fy, fz),
		Y: g.trilerp(g.Y, i0, j0, k0, fx, fy, fz),
		Z: g.trilerp(g.Z, i0, j0, k0, fx, fy, fz),
	}
}

// trilerp performs trilinear interpolation of scalar array a at the
// cell with origin (i0, j0, k0) and fractions (fx, fy, fz). This is
// the "eight floating point loads plus a trilinear interpolation"
// the paper counts per component per point (§5.3).
func (g *Grid) trilerp(a []float32, i0, j0, k0 int, fx, fy, fz float32) float32 {
	base := g.Index(i0, j0, k0)
	ni := g.NI
	slab := g.NI * g.NJ

	c000 := a[base]
	c100 := a[base+1]
	c010 := a[base+ni]
	c110 := a[base+ni+1]
	c001 := a[base+slab]
	c101 := a[base+slab+1]
	c011 := a[base+slab+ni]
	c111 := a[base+slab+ni+1]

	c00 := c000 + fx*(c100-c000)
	c10 := c010 + fx*(c110-c010)
	c01 := c001 + fx*(c101-c001)
	c11 := c011 + fx*(c111-c011)

	c0 := c00 + fy*(c10-c00)
	c1 := c01 + fy*(c11-c01)
	return c0 + fz*(c1-c0)
}

// Trilerp exposes trilinear interpolation of an arbitrary node-indexed
// scalar array (len == NumNodes) at grid coordinate gc. Field sampling
// uses it to interpolate velocity components stored outside the grid.
func (g *Grid) Trilerp(a []float32, gc vmath.Vec3) float32 {
	gc = g.ClampToBounds(gc)
	i0, j0, k0, fx, fy, fz := g.cellOf(gc)
	return g.trilerp(a, i0, j0, k0, fx, fy, fz)
}

// Bounds returns the physical axis-aligned bounding box of all nodes.
func (g *Grid) Bounds() vmath.AABB {
	b := vmath.NewAABB()
	for i := range g.X {
		b = b.Extend(vmath.Vec3{X: g.X[i], Y: g.Y[i], Z: g.Z[i]})
	}
	return b
}

// Jacobian returns the 3x3 Jacobian d(phys)/d(grid) at grid coordinate
// gc, estimated by central differences of the trilinear position map.
// Columns are the physical-space derivatives along i, j, k. At integer
// nodes use NodeJacobian, which returns the same values from a table.
func (g *Grid) Jacobian(gc vmath.Vec3) (cols [3]vmath.Vec3) {
	const h = 0.25
	for axis := 0; axis < 3; axis++ {
		lo, hi := gc, gc
		switch axis {
		case 0:
			lo.X -= h
			hi.X += h
		case 1:
			lo.Y -= h
			hi.Y += h
		case 2:
			lo.Z -= h
			hi.Z += h
		}
		lo = g.ClampToBounds(lo)
		hi = g.ClampToBounds(hi)
		var span float32
		switch axis {
		case 0:
			span = hi.X - lo.X
		case 1:
			span = hi.Y - lo.Y
		case 2:
			span = hi.Z - lo.Z
		}
		if span == 0 {
			span = 1
		}
		cols[axis] = g.PhysAt(hi).Sub(g.PhysAt(lo)).Scale(1 / span)
	}
	return cols
}

// NodeJacobian returns Jacobian at integer node (i, j, k), bit for bit,
// from a table of every node's Jacobian built on the first call. The
// per-node field conversions and diagnostics use it so a grid whose
// nodes never move pays for its Jacobians once, not once per
// timestep. It is safe for concurrent use.
func (g *Grid) NodeJacobian(i, j, k int) [3]vmath.Vec3 {
	g.jacOnce.Do(g.buildNodeJacobians)
	return g.jac[g.Index(i, j, k)]
}

func (g *Grid) buildNodeJacobians() {
	g.jac = make([][3]vmath.Vec3, g.NumNodes())
	for k := 0; k < g.NK; k++ {
		for j := 0; j < g.NJ; j++ {
			for i := 0; i < g.NI; i++ {
				g.jac[g.Index(i, j, k)] = g.Jacobian(vmath.Vec3{X: float32(i), Y: float32(j), Z: float32(k)})
			}
		}
	}
}

// ErrNotFound is returned by PhysToGrid when the physical point cannot
// be located inside the grid.
var ErrNotFound = errors.New("grid: physical point outside grid")

// PhysToGrid locates the grid coordinate whose physical image is p,
// starting the search from the guess coordinate (pass the previous
// particle position for fast coherent lookups). It uses damped Newton
// iteration on the trilinear map — the "search of the curvilinear
// grid" whose per-step cost the paper avoids by integrating in grid
// coordinates. It exists both for seeding tools from physical space
// (rake handles live in physical coordinates) and as the baseline for
// the grid-coordinate ablation benchmark.
func (g *Grid) PhysToGrid(p vmath.Vec3, guess vmath.Vec3) (vmath.Vec3, error) {
	gc := g.ClampToBounds(guess)
	const maxIter = 50
	for iter := 0; iter < maxIter; iter++ {
		cur := g.PhysAt(gc)
		resid := p.Sub(cur)
		if resid.Len() < 1e-5 {
			return gc, nil
		}
		cols := g.Jacobian(gc)
		step, ok := solve3(cols, resid)
		if !ok {
			return vmath.Vec3{}, ErrNotFound
		}
		// Damp large steps so the walk cannot jump over thin cells.
		const maxStep = 2.0
		if l := step.Len(); l > maxStep {
			step = step.Scale(maxStep / l)
		}
		gc = g.ClampToBounds(gc.Add(step))
	}
	// Accept if converged to the boundary of the domain nearest p.
	if g.PhysAt(gc).Dist(p) < 1e-3 {
		return gc, nil
	}
	return vmath.Vec3{}, ErrNotFound
}

// solve3 solves the 3x3 system [c0 c1 c2] x = b by Cramer's rule.
func solve3(cols [3]vmath.Vec3, b vmath.Vec3) (vmath.Vec3, bool) {
	det := cols[0].Dot(cols[1].Cross(cols[2]))
	if absf(det) < 1e-12 {
		return vmath.Vec3{}, false
	}
	inv := 1 / det
	x := b.Dot(cols[1].Cross(cols[2])) * inv
	y := cols[0].Dot(b.Cross(cols[2])) * inv
	z := cols[0].Dot(cols[1].Cross(b)) * inv
	return vmath.Vec3{X: x, Y: y, Z: z}, true
}

func absf(f float32) float32 {
	if f < 0 {
		return -f
	}
	return f
}

// Validate checks structural invariants: coordinate array lengths match
// the dimensions and all node positions are finite.
func (g *Grid) Validate() error {
	n := g.NumNodes()
	if len(g.X) != n || len(g.Y) != n || len(g.Z) != n {
		return fmt.Errorf("grid: coordinate arrays have %d/%d/%d entries, want %d",
			len(g.X), len(g.Y), len(g.Z), n)
	}
	for i := 0; i < n; i++ {
		p := vmath.Vec3{X: g.X[i], Y: g.Y[i], Z: g.Z[i]}
		if !p.IsFinite() {
			return fmt.Errorf("grid: node %d has non-finite position %v", i, p)
		}
	}
	return nil
}
