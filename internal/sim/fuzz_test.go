package sim

import (
	"math"
	"slices"
	"testing"

	"greem/internal/mpi"
	"greem/internal/tree"
	"greem/internal/vec"
)

// fuzzPointBoxDist is an independent 27-image point-to-box distance: the
// minimum over all periodic images of p of the Euclidean distance to the box
// [lo, hi]. Deliberately not the per-axis BestShift factorization used by the
// exchange, so the two can disagree if either is wrong.
func fuzzPointBoxDist(p, lo, hi vec.V3, l float64) float64 {
	best := math.Inf(1)
	clamp := func(v, a, b float64) float64 { return math.Max(a, math.Min(b, v)) }
	for kx := -1; kx <= 1; kx++ {
		for ky := -1; ky <= 1; ky++ {
			for kz := -1; kz <= 1; kz++ {
				q := vec.V3{X: p.X + float64(kx)*l, Y: p.Y + float64(ky)*l, Z: p.Z + float64(kz)*l}
				dx := q.X - clamp(q.X, lo.X, hi.X)
				dy := q.Y - clamp(q.Y, lo.Y, hi.Y)
				dz := q.Z - clamp(q.Z, lo.Z, hi.Z)
				if d := math.Sqrt(dx*dx + dy*dy + dz*dz); d < best {
					best = d
				}
			}
		}
	}
	return best
}

// fuzzGrids are the process grids the fuzzer cycles through — including thin
// and tall decompositions whose domains are narrower than large rcut values.
var fuzzGrids = [][3]int{
	{1, 1, 1}, {2, 1, 1}, {2, 2, 1}, {2, 2, 2}, {4, 1, 1}, {3, 2, 1},
}

// FuzzGhostSelection drives the ghost exchange (both the raw-particle path
// and the LET walk) over fuzzed particle sets, process grids, and cutoffs,
// and asserts the selection invariant: every source a rank receives lies
// within the path's distance bound of that rank's domain box — rcut for raw
// particles, rcut/(1−√3·θ) for the LET path, whose accepted monopoles may
// stand off from the box by the opening-criterion slack (see
// tree.LETCollector). Shipped masses must be positive and no heavier than the
// whole system. The harness then moves the particles under a fuzzed
// decomposition and pins the particle exchange to its reference oracle
// (checkExchange): same particles, same storage order.
func FuzzGhostSelection(f *testing.F) {
	f.Add(int64(1), byte(3), byte(80), true)
	f.Add(int64(2), byte(3), byte(80), false)
	f.Add(int64(7), byte(4), byte(255), true) // rcut wider than the 4×1×1 slab
	f.Add(int64(9), byte(0), byte(0), false)  // single rank: nothing may ship
	f.Add(int64(5), byte(5), byte(140), true)

	f.Fuzz(func(t *testing.T, seed int64, gridSel, rcutSel byte, letOn bool) {
		grid := fuzzGrids[int(gridSel)%len(fuzzGrids)]
		p := grid[0] * grid[1] * grid[2]
		rcut := 0.02 + 0.3*float64(rcutSel)/255
		const n = 60
		parts := makeParticles(seed, n, 0)

		cfg := baseConfig(grid)
		cfg.Rcut = rcut
		bound := rcut
		if letOn {
			bound = rcut / (1 - math.Sqrt(3)*cfg.Theta)
		}

		err := mpi.Run(p, func(c *mpi.Comm) {
			s, err := New(c, cfg, sliceFor(parts, c.Rank(), p))
			if err != nil {
				panic(err)
			}
			s.oracle.rawGhosts = !letOn
			lt, err := tree.Build(s.x, s.y, s.z, s.m, tree.Options{LeafCap: cfg.LeafCap})
			if err != nil {
				panic(err)
			}
			ghosts := slices.Concat(s.exchangeGhosts(lt)...)
			lo, hi := s.bounds()
			var shipped float64
			for _, g := range ghosts {
				d := fuzzPointBoxDist(vec.V3{X: g.X, Y: g.Y, Z: g.Z}, lo, hi, cfg.L)
				if d > bound+1e-9 {
					t.Errorf("rank %d (let=%v): received source %+v at distance %v > bound %v (rcut %v)",
						c.Rank(), letOn, g, d, bound, rcut)
				}
				if g.M <= 0 {
					t.Errorf("rank %d: non-positive ghost mass %+v", c.Rank(), g)
				}
				shipped += g.M
			}
			// Each rank can receive at most the whole system's mass (every
			// remote particle, each shipped as exactly one image or folded
			// into monopoles of equal total mass).
			if shipped > 1+1e-9 {
				t.Errorf("rank %d: received mass %v exceeds system total 1", c.Rank(), shipped)
			}
			if p == 1 && len(ghosts) != 0 {
				t.Errorf("single rank received %d ghosts", len(ghosts))
			}

			// The same fuzzed world drives the particle exchange against its
			// reference: a skewed decomposition, and moves of up to a whole
			// box side, so that owners change and positions need wrapping.
			s.geo = sampledGeometry(seed, grid)
			jitter(s, seed, float64(rcutSel)/255)
			checkExchange(t, s, "fuzzed decomposition")
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
