package pmpar

import (
	"math"
	"math/rand"
	"testing"

	"greem/internal/domain"
	"greem/internal/mpi"
	"greem/internal/vec"
)

// splitGeometry is the 2×2×2 decomposition of the unit box whose inner
// boundaries sit at bx, by, bz.
func splitGeometry(bx, by, bz float64) *domain.Geometry {
	g := domain.Uniform(2, 2, 2, 1)
	g.BX[1] = bx
	for i := range g.BY {
		g.BY[i][1] = by
		for j := range g.BZ[i] {
			g.BZ[i][j][1] = bz
		}
	}
	return g
}

// poison overwrites every buffer the solver retains across Redecompose, over
// its whole capacity, so that any cell a later solve reads without having
// written it turns the forces into NaN.
func poison(s *Solver) {
	nan := math.NaN()
	fill := func(b []float64) {
		b = b[:cap(b)]
		for i := range b {
			b[i] = nan
		}
	}
	fill3 := func(b [][3]float64) {
		b = b[:cap(b)]
		for i := range b {
			b[i] = [3]float64{nan, nan, nan}
		}
	}
	for _, b := range [][]float64{s.lm.Rho, s.lm.Phi, s.lm.Fx, s.lm.Fy, s.lm.Fz, s.slab} {
		fill(b)
	}
	for _, b := range s.sendF {
		fill(b)
	}
	for _, b := range s.recvF {
		fill(b)
	}
	fill3(s.lm.wwx)
	fill3(s.lm.wwy)
	fill3(s.lm.wwz)
	spec := s.spec[:cap(s.spec)]
	for i := range spec {
		spec[i] = complex(nan, nan)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRedecomposeMatchesNew walks one persistent solver through windows that
// shrink, grow and wrap the whole axis, poisoning its retained buffers before
// every Redecompose, and requires each solve — forces and every mesh array —
// to equal, bit for bit, that of a solver newly built on the same
// decomposition. This is what lets Resume (which builds with New) continue a
// run that has Redecomposed hundreds of times.
func TestRedecomposeMatchesNew(t *testing.T) {
	const nmesh, n = 32, 600
	rcut := 3.0 / nmesh
	// A domain wider than 0.75 of the box (24 cells + 2·4 ghosts) has a
	// window clamped to the whole axis; narrow ones next to 0 or 1 wrap.
	splits := [][3]float64{
		{0.5, 0.5, 0.5}, {0.8, 0.3, 0.6}, {0.3, 0.85, 0.2}, {0.12, 0.5, 0.9}, {0.9, 0.1, 0.45}, {0.5, 0.5, 0.5},
	}
	rng := rand.New(rand.NewSource(11))
	x, y, z, m := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i], z[i], m[i] = rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()+0.5
	}
	for name, cfg := range map[string]Config{
		"naive":  {N: nmesh, L: 1, G: 1, Rcut: rcut, NFFT: 4},
		"relay":  {N: nmesh, L: 1, G: 1, Rcut: rcut, NFFT: 4, Relay: true, Groups: 2},
		"pencil": {N: nmesh, L: 1, G: 1, Rcut: rcut, Pencil: true, PY: 2, PZ: 2},
	} {
		t.Run(name, func(t *testing.T) {
			err := mpi.Run(8, func(c *mpi.Comm) {
				lo, hi := splitGeometry(0.4, 0.6, 0.5).Bounds(c.Rank())
				kept, err := New(c, cfg, lo, hi)
				if err != nil {
					panic(err)
				}
				for step, sp := range splits {
					geo := splitGeometry(sp[0], sp[1], sp[2])
					var lx, ly, lz, lm []float64
					for i := range x {
						if geo.Find(vec.V3{X: x[i], Y: y[i], Z: z[i]}) == c.Rank() {
							lx, ly, lz, lm = append(lx, x[i]), append(ly, y[i]), append(lz, z[i]), append(lm, m[i])
						}
					}
					solve := func(s *Solver) [3][]float64 {
						var a [3][]float64
						for d := range a {
							a[d] = make([]float64, len(lx))
						}
						s.Accel(lx, ly, lz, lm, a[0], a[1], a[2])
						return a
					}

					poison(kept)
					kept.Redecompose(geo.Bounds)
					got := solve(kept)

					lo, hi := geo.Bounds(c.Rank())
					fresh, err := New(c, cfg, lo, hi)
					if err != nil {
						panic(err)
					}
					want := solve(fresh)

					for d := range got {
						if !sameBits(got[d], want[d]) {
							t.Errorf("rank %d, decomposition %d: force component %d differs from a new solver's", c.Rank(), step, d)
						}
					}
					k, f := kept.lm, fresh.lm
					if [6]int{k.X0, k.NX, k.Y0, k.NY, k.Z0, k.NZ} != [6]int{f.X0, f.NX, f.Y0, f.NY, f.Z0, f.NZ} {
						t.Fatalf("rank %d, decomposition %d: window differs from a new solver's", c.Rank(), step)
					}
					for name, pair := range map[string][2][]float64{
						"Rho": {k.Rho, f.Rho}, "Phi": {k.Phi, f.Phi}, "Fx": {k.Fx, f.Fx}, "Fy": {k.Fy, f.Fy}, "Fz": {k.Fz, f.Fz},
					} {
						if !sameBits(pair[0], pair[1]) {
							t.Errorf("rank %d, decomposition %d: mesh array %s differs from a new solver's", c.Rank(), step, name)
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRedecomposeWhilePendingPanics(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) {
		geo := domain.Uniform(2, 1, 1, 1)
		lo, hi := geo.Bounds(c.Rank())
		s, err := New(c, Config{N: 16, L: 1, G: 1, Rcut: 3.0 / 16, NFFT: 2}, lo, hi)
		if err != nil {
			panic(err)
		}
		s.AccelStart(nil, nil, nil, nil)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d: Redecompose with a solve in flight did not panic", c.Rank())
				}
			}()
			s.Redecompose(geo.Bounds)
		}()
		s.AccelWait(nil, nil, nil, nil, nil, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}
