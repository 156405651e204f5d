package sim

import (
	"math"
	"slices"
	"testing"

	"greem/internal/mpi"
	"greem/internal/tree"
)

func TestGhostExchangeShiftsAndSelection(t *testing.T) {
	// Both exchange paths must produce the identical selection here: at four
	// particles every LET walk bottoms out in leaves, so the per-particle
	// periodic rcut filter is the whole story on either path.
	for _, let := range []bool{false, true} {
		t.Run(map[bool]string{false: "raw", true: "let"}[let], func(t *testing.T) {
			testGhostExchangeShiftsAndSelection(t, let)
		})
	}
}

func testGhostExchangeShiftsAndSelection(t *testing.T, let bool) {
	// Two ranks split the unit box at x = 0.5. A particle at x = 0.98 on
	// rank 1 lies within rcut = 0.1 of rank 0's domain only through the
	// periodic boundary, so rank 0 must receive it shifted to x = −0.02.
	parts := []Particle{
		{X: 0.98, Y: 0.5, Z: 0.5, M: 1, ID: 0},   // near the wrap boundary
		{X: 0.52, Y: 0.5, Z: 0.5, M: 2, ID: 1},   // near the internal boundary
		{X: 0.75, Y: 0.5, Z: 0.5, M: 3, ID: 2},   // interior of rank 1
		{X: 0.25, Y: 0.25, Z: 0.25, M: 4, ID: 3}, // interior of rank 0
	}
	err := mpi.Run(2, func(c *mpi.Comm) {
		cfg := baseConfig([3]int{2, 1, 1})
		cfg.NMesh = 16
		cfg.Rcut = 0.1
		var mine []Particle
		if c.Rank() == 0 {
			mine = parts
		}
		s, err := New(c, cfg, mine)
		if err != nil {
			panic(err)
		}
		s.oracle.rawGhosts = !let
		lt, err := tree.Build(s.x, s.y, s.z, s.m, tree.Options{LeafCap: cfg.LeafCap})
		if err != nil {
			panic(err)
		}
		ghosts := slices.Concat(s.exchangeGhosts(lt)...)
		if c.Rank() == 0 {
			// Rank 0 must see ID 0 at x ≈ −0.02 and ID 1 at x = 0.52;
			// ID 2 at 0.75 is farther than rcut from [0, 0.5).
			if len(ghosts) != 2 {
				t.Errorf("rank 0 got %d ghosts: %+v", len(ghosts), ghosts)
			}
			var sawWrapped, sawInternal bool
			for _, g := range ghosts {
				if math.Abs(g.X+0.02) < 1e-12 && g.M == 1 {
					sawWrapped = true
				}
				if math.Abs(g.X-0.52) < 1e-12 && g.M == 2 {
					sawInternal = true
				}
			}
			if !sawWrapped {
				t.Errorf("wrapped ghost missing or unshifted: %+v", ghosts)
			}
			if !sawInternal {
				t.Errorf("internal-boundary ghost missing: %+v", ghosts)
			}
		} else {
			// Rank 1 must see ID 3? x = 0.25 is 0.25 from [0.5, 1) — outside
			// rcut both ways; only the rank-0 boundary region would qualify,
			// and there is none within 0.1 of 0.5 except... ID 3 at 0.25: no.
			for _, g := range ghosts {
				if g.M == 4 {
					t.Errorf("rank 1 received distant particle as ghost: %+v", g)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBestShift(t *testing.T) {
	// Point at 0.98, interval [0, 0.5): the image at −0.02 is closest.
	sh, d := bestShift(0.98, 0, 0.5, 1)
	if sh != -1 || math.Abs(d-0.0) > 1e-12 {
		// −0.02 lies below 0 ⇒ distance 0.02 to the interval start.
		if sh != -1 || math.Abs(d-0.02) > 1e-12 {
			t.Errorf("bestShift(0.98) = %v, %v", sh, d)
		}
	}
	// Point inside the interval: zero shift, zero distance.
	sh, d = bestShift(0.3, 0, 0.5, 1)
	if sh != 0 || d != 0 {
		t.Errorf("bestShift(0.3) = %v, %v", sh, d)
	}
}
