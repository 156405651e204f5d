package sim

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"greem/internal/domain"
	"greem/internal/mpi"
	"greem/internal/vec"
)

// exchangeParticlesRef is the particle exchange's reference oracle — the
// implementation the in-place exchange replaced, kept for what it defines:
// every particle, stayers included, goes through a per-destination AoS list
// and an allocating all-to-all, and the rank's new particles are the received
// lists concatenated in source-rank order. It returns them without touching
// the Sim. Collective.
func exchangeParticlesRef(s *Sim) []Particle {
	send := make([][]Particle, s.comm.Size())
	for i := range s.x {
		pos := vec.Wrap(vec.V3{X: s.x[i], Y: s.y[i], Z: s.z[i]}, s.cfg.L)
		dst := s.geo.Find(pos)
		send[dst] = append(send[dst], Particle{
			X: pos.X, Y: pos.Y, Z: pos.Z,
			VX: s.vx[i], VY: s.vy[i], VZ: s.vz[i],
			M: s.m[i], ID: s.id[i],
		})
	}
	return slices.Concat(mpi.Alltoall(s.comm, send)...)
}

// checkExchange runs the production exchange from the Sim's current particles
// and geometry and requires exactly the reference's particles in exactly the
// reference's order, with zeroed accelerations of matching length. Collective.
func checkExchange(t *testing.T, s *Sim, what string) {
	t.Helper()
	want := exchangeParticlesRef(s)
	if err := s.exchangeParticles(); err != nil {
		t.Errorf("%s: rank %d: %v", what, s.comm.Rank(), err)
		return
	}
	if got := s.Particles(); !slices.Equal(got, want) {
		t.Errorf("%s: rank %d holds %d particles after the exchange, the reference %d, or their order differs", what, s.comm.Rank(), len(got), len(want))
	}
	for _, a := range [][]float64{s.apx, s.apy, s.apz, s.asx, s.asy, s.asz} {
		if len(a) != len(want) || slices.ContainsFunc(a, func(v float64) bool { return v != 0 }) {
			t.Errorf("%s: rank %d: acceleration array of %d elements for %d particles, or not zeroed", what, s.comm.Rank(), len(a), len(want))
		}
	}
}

// jitter moves every local particle by up to ±amp per axis, deterministically
// per rank; positions may leave [0, L), which the exchange must wrap.
func jitter(s *Sim, seed int64, amp float64) {
	rng := rand.New(rand.NewSource(seed + int64(s.comm.Rank())))
	for i := range s.x {
		s.x[i] += amp * (2*rng.Float64() - 1)
		s.y[i] += amp * (2*rng.Float64() - 1)
		s.z[i] += amp * (2*rng.Float64() - 1)
	}
}

// sampledGeometry is a valid non-uniform decomposition drawn from the seed.
func sampledGeometry(seed int64, grid [3]int) *domain.Geometry {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]vec.V3, 400)
	for i := range pts {
		// Cubing skews the samples, hence the boundaries, towards the origin.
		pts[i] = vec.V3{X: math.Pow(rng.Float64(), 3), Y: rng.Float64(), Z: math.Pow(rng.Float64(), 2)}
	}
	geo, err := domain.FromSamples(grid[0], grid[1], grid[2], 1, pts)
	if err != nil {
		panic(err)
	}
	return geo
}

func TestExchangeParticlesMatchesReference(t *testing.T) {
	const p = 4
	grid := [3]int{2, 2, 1}
	parts := makeParticles(5, 400, 0.1)
	err := mpi.Run(p, func(c *mpi.Comm) {
		s, err := New(c, baseConfig(grid), sliceFor(parts, c.Rank(), p))
		if err != nil {
			panic(err)
		}
		checkExchange(t, s, "all stay")

		// Half a box along x puts every particle in the other x slab.
		for i := range s.x {
			s.x[i] += 0.5
		}
		checkExchange(t, s, "all leave")

		// Repeated moves under changing decompositions: staging buffers and
		// particle arrays are reused at sizes that grow and shrink.
		for round := int64(0); round < 6; round++ {
			s.geo = sampledGeometry(100+round, grid)
			jitter(s, round, 0.3)
			checkExchange(t, s, "moving decomposition")
		}

		// Everything into rank 3's domain: three ranks end up empty, then
		// start the next exchange empty.
		s.geo = domain.Uniform(grid[0], grid[1], grid[2], 1)
		for i := range s.x {
			s.x[i], s.y[i] = 0.75, 0.75
		}
		checkExchange(t, s, "emptying ranks")
		if n := s.NumLocal(); (c.Rank() == 3) != (n == len(parts)) || (c.Rank() != 3 && n != 0) {
			t.Errorf("rank %d holds %d particles after all moved to rank 3", c.Rank(), n)
		}
		jitter(s, 9, 0.5)
		checkExchange(t, s, "from empty ranks")
	})
	if err != nil {
		t.Fatal(err)
	}
}

// runWithDeadline fails the test when the ranks do not all leave: a failure
// on one rank must never leave the others waiting in a collective.
func runWithDeadline(t *testing.T, p int, body func(c *mpi.Comm)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- mpi.Run(p, body) }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("ranks still inside the step after 30 s")
		return nil
	}
}

// TestNonFinitePositionFailsTheStep: a NaN or Inf position is a named
// failure on the rank that holds it, and — with the caller failing its rank,
// as every driver does — the world aborts so the peers leave the exchange.
func TestNonFinitePositionFailsTheStep(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		parts := makeParticles(3, 200, 0)
		err := runWithDeadline(t, 4, func(c *mpi.Comm) {
			s, err := New(c, baseConfig([3]int{2, 2, 1}), sliceFor(parts, c.Rank(), 4))
			if err != nil {
				panic(err)
			}
			if err := s.Step(); err != nil {
				panic(err)
			}
			if c.Rank() == 2 {
				s.y[7] = bad
			}
			if err := s.Step(); err != nil {
				panic(err)
			}
			t.Errorf("rank %d: the step went through with a position of %v", c.Rank(), bad)
		})
		var nf *NonFinitePositionError
		if !errors.As(err, &nf) {
			t.Fatalf("position %v: want a NonFinitePositionError, got %v", bad, err)
		}
		if nf.Rank != 2 || nf.Step != 1 || nf.ID < 0 || nf.ID >= int64(len(parts)) {
			t.Errorf("position %v: error names rank %d, particle %d, step %d", bad, nf.Rank, nf.ID, nf.Step)
		}
	}
}

// TestLostParticleFailsTheStep: when the ranks' counts stop adding up to the
// run's particle count, every rank returns the same named error from the
// same step — nobody is left in a collective, no abort needed.
func TestLostParticleFailsTheStep(t *testing.T) {
	parts := makeParticles(4, 200, 0)
	err := runWithDeadline(t, 4, func(c *mpi.Comm) {
		s, err := New(c, baseConfig([3]int{2, 2, 1}), sliceFor(parts, c.Rank(), 4))
		if err != nil {
			panic(err)
		}
		if err := s.Step(); err != nil {
			panic(err)
		}
		if c.Rank() == 1 { // drop the rank's last particle on the floor
			n := len(s.x) - 1
			s.x, s.y, s.z = s.x[:n], s.y[:n], s.z[:n]
			s.vx, s.vy, s.vz = s.vx[:n], s.vy[:n], s.vz[:n]
			s.m, s.id = s.m[:n], s.id[:n]
			s.resizeAccels()
		}
		err = s.Step()
		var lost *ParticleLostError
		if !errors.As(err, &lost) {
			t.Errorf("rank %d: want a ParticleLostError, got %v", c.Rank(), err)
		} else if lost.Have != 199 || lost.Want != 200 || lost.Step != 1 {
			t.Errorf("rank %d: error reports %d of %d particles in step %d", c.Rank(), lost.Have, lost.Want, lost.Step)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
