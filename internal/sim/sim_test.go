package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"greem/internal/ewald"
	"greem/internal/mpi"
	"greem/internal/treepm"
)

// makeParticles builds n random particles with IDs 0..n−1 assigned to ranks
// by slicing (sim redistributes on construction anyway).
func makeParticles(seed int64, n int, vscale float64) []Particle {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Particle, n)
	for i := range out {
		out[i] = Particle{
			X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64(),
			VX: vscale * rng.NormFloat64(), VY: vscale * rng.NormFloat64(), VZ: vscale * rng.NormFloat64(),
			M: 1.0 / float64(n), ID: int64(i),
		}
	}
	return out
}

func sliceFor(parts []Particle, rank, size int) []Particle {
	n := len(parts)
	lo := rank * n / size
	hi := (rank + 1) * n / size
	return parts[lo:hi]
}

func baseConfig(grid [3]int) Config {
	return Config{
		L: 1, G: 1,
		NMesh: 16, Theta: 0.3, Ni: 32, Eps2: 1e-9,
		Grid: grid, DT: 0.01,
	}
}

func TestForcesMatchSerialTreePM(t *testing.T) {
	n := 300
	parts := makeParticles(1, n, 0)
	cfg := baseConfig([3]int{2, 2, 2})

	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)
	err := mpi.Run(8, func(c *mpi.Comm) {
		s, err := New(c, cfg, sliceFor(parts, c.Rank(), 8))
		if err != nil {
			panic(err)
		}
		s.ComputeForces()
		c.Barrier()
		for i := 0; i < s.NumLocal(); i++ {
			fx, fy, fz := s.AccelFor(i)
			id := s.ID(i)
			ax[id], ay[id], az[id] = fx, fy, fz
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	solver, err := treepm.New(treepm.Config{L: 1, G: 1, NMesh: cfg.NMesh, Theta: cfg.Theta, Ni: cfg.Ni, Eps2: cfg.Eps2})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	m := make([]float64, n)
	for _, p := range parts {
		x[p.ID], y[p.ID], z[p.ID], m[p.ID] = p.X, p.Y, p.Z, p.M
	}
	rx := make([]float64, n)
	ry := make([]float64, n)
	rz := make([]float64, n)
	if _, err := solver.Accel(x, y, z, m, rx, ry, rz); err != nil {
		t.Fatal(err)
	}
	var e2, r2 float64
	for i := 0; i < n; i++ {
		dx := ax[i] - rx[i]
		dy := ay[i] - ry[i]
		dz := az[i] - rz[i]
		e2 += dx*dx + dy*dy + dz*dz
		r2 += rx[i]*rx[i] + ry[i]*ry[i] + rz[i]*rz[i]
	}
	rms := math.Sqrt(e2 / r2)
	t.Logf("parallel vs serial TreePM RMS: %.3e", rms)
	// The PM parts are identical; only the tree decomposition differs
	// (local+ghost trees vs one global tree), bounded by the θ-error.
	if rms > 0.01 {
		t.Errorf("parallel forces differ from serial TreePM: RMS %v", rms)
	}
}

func TestSinglevsMultiRankForces(t *testing.T) {
	n := 200
	parts := makeParticles(2, n, 0)
	force := func(p int, grid [3]int) ([]float64, []float64, []float64) {
		cfg := baseConfig(grid)
		ax := make([]float64, n)
		ay := make([]float64, n)
		az := make([]float64, n)
		err := mpi.Run(p, func(c *mpi.Comm) {
			s, err := New(c, cfg, sliceFor(parts, c.Rank(), p))
			if err != nil {
				panic(err)
			}
			s.ComputeForces()
			c.Barrier()
			for i := 0; i < s.NumLocal(); i++ {
				fx, fy, fz := s.AccelFor(i)
				id := s.ID(i)
				ax[id], ay[id], az[id] = fx, fy, fz
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return ax, ay, az
	}
	a1x, a1y, a1z := force(1, [3]int{1, 1, 1})
	a8x, a8y, a8z := force(8, [3]int{2, 2, 2})
	var e2, r2 float64
	for i := 0; i < n; i++ {
		dx := a1x[i] - a8x[i]
		dy := a1y[i] - a8y[i]
		dz := a1z[i] - a8z[i]
		e2 += dx*dx + dy*dy + dz*dz
		r2 += a1x[i]*a1x[i] + a1y[i]*a1y[i] + a1z[i]*a1z[i]
	}
	rms := math.Sqrt(e2 / r2)
	t.Logf("p=1 vs p=8 RMS: %.3e", rms)
	if rms > 0.01 {
		t.Errorf("rank counts disagree: RMS %v", rms)
	}
}

func TestParticleBookkeepingAcrossSteps(t *testing.T) {
	n := 200
	parts := makeParticles(3, n, 0.05)
	cfg := baseConfig([3]int{2, 2, 1})
	cfg.DT = 0.02
	err := mpi.Run(4, func(c *mpi.Comm) {
		s, err := New(c, cfg, sliceFor(parts, c.Rank(), 4))
		if err != nil {
			panic(err)
		}
		for step := 0; step < 3; step++ {
			if err := s.Step(); err != nil {
				panic(err)
			}
		}
		all := s.GatherAll(0)
		if c.Rank() == 0 {
			if len(all) != n {
				t.Errorf("particle count %d, want %d", len(all), n)
			}
			ids := make([]int, 0, len(all))
			for _, p := range all {
				ids = append(ids, int(p.ID))
				if p.X < 0 || p.X >= 1 || p.Y < 0 || p.Y >= 1 || p.Z < 0 || p.Z >= 1 {
					t.Errorf("particle %d outside box: (%v,%v,%v)", p.ID, p.X, p.Y, p.Z)
				}
			}
			sort.Ints(ids)
			for i, id := range ids {
				if id != i {
					t.Fatalf("IDs not a permutation (at %d: %d)", i, id)
				}
			}
		}
		if s.StepIndex() != 3 {
			t.Errorf("StepIndex = %d", s.StepIndex())
		}
		if s.Time() <= cfg.Time {
			t.Errorf("time did not advance: %v", s.Time())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMomentumConservedAcrossSteps(t *testing.T) {
	n := 150
	parts := makeParticles(4, n, 0.02)
	cfg := baseConfig([3]int{2, 2, 1})
	cfg.Eps2 = 1e-8
	err := mpi.Run(4, func(c *mpi.Comm) {
		s, err := New(c, cfg, sliceFor(parts, c.Rank(), 4))
		if err != nil {
			panic(err)
		}
		mom := func() [3]float64 {
			var px, py, pz float64
			for i := range s.vx {
				px += s.m[i] * s.vx[i]
				py += s.m[i] * s.vy[i]
				pz += s.m[i] * s.vz[i]
			}
			return [3]float64{globalSum(s, px), globalSum(s, py), globalSum(s, pz)}
		}
		before := mom()
		for step := 0; step < 3; step++ {
			if err := s.Step(); err != nil {
				panic(err)
			}
		}
		after := mom()
		if c.Rank() == 0 {
			drift := math.Abs(after[0]-before[0]) + math.Abs(after[1]-before[1]) + math.Abs(after[2]-before[2])
			// Scale: typical |a|·dt·Σm ≈ a few; require small drift.
			if drift > 2e-3 {
				t.Errorf("momentum drift %v (before %v after %v)", drift, before, after)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEnergyConservationStatic(t *testing.T) {
	// KDK leapfrog with the TreePM force in a static box: total energy
	// (kinetic + exact Ewald potential) must be stable over many steps. A
	// perturbed lattice avoids close encounters, so the fixed step size is
	// well inside the stability region and any drift exposes integrator or
	// force-consistency bugs rather than unresolved binaries.
	rng := rand.New(rand.NewSource(5))
	n := 64
	parts := make([]Particle, 0, n)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 4; k++ {
				parts = append(parts, Particle{
					X:  (float64(i) + 0.5 + 0.2*rng.Float64()) / 4,
					Y:  (float64(j) + 0.5 + 0.2*rng.Float64()) / 4,
					Z:  (float64(k) + 0.5 + 0.2*rng.Float64()) / 4,
					VX: 0.02 * rng.NormFloat64(), VY: 0.02 * rng.NormFloat64(), VZ: 0.02 * rng.NormFloat64(),
					M: 1.0 / float64(n), ID: int64(len(parts)),
				})
			}
		}
	}
	cfg := baseConfig([3]int{2, 1, 1})
	cfg.NMesh = 16
	cfg.Theta = 0.3
	cfg.DT = 0.02
	cfg.Eps2 = 1e-10

	ew := ewald.New(1, 1)
	energyOf := func(all []Particle) float64 {
		x := make([]float64, len(all))
		y := make([]float64, len(all))
		z := make([]float64, len(all))
		m := make([]float64, len(all))
		kin := 0.0
		for i, p := range all {
			x[i], y[i], z[i], m[i] = p.X, p.Y, p.Z, p.M
			kin += 0.5 * p.M * (p.VX*p.VX + p.VY*p.VY + p.VZ*p.VZ)
		}
		return kin + ew.Energy(x, y, z, m)
	}

	var e0, e1 float64
	err := mpi.Run(2, func(c *mpi.Comm) {
		s, err := New(c, cfg, sliceFor(parts, c.Rank(), 2))
		if err != nil {
			panic(err)
		}
		all := s.GatherAll(0)
		if c.Rank() == 0 {
			e0 = energyOf(all)
		}
		for step := 0; step < 10; step++ {
			if err := s.Step(); err != nil {
				panic(err)
			}
		}
		all = s.GatherAll(0)
		if c.Rank() == 0 {
			e1 = energyOf(all)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(e1-e0) / math.Abs(e0)
	t.Logf("E0 = %v, E10 = %v, drift %.3e", e0, e1, rel)
	if rel > 0.02 {
		t.Errorf("energy drift %v over 10 steps", rel)
	}
}

func TestTimersAndCountersPopulated(t *testing.T) {
	n := 100
	parts := makeParticles(6, n, 0)
	cfg := baseConfig([3]int{2, 1, 1})
	err := mpi.Run(2, func(c *mpi.Comm) {
		s, err := New(c, cfg, sliceFor(parts, c.Rank(), 2))
		if err != nil {
			panic(err)
		}
		if err := s.Step(); err != nil {
			panic(err)
		}
		tm := s.Timers()
		if tm.PM.Total() <= 0 {
			t.Errorf("rank %d: PM timers empty", c.Rank())
		}
		if tm.PPForce <= 0 || tm.PPTreeConstr <= 0 {
			t.Errorf("rank %d: PP timers empty: %+v", c.Rank(), tm)
		}
		if tm.DDSampling <= 0 || tm.DDExchange <= 0 {
			t.Errorf("rank %d: DD timers empty", c.Rank())
		}
		ni, nj := s.MeanNiNj()
		if ni <= 0 || nj <= 0 {
			t.Errorf("counters empty: ni=%v nj=%v", ni, nj)
		}
		if s.InteractionsPerStep() <= 0 {
			t.Error("no interactions counted")
		}
		if s.Kinetic() < 0 {
			t.Error("negative kinetic energy")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLoadBalanceAdaptsToCluster(t *testing.T) {
	// Strongly clustered distribution: after a few DD cycles the per-rank
	// particle counts must be far more even than under the static uniform
	// decomposition.
	rng := rand.New(rand.NewSource(7))
	n := 2000
	parts := make([]Particle, n)
	for i := range parts {
		var x, y, z float64
		if i%4 == 0 {
			x, y, z = rng.Float64(), rng.Float64(), rng.Float64()
		} else {
			x = math.Mod(0.3+0.03*rng.NormFloat64()+1, 1)
			y = math.Mod(0.7+0.03*rng.NormFloat64()+1, 1)
			z = math.Mod(0.5+0.03*rng.NormFloat64()+1, 1)
		}
		parts[i] = Particle{X: x, Y: y, Z: z, M: 1.0 / float64(n), ID: int64(i)}
	}
	cfg := baseConfig([3]int{2, 2, 2})
	cfg.SampleTotal = 2048
	err := mpi.Run(8, func(c *mpi.Comm) {
		s, err := New(c, cfg, sliceFor(parts, c.Rank(), 8))
		if err != nil {
			panic(err)
		}
		startCounts := mpi.Allgather(c, []int{s.NumLocal()})
		for i := 0; i < 2; i++ {
			if err := s.Step(); err != nil {
				panic(err)
			}
		}
		endCounts := mpi.Allgather(c, []int{s.NumLocal()})
		if c.Rank() == 0 {
			imb := func(cs [][]int) float64 {
				max, sum := 0, 0
				for _, v := range cs {
					if v[0] > max {
						max = v[0]
					}
					sum += v[0]
				}
				return float64(max) * 8 / float64(sum)
			}
			i0, i1 := imb(startCounts), imb(endCounts)
			t.Logf("count imbalance: uniform %.2f → adaptive %.2f", i0, i1)
			if i1 > i0 {
				t.Errorf("decomposition did not improve balance: %v → %v", i0, i1)
			}
			if i1 > 2.0 {
				t.Errorf("adaptive imbalance still %v", i1)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) {
		bad := baseConfig([3]int{3, 1, 1}) // grid ≠ ranks
		if _, err := New(c, bad, nil); err == nil {
			panic("grid mismatch accepted")
		}
		bad = baseConfig([3]int{2, 1, 1})
		bad.DT = 0
		if _, err := New(c, bad, nil); err == nil {
			panic("DT=0 accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRelayModeMatchesNaiveInSim(t *testing.T) {
	n := 200
	parts := makeParticles(8, n, 0)
	run := func(relay bool) ([]float64, []float64, []float64) {
		cfg := baseConfig([3]int{2, 2, 2})
		cfg.NFFT = 4
		cfg.Relay = relay
		cfg.Groups = 2
		ax := make([]float64, n)
		ay := make([]float64, n)
		az := make([]float64, n)
		err := mpi.Run(8, func(c *mpi.Comm) {
			s, err := New(c, cfg, sliceFor(parts, c.Rank(), 8))
			if err != nil {
				panic(err)
			}
			s.ComputeForces()
			c.Barrier()
			for i := 0; i < s.NumLocal(); i++ {
				fx, fy, fz := s.AccelFor(i)
				ax[s.ID(i)], ay[s.ID(i)], az[s.ID(i)] = fx, fy, fz
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return ax, ay, az
	}
	nx, ny, nz := run(false)
	rx, ry, rz := run(true)
	for i := 0; i < n; i++ {
		if math.Abs(nx[i]-rx[i])+math.Abs(ny[i]-ry[i])+math.Abs(nz[i]-rz[i]) > 1e-9 {
			t.Fatalf("relay and naive disagree at particle %d", i)
		}
	}
}

func TestPencilFFTModeInSim(t *testing.T) {
	// §IV future work wired through the full driver: forces identical to the
	// slab-FFT configuration.
	n := 150
	parts := makeParticles(9, n, 0)
	run := func(pencil bool) ([]float64, []float64, []float64) {
		cfg := baseConfig([3]int{2, 2, 2})
		if pencil {
			cfg.Pencil = true
			cfg.PY, cfg.PZ = 2, 2
		} else {
			cfg.NFFT = 4
		}
		ax := make([]float64, n)
		ay := make([]float64, n)
		az := make([]float64, n)
		err := mpi.Run(8, func(c *mpi.Comm) {
			s, err := New(c, cfg, sliceFor(parts, c.Rank(), 8))
			if err != nil {
				panic(err)
			}
			s.ComputeForces()
			c.Barrier()
			for i := 0; i < s.NumLocal(); i++ {
				fx, fy, fz := s.AccelFor(i)
				ax[s.ID(i)], ay[s.ID(i)], az[s.ID(i)] = fx, fy, fz
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return ax, ay, az
	}
	sx, sy, sz := run(false)
	px, py, pz := run(true)
	for i := 0; i < n; i++ {
		if math.Abs(sx[i]-px[i])+math.Abs(sy[i]-py[i])+math.Abs(sz[i]-pz[i]) > 1e-9 {
			t.Fatalf("pencil and slab FFT disagree at particle %d", i)
		}
	}
}

func TestSubstepsAblation(t *testing.T) {
	// The multiple-stepsize ablation: 1 PP cycle per PM step vs the paper's
	// 2. Both must conserve energy-adjacent invariants (here: momentum and
	// bookkeeping); cost differs (2 substeps evaluate PP twice per step).
	n := 100
	parts := makeParticles(10, n, 0.02)
	for _, sub := range []int{1, 2, 4} {
		cfg := baseConfig([3]int{2, 1, 1})
		cfg.Substeps = sub
		err := mpi.Run(2, func(c *mpi.Comm) {
			s, err := New(c, cfg, sliceFor(parts, c.Rank(), 2))
			if err != nil {
				panic(err)
			}
			if err := s.Step(); err != nil {
				panic(err)
			}
			groups := mpi.Allreduce(c, []int{s.Counters().Tree.Groups}, mpi.Sum[int])[0]
			if groups == 0 {
				t.Errorf("substeps=%d: no PP work recorded", sub)
			}
			if s.Time() <= cfg.Time {
				t.Errorf("substeps=%d: time did not advance", sub)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestWorkersInSimMatchSerial(t *testing.T) {
	n := 200
	parts := makeParticles(11, n, 0)
	run := func(workers int) []float64 {
		cfg := baseConfig([3]int{2, 1, 1})
		cfg.Workers = workers
		ax := make([]float64, n)
		err := mpi.Run(2, func(c *mpi.Comm) {
			s, err := New(c, cfg, sliceFor(parts, c.Rank(), 2))
			if err != nil {
				panic(err)
			}
			s.ComputeForces()
			c.Barrier()
			for i := 0; i < s.NumLocal(); i++ {
				fx, _, _ := s.AccelFor(i)
				ax[s.ID(i)] = fx
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return ax
	}
	a1 := run(1)
	a4 := run(4)
	for i := range a1 {
		if a1[i] != a4[i] {
			t.Fatalf("threaded sim differs at %d", i)
		}
	}
}

func TestPotentialEnergyTracksEwald(t *testing.T) {
	// The O(N log N) diagnostic (tree short-range potential + PM mesh
	// potential) must track the exact Ewald potential energy: the *change*
	// across steps is what matters (the mesh term carries a constant
	// self-energy offset).
	// A strongly evolving random system so the physical ΔU dominates the
	// mesh self-energy jitter (each particle's own-cloud potential varies at
	// the ~0.1% level as it crosses cells — inherent to mesh codes, which is
	// why production codes track energy via drift, not absolute values).
	n := 64
	parts := makeParticles(31, n, 0.15)
	cfg := baseConfig([3]int{2, 1, 1})
	cfg.NMesh = 32
	cfg.Eps2 = 1e-6
	cfg.DT = 0.03

	ew := ewald.New(1, 1)
	exactPot := func(all []Particle) float64 {
		x := make([]float64, len(all))
		y := make([]float64, len(all))
		z := make([]float64, len(all))
		m := make([]float64, len(all))
		for i, p := range all {
			x[i], y[i], z[i], m[i] = p.X, p.Y, p.Z, p.M
		}
		return ew.Energy(x, y, z, m)
	}

	var dDiag, dExact float64
	err := mpi.Run(2, func(c *mpi.Comm) {
		s, err := New(c, cfg, sliceFor(parts, c.Rank(), 2))
		if err != nil {
			panic(err)
		}
		s.ComputeForces()
		u0 := s.PotentialEnergy()
		all0 := s.GatherAll(0)
		for i := 0; i < 8; i++ {
			if err := s.Step(); err != nil {
				panic(err)
			}
		}
		u1 := s.PotentialEnergy()
		all1 := s.GatherAll(0)
		if c.Rank() == 0 {
			dDiag = u1 - u0
			dExact = exactPot(all1) - exactPot(all0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ΔU diagnostic %.4e vs exact %.4e", dDiag, dExact)
	scale := math.Max(math.Abs(dExact), 1e-4)
	if math.Abs(dDiag-dExact) > 0.2*scale {
		t.Errorf("potential-energy drift mismatch: diagnostic %v vs exact %v", dDiag, dExact)
	}
}

func TestTableIShapeAtLaptopScale(t *testing.T) {
	// The transferable Table I claim: the PP force kernel is the dominant
	// phase of the step, and within PP it dwarfs construction and local
	// bookkeeping — on any machine, at any scale. (Traversal and kernel are
	// machine-dependent in ratio; both must dominate construction.)
	//
	// The claim is about the paper's regime — clustered particles, long
	// interaction lists — and about the machine, not one rank's scheduling
	// luck, so the set is a Plummer sphere and the phase seconds are summed
	// over ranks. The float32 SIMD kernel is 12.6× faster than the float64
	// unrolled loop this test used to run (PR 7: 1.01 vs 12.76
	// ns/interaction), which on a uniform 6000-particle set left a per-rank
	// margin of ~5× — less than one preemption inside a construction span on
	// a timeshared host. Measured here: summed ratio ≥ 3.5 over 80 runs.
	if testing.Short() {
		t.Skip("multi-step run")
	}
	parts := plummerParticles(40, 6000, 0.05)
	cfg := baseConfig([3]int{2, 2, 1})
	cfg.NMesh = 16
	cfg.Theta = 0.5
	cfg.Ni = 100
	var work, constr, local [4]float64 // per-rank phase seconds
	err := mpi.Run(4, func(c *mpi.Comm) {
		s, err := New(c, cfg, sliceFor(parts, c.Rank(), 4))
		if err != nil {
			panic(err)
		}
		for i := 0; i < 2; i++ {
			if err := s.Step(); err != nil {
				panic(err)
			}
		}
		tm := s.Timers()
		if tm.PPForce <= 0 {
			t.Errorf("rank %d: no kernel time recorded", c.Rank())
		}
		work[c.Rank()], constr[c.Rank()], local[c.Rank()] = tm.PPForce+tm.PPTraverse, tm.PPTreeConstr, tm.PPLocalTree
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(v [4]float64) float64 { return v[0] + v[1] + v[2] + v[3] }
	if sum(work) <= sum(constr) {
		t.Errorf("PP force+traversal (%v) should dominate construction (%v)", work, constr)
	}
	if sum(work) <= sum(local) {
		t.Errorf("PP work (%v) below local bookkeeping (%v)", work, local)
	}
}
