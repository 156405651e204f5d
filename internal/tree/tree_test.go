package tree

import (
	"math"
	"math/rand"
	"testing"

	"greem/internal/direct"
)

func randParticles(rng *rand.Rand, n int) (x, y, z, m []float64) {
	x = make([]float64, n)
	y = make([]float64, n)
	z = make([]float64, n)
	m = make([]float64, n)
	for i := 0; i < n; i++ {
		x[i], y[i], z[i] = rng.Float64(), rng.Float64(), rng.Float64()
		m[i] = rng.Float64() + 0.5
	}
	return
}

// plummer generates a centrally concentrated distribution (clustered like
// collapsed dark-matter structures).
func plummer(rng *rand.Rand, n int, scale float64) (x, y, z, m []float64) {
	x = make([]float64, n)
	y = make([]float64, n)
	z = make([]float64, n)
	m = make([]float64, n)
	for i := 0; i < n; i++ {
		r := scale / math.Sqrt(math.Pow(rng.Float64()*0.99+1e-6, -2.0/3.0)-1)
		ct := 2*rng.Float64() - 1
		st := math.Sqrt(1 - ct*ct)
		ph := 2 * math.Pi * rng.Float64()
		x[i] = 0.5 + r*st*math.Cos(ph)
		y[i] = 0.5 + r*st*math.Sin(ph)
		z[i] = 0.5 + r*ct
		m[i] = 1.0 / float64(n)
	}
	return
}

func TestBuildBasicInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y, z, m := randParticles(rng, 500)
	tr, err := Build(x, y, z, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumParticles() != 500 {
		t.Errorf("NumParticles = %d", tr.NumParticles())
	}
	var want float64
	for _, v := range m {
		want += v
	}
	if math.Abs(tr.TotalMass()-want) > 1e-10 {
		t.Errorf("TotalMass = %v, want %v", tr.TotalMass(), want)
	}
	// Perm must be a permutation and tree-order data must match originals.
	seen := make([]bool, 500)
	for i, p := range tr.Perm {
		if seen[p] {
			t.Fatalf("Perm repeats index %d", p)
		}
		seen[p] = true
		if tr.X[i] != x[p] || tr.Y[i] != y[p] || tr.Z[i] != z[p] || tr.M[i] != m[p] {
			t.Fatalf("tree-order particle %d does not match original %d", i, p)
		}
	}
}

func TestBuildEmptyAndSingle(t *testing.T) {
	tr, err := Build(nil, nil, nil, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumParticles() != 0 {
		t.Error("empty tree has particles")
	}
	tr, err = Build([]float64{0.5}, []float64{0.5}, []float64{0.5}, []float64{2}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalMass() != 2 {
		t.Errorf("single mass = %v", tr.TotalMass())
	}
}

func TestBuildCoincidentParticles(t *testing.T) {
	// All particles at the same point must not recurse forever (MaxDepth).
	n := 50
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	m := make([]float64, n)
	for i := range x {
		x[i], y[i], z[i], m[i] = 0.3, 0.3, 0.3, 1
	}
	tr, err := Build(x, y, z, m, Options{LeafCap: 4, MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalMass() != 50 {
		t.Errorf("mass = %v", tr.TotalMass())
	}
}

func TestBuildMismatchedLengths(t *testing.T) {
	if _, err := Build(make([]float64, 3), make([]float64, 2), make([]float64, 3), make([]float64, 3), DefaultOptions()); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestGroupsCoverAllParticlesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y, z, m := randParticles(rng, 777)
	tr, _ := Build(x, y, z, m, DefaultOptions())
	for _, cap := range []int{1, 8, 64, 1000} {
		groups := tr.Groups(cap)
		covered := make([]bool, 777)
		for _, g := range groups {
			if int(g.Count) > cap && cap >= 1 {
				t.Errorf("cap=%d: group of size %d", cap, g.Count)
			}
			for p := g.Start; p < g.Start+g.Count; p++ {
				if covered[p] {
					t.Fatalf("particle %d in two groups", p)
				}
				covered[p] = true
				if tr.X[p] < g.MinX || tr.X[p] > g.MaxX ||
					tr.Y[p] < g.MinY || tr.Y[p] > g.MaxY ||
					tr.Z[p] < g.MinZ || tr.Z[p] > g.MaxZ {
					t.Fatalf("particle outside its group box")
				}
			}
		}
		for p, ok := range covered {
			if !ok {
				t.Fatalf("cap=%d: particle %d not covered", cap, p)
			}
		}
	}
}

func TestAccelPlainMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y, z, m := plummer(rng, 600, 0.05)
	tr, _ := Build(x, y, z, m, DefaultOptions())
	n := len(x)

	dirX := make([]float64, n)
	dirY := make([]float64, n)
	dirZ := make([]float64, n)
	direct.AccelPlain(x, y, z, m, 1, 1e-8, dirX, dirY, dirZ)

	for _, theta := range []float64{0.2, 0.5, 0.8} {
		ax := make([]float64, n)
		ay := make([]float64, n)
		az := make([]float64, n)
		st := Accel(tr, tr, 32, ForceOpts{G: 1, Theta: theta, Eps2: 1e-8}, ax, ay, az)
		var e2, r2 float64
		for i := 0; i < n; i++ {
			dx := ax[i] - dirX[i]
			dy := ay[i] - dirY[i]
			dz := az[i] - dirZ[i]
			e2 += dx*dx + dy*dy + dz*dz
			r2 += dirX[i]*dirX[i] + dirY[i]*dirY[i] + dirZ[i]*dirZ[i]
		}
		rms := math.Sqrt(e2 / r2)
		// Monopole BH error scales roughly like θ²; generous envelopes.
		bound := 0.05 * theta * theta
		if theta == 0.2 {
			bound = 0.005 // small-θ regime dominated by rare marginal cells
		}
		if rms > bound {
			t.Errorf("θ=%v: RMS error %v > %v", theta, rms, bound)
		}
		if st.Groups == 0 || st.Interactions == 0 {
			t.Errorf("θ=%v: empty stats %+v", theta, st)
		}
	}
}

func TestAccelThetaZeroIsExact(t *testing.T) {
	// θ = 0 forbids multipole acceptance entirely: pure direct summation.
	rng := rand.New(rand.NewSource(4))
	x, y, z, m := randParticles(rng, 200)
	tr, _ := Build(x, y, z, m, DefaultOptions())
	n := len(x)
	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)
	st := Accel(tr, tr, 16, ForceOpts{G: 1, Theta: 0, Eps2: 1e-9}, ax, ay, az)
	if st.ListNodes != 0 {
		t.Errorf("θ=0 accepted %d multipoles", st.ListNodes)
	}
	dirX := make([]float64, n)
	dirY := make([]float64, n)
	dirZ := make([]float64, n)
	direct.AccelPlain(x, y, z, m, 1, 1e-9, dirX, dirY, dirZ)
	for i := 0; i < n; i++ {
		if math.Abs(ax[i]-dirX[i]) > 1e-9*(1+math.Abs(dirX[i])) {
			t.Fatalf("θ=0 differs from direct at %d: %v vs %v", i, ax[i], dirX[i])
		}
	}
}

func TestAccelCutoffMatchesDirectCutoff(t *testing.T) {
	// TreePM short-range mode vs direct cutoff summation, periodic box.
	rng := rand.New(rand.NewSource(5))
	x, y, z, m := randParticles(rng, 400)
	tr, _ := Build(x, y, z, m, DefaultOptions())
	n := len(x)
	l, rcut := 1.0, 0.15

	dirX := make([]float64, n)
	dirY := make([]float64, n)
	dirZ := make([]float64, n)
	direct.AccelCutoff(x, y, z, m, 1, l, rcut, 1e-10, dirX, dirY, dirZ)

	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)
	st := Accel(tr, tr, 32, ForceOpts{
		G: 1, Theta: 0.3, Eps2: 1e-10, Cutoff: true, Rcut: rcut, Periodic: true, L: l,
	}, ax, ay, az)
	var e2, r2 float64
	for i := 0; i < n; i++ {
		dx := ax[i] - dirX[i]
		dy := ay[i] - dirY[i]
		dz := az[i] - dirZ[i]
		e2 += dx*dx + dy*dy + dz*dz
		r2 += dirX[i]*dirX[i] + dirY[i]*dirY[i] + dirZ[i]*dirZ[i]
	}
	rms := math.Sqrt(e2 / r2)
	if rms > 0.005 {
		t.Errorf("cutoff tree vs direct RMS %v", rms)
	}
	if st.MeanNi() <= 0 || st.MeanNj() <= 0 {
		t.Errorf("bad stats: %+v", st)
	}
	t.Logf("cutoff tree RMS %v, ⟨Ni⟩=%.1f ⟨Nj⟩=%.1f", rms, st.MeanNi(), st.MeanNj())
}

func TestCutoffShortensInteractionLists(t *testing.T) {
	// Paper §III-B: the cutoff makes ⟨Nj⟩ much shorter than a pure tree's.
	rng := rand.New(rand.NewSource(6))
	x, y, z, m := randParticles(rng, 3000)
	tr, _ := Build(x, y, z, m, DefaultOptions())
	n := len(x)
	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)
	pure := Accel(tr, tr, 64, ForceOpts{G: 1, Theta: 0.5, Eps2: 1e-10}, ax, ay, az)
	cut := Accel(tr, tr, 64, ForceOpts{G: 1, Theta: 0.5, Eps2: 1e-10, Cutoff: true, Rcut: 0.08, Periodic: true, L: 1}, ax, ay, az)
	if cut.MeanNj() >= pure.MeanNj() {
		t.Errorf("cutoff list (%.1f) not shorter than pure tree list (%.1f)", cut.MeanNj(), pure.MeanNj())
	}
	t.Logf("⟨Nj⟩ pure=%.1f cutoff=%.1f (ratio %.2f)", pure.MeanNj(), cut.MeanNj(), pure.MeanNj()/cut.MeanNj())
}

func TestGroupingReducesTraversalCost(t *testing.T) {
	// Barnes' modified algorithm: traversal node visits per particle drop
	// roughly by ⟨Ni⟩ compared to per-particle traversal, while ⟨Nj⟩ grows.
	rng := rand.New(rand.NewSource(7))
	x, y, z, m := randParticles(rng, 4000)
	tr, _ := Build(x, y, z, m, DefaultOptions())
	n := len(x)
	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)
	per := Accel(tr, tr, 1, ForceOpts{G: 1, Theta: 0.5, Eps2: 1e-10}, ax, ay, az)
	grp := Accel(tr, tr, 128, ForceOpts{G: 1, Theta: 0.5, Eps2: 1e-10}, ax, ay, az)
	if grp.NodesVisited*4 > per.NodesVisited {
		t.Errorf("grouping did not reduce traversal: %d vs %d visits", grp.NodesVisited, per.NodesVisited)
	}
	if grp.MeanNj() < per.MeanNj() {
		t.Errorf("grouped list (%.1f) should be longer than per-particle list (%.1f)", grp.MeanNj(), per.MeanNj())
	}
	t.Logf("visits: per-particle %d, grouped %d; ⟨Nj⟩ %.1f → %.1f",
		per.NodesVisited, grp.NodesVisited, per.MeanNj(), grp.MeanNj())
}

func TestAccelMomentumConservationClustered(t *testing.T) {
	// With θ > 0 the tree force is not exactly antisymmetric, but group
	// self-interactions are direct, so residual momentum drift stays small.
	rng := rand.New(rand.NewSource(8))
	x, y, z, m := plummer(rng, 1000, 0.03)
	tr, _ := Build(x, y, z, m, DefaultOptions())
	n := len(x)
	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)
	Accel(tr, tr, 48, ForceOpts{G: 1, Theta: 0.4, Eps2: 1e-8}, ax, ay, az)
	var px, py, pz, scale float64
	for i := 0; i < n; i++ {
		px += m[i] * ax[i]
		py += m[i] * ay[i]
		pz += m[i] * az[i]
		scale += m[i] * (math.Abs(ax[i]) + math.Abs(ay[i]) + math.Abs(az[i]))
	}
	if (math.Abs(px)+math.Abs(py)+math.Abs(pz))/scale > 1e-3 {
		t.Errorf("momentum drift %v %v %v vs scale %v", px, py, pz, scale)
	}
}

func BenchmarkTreeBuild10k(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x, y, z, m := randParticles(rng, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(x, y, z, m, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeForce10k(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x, y, z, m := randParticles(rng, 10000)
	tr, _ := Build(x, y, z, m, DefaultOptions())
	n := len(x)
	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)
	opt := ForceOpts{G: 1, Theta: 0.5, Eps2: 1e-8, Cutoff: true, Rcut: 0.1, Periodic: true, L: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Accel(tr, tr, 100, opt, ax, ay, az)
	}
}

func TestWorkersMatchSerial(t *testing.T) {
	// The MPI/OpenMP hybrid: multi-goroutine traversal must reproduce the
	// serial result exactly (groups own disjoint outputs).
	rng := rand.New(rand.NewSource(12))
	x, y, z, m := randParticles(rng, 3000)
	tr, _ := Build(x, y, z, m, DefaultOptions())
	n := len(x)
	base := ForceOpts{G: 1, Theta: 0.5, Eps2: 1e-9, Cutoff: true, Rcut: 0.12, Periodic: true, L: 1}
	a1 := make([]float64, n)
	b1 := make([]float64, n)
	c1 := make([]float64, n)
	st1 := Accel(tr, tr, 64, base, a1, b1, c1)
	par := base
	par.Workers = 4
	a2 := make([]float64, n)
	b2 := make([]float64, n)
	c2 := make([]float64, n)
	st2 := Accel(tr, tr, 64, par, a2, b2, c2)
	for i := 0; i < n; i++ {
		if a1[i] != a2[i] || b1[i] != b2[i] || c1[i] != c2[i] {
			t.Fatalf("threaded result differs at %d", i)
		}
	}
	if st1.Interactions != st2.Interactions || st1.Groups != st2.Groups ||
		st1.ListParticles != st2.ListParticles || st1.ListNodes != st2.ListNodes {
		t.Errorf("stats differ: %+v vs %+v", st1, st2)
	}
}

func TestWorkersMoreThanGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x, y, z, m := randParticles(rng, 40)
	tr, _ := Build(x, y, z, m, DefaultOptions())
	ax := make([]float64, 40)
	ay := make([]float64, 40)
	az := make([]float64, 40)
	st := Accel(tr, tr, 1000, ForceOpts{G: 1, Theta: 0.5, Eps2: 1e-9, Workers: 16}, ax, ay, az)
	if st.Groups == 0 {
		t.Error("no groups processed")
	}
}

func TestParallelBuildMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x, y, z, m := plummer(rng, 30000, 0.05)
	serial, err := Build(x, y, z, m, Options{LeafCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build(x, y, z, m, Options{LeafCap: 16, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Identical structure: node count, total mass, root COM, and the exact
	// particle reordering (the same deterministic octant partition runs,
	// just concurrently per subtree).
	if serial.NumNodes() != par.NumNodes() {
		t.Errorf("node counts differ: %d vs %d", serial.NumNodes(), par.NumNodes())
	}
	if serial.TotalMass() != par.TotalMass() {
		t.Errorf("mass differs")
	}
	for i := range serial.Perm {
		if serial.Perm[i] != par.Perm[i] {
			t.Fatalf("particle ordering differs at %d", i)
		}
	}
	// Forces agree to summation-order roundoff.
	n := len(x)
	a1 := make([]float64, n)
	b1 := make([]float64, n)
	c1 := make([]float64, n)
	a2 := make([]float64, n)
	b2 := make([]float64, n)
	c2 := make([]float64, n)
	opt := ForceOpts{G: 1, Theta: 0.5, Eps2: 1e-8}
	Accel(serial, serial, 64, opt, a1, b1, c1)
	Accel(par, par, 64, opt, a2, b2, c2)
	for i := 0; i < n; i++ {
		if math.Abs(a1[i]-a2[i]) > 1e-9*(1+math.Abs(a1[i])) {
			t.Fatalf("forces differ at %d: %v vs %v", i, a1[i], a2[i])
		}
	}
}

func TestParallelBuildSmallFallsBack(t *testing.T) {
	// Small inputs use the serial path; behaviour must be unchanged.
	rng := rand.New(rand.NewSource(15))
	x, y, z, m := randParticles(rng, 500)
	s1, _ := Build(x, y, z, m, Options{LeafCap: 8})
	s2, _ := Build(x, y, z, m, Options{LeafCap: 8, Workers: 8})
	if s1.NumNodes() != s2.NumNodes() {
		t.Errorf("node counts differ: %d vs %d", s1.NumNodes(), s2.NumNodes())
	}
}
