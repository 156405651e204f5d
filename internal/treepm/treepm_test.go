package treepm

import (
	"math"
	"math/rand"
	"testing"

	"greem/internal/ewald"
)

func randSystem(rng *rand.Rand, n int) (x, y, z, m []float64) {
	x = make([]float64, n)
	y = make([]float64, n)
	z = make([]float64, n)
	m = make([]float64, n)
	for i := 0; i < n; i++ {
		x[i], y[i], z[i] = rng.Float64(), rng.Float64(), rng.Float64()
		m[i] = 1
	}
	return
}

func rmsErr(ax, ay, az, rx, ry, rz []float64) float64 {
	var e2, r2 float64
	for i := range ax {
		dx := ax[i] - rx[i]
		dy := ay[i] - ry[i]
		dz := az[i] - rz[i]
		e2 += dx*dx + dy*dy + dz*dz
		r2 += rx[i]*rx[i] + ry[i]*ry[i] + rz[i]*rz[i]
	}
	return math.Sqrt(e2 / r2)
}

func TestDefaults(t *testing.T) {
	s, err := New(Config{L: 1, G: 1, NMesh: 32})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	if cfg.Rcut != 3.0/32 {
		t.Errorf("default Rcut = %v, want 3/32", cfg.Rcut)
	}
	if cfg.Theta != 0.5 || cfg.Ni != 100 || cfg.LeafCap != 16 {
		t.Errorf("defaults: %+v", cfg)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{L: 0, G: 1, NMesh: 32}); err == nil {
		t.Error("L=0 accepted")
	}
	if _, err := New(Config{L: 1, G: 1, NMesh: 1}); err == nil {
		t.Error("NMesh=1 accepted")
	}
	if _, err := New(Config{L: 1, G: 1, NMesh: 33}); err == nil {
		t.Error("non-power-of-two NMesh accepted")
	}
}

func TestTreePMMatchesEwald(t *testing.T) {
	// End-to-end: total TreePM force vs exact Ewald summation at the paper's
	// operating point (rcut = 3 mesh cells). Error budget is the PM
	// mesh-scale discretization (~6% RMS for a sparse random configuration;
	// see the mesh package tests), plus the θ = 0.4 tree error (<0.5%).
	rng := rand.New(rand.NewSource(1))
	n := 32
	x, y, z, m := randSystem(rng, n)
	s, err := New(Config{L: 1, G: 1, NMesh: 32, Theta: 0.4, Ni: 16})
	if err != nil {
		t.Fatal(err)
	}
	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)
	if _, err := s.Accel(x, y, z, m, ax, ay, az); err != nil {
		t.Fatal(err)
	}
	rx := make([]float64, n)
	ry := make([]float64, n)
	rz := make([]float64, n)
	ewald.New(1, 1).Accel(x, y, z, m, rx, ry, rz)
	rms := rmsErr(ax, ay, az, rx, ry, rz)
	t.Logf("TreePM vs Ewald RMS: %.3e", rms)
	if rms > 0.10 {
		t.Errorf("RMS error %v too large", rms)
	}
}

func TestTreePMMatchesP3M(t *testing.T) {
	// TreePM and P3M share the PM part; with a small opening angle their
	// totals must agree tightly (the tree error is the only difference).
	rng := rand.New(rand.NewSource(2))
	n := 300
	x, y, z, m := randSystem(rng, n)
	s, _ := New(Config{L: 1, G: 1, NMesh: 16, Theta: 0.3, Ni: 32, Eps2: 1e-10})
	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)
	if _, err := s.Accel(x, y, z, m, ax, ay, az); err != nil {
		t.Fatal(err)
	}
	px := make([]float64, n)
	py := make([]float64, n)
	pz := make([]float64, n)
	pairs := s.AccelP3M(x, y, z, m, px, py, pz)
	if pairs == 0 {
		t.Fatal("P3M evaluated no pairs")
	}
	if rms := rmsErr(ax, ay, az, px, py, pz); rms > 0.005 {
		t.Errorf("TreePM vs P3M RMS %v", rms)
	}
}

func TestSpectralAblationAtLeastAsAccurate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 24
	x, y, z, m := randSystem(rng, n)
	rx := make([]float64, n)
	ry := make([]float64, n)
	rz := make([]float64, n)
	ewald.New(1, 1).Accel(x, y, z, m, rx, ry, rz)
	run := func(spectral bool) float64 {
		s, _ := New(Config{L: 1, G: 1, NMesh: 32, Theta: 0.3, Ni: 16, SpectralPM: spectral})
		ax := make([]float64, n)
		ay := make([]float64, n)
		az := make([]float64, n)
		if _, err := s.Accel(x, y, z, m, ax, ay, az); err != nil {
			t.Fatal(err)
		}
		return rmsErr(ax, ay, az, rx, ry, rz)
	}
	fd, sp := run(false), run(true)
	t.Logf("FD RMS %.3e, spectral RMS %.3e", fd, sp)
	if sp > fd*1.2 {
		t.Errorf("spectral (%v) much worse than FD (%v)", sp, fd)
	}
}

func TestMomentumConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 200
	x, y, z, m := randSystem(rng, n)
	s, _ := New(Config{L: 1, G: 1, NMesh: 16, Ni: 32, Eps2: 1e-9})
	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)
	if _, err := s.Accel(x, y, z, m, ax, ay, az); err != nil {
		t.Fatal(err)
	}
	var px, py, pz, scale float64
	for i := 0; i < n; i++ {
		px += m[i] * ax[i]
		py += m[i] * ay[i]
		pz += m[i] * az[i]
		scale += m[i] * (math.Abs(ax[i]) + math.Abs(ay[i]) + math.Abs(az[i]))
	}
	if (math.Abs(px)+math.Abs(py)+math.Abs(pz))/scale > 1e-3 {
		t.Errorf("momentum drift (%v,%v,%v), scale %v", px, py, pz, scale)
	}
}

func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 100
	x, y, z, m := randSystem(rng, n)
	s, _ := New(Config{L: 1, G: 1, NMesh: 16, Ni: 16})
	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)
	st, err := s.Accel(x, y, z, m, ax, ay, az)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tree.Groups == 0 || st.Tree.Interactions == 0 {
		t.Errorf("tree stats empty: %+v", st.Tree)
	}
	if st.TreeBuild <= 0 || st.TreeTraverse <= 0 || st.PMTime <= 0 {
		t.Errorf("timings not populated: %+v", st)
	}
}
