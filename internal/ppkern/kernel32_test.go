package ppkern

import (
	"math"
	"math/rand"
	"testing"
)

func TestRsqrt32SeedAccuracy(t *testing.T) {
	// Magic-constant seed + one Newton step: ≈9-bit accuracy.
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 100000; i++ {
		x := float32(math.Ldexp(1+rng.Float64(), rng.Intn(60)-30))
		got := float64(Rsqrt32Seed(x))
		want := 1 / math.Sqrt(float64(x))
		rel := math.Abs(got-want) / want
		if rel > 1.0/256 {
			t.Fatalf("Rsqrt32Seed(%v): rel err %v > 2^-8", x, rel)
		}
	}
}

func TestRsqrt32RefinedAccuracy(t *testing.T) {
	// One third-order step must land at the float32 rounding floor.
	rng := rand.New(rand.NewSource(22))
	worst := 0.0
	for i := 0; i < 200000; i++ {
		x := float32(math.Ldexp(1+rng.Float64(), rng.Intn(60)-30))
		got := float64(Rsqrt32(x))
		want := 1 / math.Sqrt(float64(x))
		rel := math.Abs(got-want) / want
		if rel > worst {
			worst = rel
		}
	}
	// 2^-22: within two ulps of correctly rounded float32.
	if worst > math.Ldexp(1, -22) {
		t.Errorf("worst relative error %v exceeds 2^-22", worst)
	}
}

// toF32 converts a float64 SoA set to float32.
func toF32(s *Source) *SourceF32 {
	f := &SourceF32{}
	for i := range s.X {
		f.Append(float32(s.X[i]), float32(s.Y[i]), float32(s.Z[i]), float32(s.M[i]))
	}
	return f
}

func maxAbs(vs ...[]float64) float64 {
	m := 0.0
	for _, v := range vs {
		for _, x := range v {
			if a := math.Abs(x); a > m {
				m = a
			}
		}
	}
	return m
}

func TestAccelCutoffF32FastMatchesScalarF32(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, nj := range []int{3, 137, 255, 256, 257, 513} {
		src := randomSet(rng, nj, 1.0)
		tgt := randomSet(rng, 29, 1.0) // 29 = 7 panels + remainder of 1
		src32, tgt32 := toF32(src), toF32(tgt)
		rcut, eps2 := float32(0.3), float32(1e-8)
		n := tgt.Len()
		a1, b1, c1 := make([]float64, n), make([]float64, n), make([]float64, n)
		a2, b2, c2 := make([]float64, n), make([]float64, n), make([]float64, n)
		n1 := AccelCutoffF32(tgt32.X, tgt32.Y, tgt32.Z, src32, 1, rcut, eps2, a1, b1, c1)
		n2 := AccelCutoffF32Fast(tgt32.X, tgt32.Y, tgt32.Z, src32, 1, rcut, eps2, a2, b2, c2)
		if n1 != n2 || n1 != uint64(n*nj) {
			t.Fatalf("nj=%d: interaction counts %d, %d, want %d", nj, n1, n2, n*nj)
		}
		scale := maxAbs(a1, b1, c1)
		for i := 0; i < n; i++ {
			for _, p := range [][2]float64{{a1[i], a2[i]}, {b1[i], b2[i]}, {c1[i], c2[i]}} {
				// Scalar accumulates per-pair in float64, fast in float32
				// tiles; agreement is to float32 summation accuracy.
				if math.Abs(p[0]-p[1]) > 3e-6*math.Max(1e-6, scale) {
					t.Fatalf("nj=%d i=%d: scalar %v vs fast %v (scale %v)", nj, i, p[0], p[1], scale)
				}
			}
		}
	}
}

func TestAccelCutoffF32MatchesFloat64Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	src := randomSet(rng, 211, 1.0)
	tgt := randomSet(rng, 53, 1.0)
	src32, tgt32 := toF32(src), toF32(tgt)
	rcut, eps2 := 0.3, 1e-8
	n := tgt.Len()
	a1, b1, c1 := make([]float64, n), make([]float64, n), make([]float64, n)
	a2, b2, c2 := make([]float64, n), make([]float64, n), make([]float64, n)
	AccelCutoff(tgt.X, tgt.Y, tgt.Z, src, 1, rcut, eps2, a1, b1, c1)
	AccelCutoffF32Fast(tgt32.X, tgt32.Y, tgt32.Z, src32, 1, float32(rcut), float32(eps2), a2, b2, c2)
	scale := maxAbs(a1, b1, c1)
	for i := 0; i < n; i++ {
		for _, p := range [][2]float64{{a1[i], a2[i]}, {b1[i], b2[i]}, {c1[i], c2[i]}} {
			if math.Abs(p[0]-p[1]) > 5e-6*scale {
				t.Fatalf("i=%d: float64 %v vs float32 %v (scale %v)", i, p[0], p[1], scale)
			}
		}
	}
}

func TestAccelCutoffF32MomentumConservation(t *testing.T) {
	// Pairwise antisymmetry survives float32: with all particles as both
	// sources and targets, Σ m_i a_i vanishes to float32 rounding.
	rng := rand.New(rand.NewSource(25))
	all := randomSet(rng, 64, 0.5)
	all32 := toF32(all)
	n := all.Len()
	ax, ay, az := make([]float64, n), make([]float64, n), make([]float64, n)
	AccelCutoffF32Fast(all32.X, all32.Y, all32.Z, all32, 1, 0.4, 1e-8, ax, ay, az)
	var px, py, pz, scale float64
	for i := 0; i < n; i++ {
		m := float64(all32.M[i])
		px += m * ax[i]
		py += m * ay[i]
		pz += m * az[i]
		scale += m * (math.Abs(ax[i]) + math.Abs(ay[i]) + math.Abs(az[i]))
	}
	if math.Abs(px)+math.Abs(py)+math.Abs(pz) > 1e-5*scale {
		t.Errorf("net momentum change (%v,%v,%v) not ~0 (scale %v)", px, py, pz, scale)
	}
}

// TestCutoffMaskBoundary pins the branch-free mask: every kernel variant
// returns exactly zero beyond ξ = 2 and agrees with the scalar skip path
// across a sweep of separations straddling rcut.
func TestCutoffMaskBoundary(t *testing.T) {
	const rcut = 0.25
	cinv := 2 / rcut
	src := &Source{}
	src.Append(0, 0, 0, 1.0)
	src32 := toF32(src)

	for k := -40; k <= 40; k++ {
		r := rcut * (1 + float64(k)*1e-3) // sweep 0.96·rcut … 1.04·rcut
		// cutoffW32 masked exactly to zero beyond the boundary.
		// (1+2e-3 leaves room for the rounded ξ = 2r/rcut to cross 2.)
		if r >= rcut*(1+2e-3) {
			if w := cutoffW32(float32(r*r), float32(cinv)); w != 0 {
				t.Fatalf("cutoffW32(r=%v) = %v, want exact 0", r, w)
			}
		}
		// Masked kernels agree with the scalar skip path. Four identical
		// targets exercise the unrolled panel.
		x4 := []float64{r, r, r, r}
		z4 := make([]float64, 4)
		x4f := []float32{float32(r), float32(r), float32(r), float32(r)}
		z4f := make([]float32, 4)
		sc := make([]float64, 4)
		s32 := make([]float64, 4)
		f32 := make([]float64, 4)
		junk := make([]float64, 4)
		AccelCutoff(x4, z4, z4, src, 1, rcut, 0, sc, junk, junk)
		AccelCutoffF32(x4f, z4f, z4f, src32, 1, rcut, 0, s32, junk, junk)
		AccelCutoffF32Fast(x4f, z4f, z4f, src32, 1, rcut, 0, f32, junk, junk)
		for i := 0; i < 4; i++ {
			// Near ξ = 2 the polynomial cancels to ~0 from O(1) terms, so
			// float32 agreement is bounded by rounding noise amplified by
			// 1/r³ — measure against the natural force scale 1/r².
			if math.Abs(s32[i]-f32[i]) > 5e-6/(r*r) {
				t.Fatalf("r=%v: scalar f32 %v vs masked f32 %v", r, s32[i], f32[i])
			}
			// Near ξ = 2 the polynomial cancels to ~0, so the float32
			// absolute error is set by the ~O(1) intermediates times
			// 1/r³ — a loose sanity band, not a precision pin.
			if math.Abs(sc[i]-s32[i]) > 1e-3*(1+math.Abs(sc[i])) {
				t.Fatalf("r=%v: f64 %v vs f32 %v", r, sc[i], s32[i])
			}
		}
		// Beyond the boundary all paths are exactly zero.
		if r >= rcut*(1+2e-3) {
			for i := 0; i < 4; i++ {
				if sc[i] != 0 || s32[i] != 0 || f32[i] != 0 {
					t.Fatalf("r=%v beyond rcut: forces (%v,%v,%v) not exactly 0",
						r, sc[i], s32[i], f32[i])
				}
			}
		}
	}

	// Geometric r = 0: with eps2 > 0 a zero numerator and finite weight, with
	// eps2 = 0 the kernels' zero-separation skip/mask — the force is exactly
	// zero and never NaN, in every variant.
	for _, eps2 := range []float64{1e-8, 0} {
		testCoincidentTargets(t, src, src32, rcut, eps2)
	}
}

func testCoincidentTargets(t *testing.T, src *Source, src32 *SourceF32, rcut, eps2 float64) {
	z4 := make([]float64, 4)
	z4f := make([]float32, 4)
	for name, f := range map[string]func() []float64{
		"scalar": func() []float64 {
			a := make([]float64, 4)
			AccelCutoff(z4, z4, z4, src, 1, rcut, eps2, a, make([]float64, 4), make([]float64, 4))
			return a
		},
		"f32": func() []float64 {
			a := make([]float64, 4)
			AccelCutoffF32(z4f, z4f, z4f, src32, 1, float32(rcut), float32(eps2), a, make([]float64, 4), make([]float64, 4))
			return a
		},
		"f32fast": func() []float64 {
			a := make([]float64, 4)
			AccelCutoffF32Fast(z4f, z4f, z4f, src32, 1, float32(rcut), float32(eps2), a, make([]float64, 4), make([]float64, 4))
			return a
		},
		"f32panel": func() []float64 { // the pure-Go fallback, whatever the host dispatches
			a := make([]float64, 4)
			accelCutoff4F32(z4f, z4f, z4f, src32, 1, float32(2/rcut), float32(eps2), a, make([]float64, 4), make([]float64, 4))
			return a
		},
	} {
		for i, v := range f() {
			if v != 0 || math.IsNaN(v) {
				t.Errorf("%s: coincident target %d with eps2=%v: force %v, want exact 0", name, i, eps2, v)
			}
		}
	}
}

// TestUnrolledInteractionCountRemainder pins the satellite fix: target
// counts not divisible by 4 must report exactly n × Nj interactions from
// the unrolled kernel (the remainder path's count is composed, not
// recomputed).
func TestUnrolledInteractionCountRemainder(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for n := 1; n <= 9; n++ {
		for _, nj := range []int{1, 5, 11} {
			src := randomSet(rng, nj, 1.0)
			tgt := randomSet(rng, n, 1.0)
			src32, tgt32 := toF32(src), toF32(tgt)
			want := uint64(n) * uint64(nj)
			a := make([]float64, n)
			b := make([]float64, n)
			c := make([]float64, n)
			if got := AccelCutoffF32Fast(tgt32.X, tgt32.Y, tgt32.Z, src32, 1, 0.3, 1e-8, a, b, c); got != want {
				t.Errorf("F32Fast n=%d nj=%d: count %d, want %d", n, nj, got, want)
			}
		}
	}
}

func TestSourceF32ResetAppend(t *testing.T) {
	s := &SourceF32{}
	s.Append(1, 2, 3, 4)
	s.Append(5, 6, 7, 8)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("Len after Reset = %d", s.Len())
	}
	s.Append(9, 9, 9, 9)
	if s.Len() != 1 || s.X[0] != 9 {
		t.Fatalf("Append after Reset broken: %+v", s)
	}
}
