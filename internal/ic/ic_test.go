package ic

import (
	"math"
	"testing"

	"greem/internal/analysis"
	"greem/internal/cosmo"
	"greem/internal/mpi"
	"greem/internal/sim"
)

func TestFieldIsRealAndMeanZero(t *testing.T) {
	ps := PowerLaw{N: -1, Amp: 1e-4}
	f, err := GenerateField(32, 1, ps, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mean, maxAbs float64
	for _, v := range f.Delta {
		mean += v
		if math.Abs(v) > maxAbs {
			maxAbs = math.Abs(v)
		}
	}
	mean /= float64(len(f.Delta))
	if maxAbs == 0 {
		t.Fatal("field is identically zero")
	}
	if math.Abs(mean) > 1e-12*maxAbs {
		t.Errorf("mean δ = %v (max %v)", mean, maxAbs)
	}
}

func TestFieldDeterministicBySeed(t *testing.T) {
	ps := PowerLaw{N: -2, Amp: 1e-4}
	f1, _ := GenerateField(16, 1, ps, 7)
	f2, _ := GenerateField(16, 1, ps, 7)
	f3, _ := GenerateField(16, 1, ps, 8)
	same, diff := true, false
	for i := range f1.Delta {
		if f1.Delta[i] != f2.Delta[i] {
			same = false
		}
		if f1.Delta[i] != f3.Delta[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different fields")
	}
	if !diff {
		t.Error("different seeds produced identical fields")
	}
}

func TestDisplacementDivergenceIsDelta(t *testing.T) {
	// δ = −∇·Ψ by construction; verify via central differences. A red
	// spectrum concentrates power at low k, where second-order differences
	// are accurate (the residual measures the difference stencil, not the
	// field construction).
	n := 32
	l := 2.0
	ps := PowerLaw{N: -3.5, Amp: 1e-4}
	f, err := GenerateField(n, l, ps, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := l / float64(n)
	idx := func(i, j, k int) int {
		return ((i+n)%n*n+(j+n)%n)*n + (k+n)%n
	}
	var errSum, refSum float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				div := (f.PsiX[idx(i+1, j, k)]-f.PsiX[idx(i-1, j, k)])/(2*h) +
					(f.PsiY[idx(i, j+1, k)]-f.PsiY[idx(i, j-1, k)])/(2*h) +
					(f.PsiZ[idx(i, j, k+1)]-f.PsiZ[idx(i, j, k-1)])/(2*h)
				d := f.Delta[idx(i, j, k)]
				errSum += (div + d) * (div + d)
				refSum += d * d
			}
		}
	}
	// Central differences are 2nd order; most power sits at low k for a red
	// spectrum, so the mismatch is a few percent.
	rel := math.Sqrt(errSum / refSum)
	if rel > 0.2 {
		t.Errorf("∇·Ψ ≠ −δ: relative residual %v", rel)
	}
}

func TestGeneratedSpectrumMatchesInput(t *testing.T) {
	// Generate a field, displace a lattice, and measure the particle power
	// spectrum with the analysis package — it must recover the input shape
	// in the linear regime. This cross-validates ic and analysis at once.
	n := 64
	l := 1.0
	model := cosmo.EdS(1)
	ps := NeutralinoCutoff{N: 0.0, Amp: 4e-7, KCut: 2 * math.Pi / l * 12}
	parts, err := Generate(Config{
		NP: 64, NGrid: n, L: l, PS: ps, Seed: 4,
		Model: model, AInit: 0.02, TotalMass: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, len(parts))
	y := make([]float64, len(parts))
	z := make([]float64, len(parts))
	m := make([]float64, len(parts))
	for i, p := range parts {
		x[i], y[i], z[i], m[i] = p.X, p.Y, p.Z, p.M
	}
	ks, pk, counts, err := analysis.PowerSpectrum(x, y, z, m, n, l, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) < 6 {
		t.Fatalf("too few bins: %d", len(ks))
	}
	// Compare measured vs input in well-sampled low-k bins (high-k bins are
	// distorted by the lattice and assignment aliasing).
	for b := 0; b < len(ks)/2; b++ {
		if counts[b] < 20 {
			continue
		}
		want := ps.P(ks[b])
		if pk[b] < want/3 || pk[b] > want*3 {
			t.Errorf("bin k=%.1f: P=%.3e, input %.3e", ks[b], pk[b], want)
		}
	}
}

func TestZeldovichLinearGrowth(t *testing.T) {
	// The headline IC validation: a single-mode Zel'dovich perturbation in
	// an EdS universe must grow as D(a) ∝ a when evolved with the full
	// TreePM + comoving KDK machinery. Doubling the scale factor must double
	// the displacement amplitude.
	n := 32
	l := 1.0
	g := 1.0
	totalM := 1.0
	h0 := cosmo.HubbleForBox(g, totalM, l, 1.0)
	model := cosmo.EdS(h0)
	aInit := 0.02
	amp := 2e-4 * l

	field := SingleMode(n, l, amp, 1)
	parts, err := Displace(field, Config{
		NP: 32, NGrid: n, L: l, PS: nil, Model: model, AInit: aInit, TotalMass: totalM,
	})
	if err != nil {
		t.Fatal(err)
	}

	cfg := sim.Config{
		L: l, G: g, NMesh: 32, Theta: 0.4, Ni: 64, Eps2: 1e-10,
		Grid: [3]int{2, 1, 1}, DT: aInit / 16, Stepper: model, Time: aInit,
	}
	var finalParts []sim.Particle
	err = mpi.Run(2, func(c *mpi.Comm) {
		var mine []sim.Particle
		for i, p := range parts {
			if i%2 == c.Rank() {
				mine = append(mine, p)
			}
		}
		s, err := sim.New(c, cfg, mine)
		if err != nil {
			panic(err)
		}
		for s.Time() < 2*aInit-1e-12 {
			if err := s.Step(); err != nil {
				panic(err)
			}
		}
		all := s.GatherAll(0)
		if c.Rank() == 0 {
			finalParts = all
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Fit the displacement amplitude: dx(q) = A·sin(2π qx / L), with q
	// recovered from the particle ID (lattice order).
	k := 2 * math.Pi / l
	var num, den float64
	for _, p := range finalParts {
		id := p.ID
		qi := id / (32 * 32)
		qx := float64(qi) / 32 * l
		dx := p.X - qx
		for dx > l/2 {
			dx -= l
		}
		for dx < -l/2 {
			dx += l
		}
		s := math.Sin(k * qx)
		num += dx * s
		den += s * s
	}
	aFit := num / den
	growth := aFit / amp
	t.Logf("amplitude growth %v (want 2.0, Zel'dovich D ∝ a in EdS)", growth)
	if math.Abs(growth-2) > 0.06 {
		t.Errorf("linear growth = %v, want 2.0 ± 0.06", growth)
	}
}

func TestGenerateValidation(t *testing.T) {
	model := cosmo.EdS(1)
	if _, err := Generate(Config{NP: 3, NGrid: 16, L: 1, PS: PowerLaw{}, Model: model, AInit: 0.1, TotalMass: 1}); err == nil {
		t.Error("NP not dividing NGrid accepted")
	}
	if _, err := Generate(Config{NP: 4, NGrid: 16, L: 1, PS: PowerLaw{}, AInit: 0.1, TotalMass: 1}); err == nil {
		t.Error("missing model accepted")
	}
	if _, err := GenerateField(12, 1, PowerLaw{}, 1); err == nil {
		t.Error("non-power-of-two grid accepted")
	}
}

func TestNeutralinoCutoffShape(t *testing.T) {
	ps := NeutralinoCutoff{N: 1, Amp: 2, KCut: 10}
	if p := ps.P(10); math.Abs(p-2*10*math.Exp(-1)) > 1e-12 {
		t.Errorf("P(kcut) = %v", p)
	}
	// Strong suppression beyond the cutoff — the defining feature.
	if ps.P(50) > ps.P(10)*1e-9 {
		t.Errorf("cutoff too weak: P(5kcut)/P(kcut) = %v", ps.P(50)/ps.P(10))
	}
}

func TestPowerSpectrumGrowsAsDSquared(t *testing.T) {
	// Statistical counterpart of the single-mode Zel'dovich test: in the
	// linear regime the whole power spectrum grows as D(a)², so doubling the
	// scale factor in EdS quadruples P(k) in the well-resolved bins.
	if testing.Short() {
		t.Skip("multi-step simulation")
	}
	l := 1.0
	g := 1.0
	h0 := cosmo.HubbleForBox(g, 1.0, l, 1.0)
	model := cosmo.EdS(h0)
	a0 := 0.02
	ps := NeutralinoCutoff{N: 0, Amp: 3e-8, KCut: 2 * math.Pi / l * 6}
	parts, err := Generate(Config{
		NP: 32, NGrid: 32, L: l, PS: ps, Seed: 21,
		Model: model, AInit: a0, TotalMass: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(all []sim.Particle) []float64 {
		x := make([]float64, len(all))
		y := make([]float64, len(all))
		z := make([]float64, len(all))
		m := make([]float64, len(all))
		for i, p := range all {
			x[i], y[i], z[i], m[i] = p.X, p.Y, p.Z, p.M
		}
		_, pk, _, err := analysis.PowerSpectrum(x, y, z, m, 32, l, 8)
		if err != nil {
			t.Fatal(err)
		}
		return pk
	}
	p0 := measure(parts)

	cfg := sim.Config{
		L: l, G: g, NMesh: 32, Theta: 0.4, Ni: 64, Eps2: 1e-9,
		Grid: [3]int{2, 1, 1}, DT: a0 / 8, Stepper: model, Time: a0,
	}
	var final []sim.Particle
	err = mpi.Run(2, func(c *mpi.Comm) {
		var mine []sim.Particle
		for i, p := range parts {
			if i%2 == c.Rank() {
				mine = append(mine, p)
			}
		}
		s, err := sim.New(c, cfg, mine)
		if err != nil {
			panic(err)
		}
		for s.Time() < 2*a0-1e-12 {
			if err := s.Step(); err != nil {
				panic(err)
			}
		}
		all := s.GatherAll(0)
		if c.Rank() == 0 {
			final = all
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	p1 := measure(final)

	// Compare the two largest-scale (best-sampled, most linear) bins; higher
	// bins sit near the lattice/assignment aliasing scale where the measured
	// growth is contaminated.
	for b := 0; b < 2; b++ {
		ratio := p1[b] / p0[b]
		if ratio < 2.8 || ratio > 5.6 {
			t.Errorf("bin %d: P grew %vx, want ≈ 4 (D² for a doubling)", b, ratio)
		}
	}
	t.Logf("P(k) growth ratios (want ≈4): %.2f %.2f %.2f", p1[0]/p0[0], p1[1]/p0[1], p1[2]/p0[2])
}

func TestAdd2LPTCrossedWavesAnalytic(t *testing.T) {
	// For δ = A(cos k₁x + cos k₁y), the 2LPT source is
	// S = A²·cos k₁x·cos k₁y, so ∇φ⁽²⁾ has the analytic form
	// ∂xφ⁽²⁾ = (A²/2k₁)·sin k₁x·cos k₁y (and symmetrically in y; zero in z).
	n := 32
	l := 1.0
	amp := 0.01
	k1 := 2 * math.Pi / l
	size := n * n * n
	f := &Field{N: n, L: l,
		Delta: make([]float64, size),
		PsiX:  make([]float64, size), PsiY: make([]float64, size), PsiZ: make([]float64, size),
	}
	h := l / float64(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				f.Delta[(i*n+j)*n+k] = amp * (math.Cos(k1*float64(i)*h) + math.Cos(k1*float64(j)*h))
			}
		}
	}
	if err := f.Add2LPT(); err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				idx := (i*n+j)*n + k
				x := float64(i) * h
				y := float64(j) * h
				wantX := amp * amp / (2 * k1) * math.Sin(k1*x) * math.Cos(k1*y)
				wantY := amp * amp / (2 * k1) * math.Cos(k1*x) * math.Sin(k1*y)
				worst = math.Max(worst, math.Abs(f.Psi2X[idx]-wantX))
				worst = math.Max(worst, math.Abs(f.Psi2Y[idx]-wantY))
				worst = math.Max(worst, math.Abs(f.Psi2Z[idx]))
			}
		}
	}
	scale := amp * amp / (2 * k1)
	t.Logf("worst 2LPT field error %.3e (scale %.3e)", worst, scale)
	if worst > 1e-10*scale+1e-15 {
		t.Errorf("2LPT field deviates from the analytic solution by %v", worst)
	}
}

func TestGenerate2LPTRuns(t *testing.T) {
	// End-to-end smoke: 2LPT displacements are a small correction to ZA at
	// low amplitude, and the generator stays valid (positions in the box,
	// identical particle count and IDs).
	model := cosmo.EdS(1)
	base := Config{
		NP: 16, NGrid: 16, L: 1, PS: PowerLaw{N: -1, Amp: 1e-6}, Seed: 9,
		Model: model, AInit: 0.02, TotalMass: 1,
	}
	za, err := Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := base
	cfg2.SecondOrder = true
	lpt, err := Generate(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(za) != len(lpt) {
		t.Fatalf("counts differ")
	}
	mi := func(d float64) float64 {
		if d > 0.5 {
			d -= 1
		}
		if d < -0.5 {
			d += 1
		}
		return math.Abs(d)
	}
	var diff, disp float64
	for i := range za {
		dd := mi(za[i].X-lpt[i].X) + mi(za[i].Y-lpt[i].Y) + mi(za[i].Z-lpt[i].Z)
		diff = math.Max(diff, dd)
		qx := float64(i/(16*16)) / 16
		dx := za[i].X - qx
		if dx > 0.5 {
			dx -= 1
		}
		if dx < -0.5 {
			dx += 1
		}
		disp = math.Max(disp, math.Abs(dx))
		if lpt[i].X < 0 || lpt[i].X >= 1 {
			t.Fatalf("particle outside box")
		}
		if za[i].ID != lpt[i].ID {
			t.Fatalf("ID mismatch")
		}
	}
	if diff == 0 {
		t.Error("2LPT changed nothing")
	}
	if diff > disp {
		t.Errorf("second order (%v) should be smaller than first (%v) in the linear regime", diff, disp)
	}
}
