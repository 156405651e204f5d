package ppkern

import (
	"math"
	"math/rand"
	"testing"
)

func randomSet(rng *rand.Rand, n int, span float64) *Source {
	s := &Source{}
	for i := 0; i < n; i++ {
		s.Append(span*rng.Float64(), span*rng.Float64(), span*rng.Float64(), rng.Float64()+0.5)
	}
	return s
}

func TestAccelCutoffZeroBeyondRcut(t *testing.T) {
	src := &Source{}
	src.Append(0, 0, 0, 1)
	rcut := 0.1
	ax := make([]float64, 1)
	ay := make([]float64, 1)
	az := make([]float64, 1)
	// Target just beyond the cutoff radius.
	AccelCutoff([]float64{rcut * 1.001}, []float64{0}, []float64{0}, src, 1, rcut, 0, ax, ay, az)
	if ax[0] != 0 || ay[0] != 0 || az[0] != 0 {
		t.Errorf("force beyond rcut = (%v,%v,%v), want 0", ax[0], ay[0], az[0])
	}
}

func TestAccelCutoffNewtonianLimit(t *testing.T) {
	// Deep inside the cutoff (ξ → 0) the force must approach G m/r².
	src := &Source{}
	src.Append(0, 0, 0, 2.5)
	rcut := 10.0
	r := 1e-3 // ξ = 2e-4
	ax := make([]float64, 1)
	AccelCutoff([]float64{r}, []float64{0}, []float64{0}, src, 1, rcut, 0, ax, make([]float64, 1), make([]float64, 1))
	want := -2.5 / (r * r) // force points from target at +x toward origin
	if math.Abs(ax[0]-want)/math.Abs(want) > 1e-6 {
		t.Errorf("Newtonian limit: got %v, want %v", ax[0], want)
	}
}

func TestAccelCutoffSelfInteraction(t *testing.T) {
	// A particle in its own source list must receive zero force, both with
	// zero softening (scalar guard) and positive softening (zero numerator).
	src := &Source{}
	src.Append(0.5, 0.5, 0.5, 1)
	ax := make([]float64, 1)
	ay := make([]float64, 1)
	az := make([]float64, 1)
	AccelCutoff([]float64{0.5}, []float64{0.5}, []float64{0.5}, src, 1, 0.2, 0, ax, ay, az)
	if ax[0] != 0 || ay[0] != 0 || az[0] != 0 {
		t.Errorf("self force (eps=0) = (%v,%v,%v)", ax[0], ay[0], az[0])
	}
	AccelCutoff([]float64{0.5}, []float64{0.5}, []float64{0.5}, src, 1, 0.2, 1e-8, ax, ay, az)
	if ax[0] != 0 || ay[0] != 0 || az[0] != 0 {
		t.Errorf("self force (eps>0) = (%v,%v,%v)", ax[0], ay[0], az[0])
	}
}

func TestAccelCutoffMomentumConservation(t *testing.T) {
	// Pairwise antisymmetry: with all particles as both sources and targets,
	// Σ m_i a_i = 0.
	rng := rand.New(rand.NewSource(4))
	all := randomSet(rng, 64, 0.5)
	n := all.Len()
	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)
	AccelCutoff(all.X, all.Y, all.Z, all, 1, 0.4, 1e-8, ax, ay, az)
	var px, py, pz, scale float64
	for i := 0; i < n; i++ {
		px += all.M[i] * ax[i]
		py += all.M[i] * ay[i]
		pz += all.M[i] * az[i]
		scale += all.M[i] * (math.Abs(ax[i]) + math.Abs(ay[i]) + math.Abs(az[i]))
	}
	if math.Abs(px)+math.Abs(py)+math.Abs(pz) > 1e-12*scale {
		t.Errorf("net momentum change (%v,%v,%v) not ~0 (scale %v)", px, py, pz, scale)
	}
}

func TestAccelPlainTwoBody(t *testing.T) {
	src := &Source{}
	src.Append(1, 0, 0, 3)
	ax := make([]float64, 1)
	AccelPlain([]float64{0}, []float64{0}, []float64{0}, src, 2, 0, ax, make([]float64, 1), make([]float64, 1))
	if math.Abs(ax[0]-6) > 1e-12 { // G m / r² = 2·3/1
		t.Errorf("two-body accel = %v, want 6", ax[0])
	}
}

func TestPotPlainTwoBody(t *testing.T) {
	src := &Source{}
	src.Append(2, 0, 0, 4)
	pot := make([]float64, 1)
	PotPlain([]float64{0}, []float64{0}, []float64{0}, src, 1, 0, pot)
	if math.Abs(pot[0]+2) > 1e-12 { // −G m/r = −4/2
		t.Errorf("pot = %v, want -2", pot[0])
	}
}

func TestPotCutoffDerivativeIsForce(t *testing.T) {
	// dφ_short/dr must equal g(2r/rcut)/r² (as dφ/dr = 1/r² for φ = −1/r).
	rcut := 1.0
	for _, r := range []float64{0.05, 0.1, 0.2, 0.3, 0.45} {
		h := 1e-6
		dphi := (PotCutoffAt(r+h, rcut) - PotCutoffAt(r-h, rcut)) / (2 * h)
		want := GP3M(2*r/rcut) / (r * r)
		if math.Abs(dphi-want)/want > 1e-4 {
			t.Errorf("r=%v: dφ/dr = %v, want %v", r, dphi, want)
		}
	}
}

func TestPotCutoffVanishesBeyondRcut(t *testing.T) {
	if p := PotCutoffAt(1.0, 1.0); p != 0 {
		t.Errorf("φ_short at rcut = %v, want 0", p)
	}
	if p := PotCutoffAt(2.0, 1.0); p != 0 {
		t.Errorf("φ_short beyond rcut = %v, want 0", p)
	}
}

func TestSourceResetAppend(t *testing.T) {
	s := &Source{}
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

func TestPotTableMatchesQuadrature(t *testing.T) {
	tab := NewPotTable(512)
	rcut := 0.8
	for _, r := range []float64{0.01, 0.1, 0.25, 0.39, 0.6, 0.79} {
		want := PotCutoffAt(r, rcut)
		got := -tab.P(2*r/rcut) / r
		if want == 0 {
			if got != 0 {
				t.Errorf("r=%v: table %v, want 0", r, got)
			}
			continue
		}
		if math.Abs(got-want) > 1e-4*math.Abs(want)+1e-10 {
			t.Errorf("r=%v: table %v, quadrature %v", r, got, want)
		}
	}
	if p := tab.P(0); p != 1 {
		t.Errorf("p(0) = %v", p)
	}
	if p := tab.P(2.5); p != 0 {
		t.Errorf("p(2.5) = %v", p)
	}
}

func TestPotCutoffKernel(t *testing.T) {
	tab := NewPotTable(512)
	src := &Source{}
	src.Append(0.1, 0, 0, 2)
	pot := make([]float64, 1)
	rcut := 0.5
	PotCutoff([]float64{0}, []float64{0}, []float64{0}, src, tab, 1.5, rcut, 0, pot)
	want := 1.5 * 2 * PotCutoffAt(0.1, rcut)
	if math.Abs(pot[0]-want)/math.Abs(want) > 1e-4 {
		t.Errorf("kernel pot %v, want %v", pot[0], want)
	}
	// Self-interaction guarded.
	pot[0] = 0
	PotCutoff([]float64{0.1}, []float64{0}, []float64{0}, src, tab, 1, rcut, 0, pot)
	if pot[0] != 0 {
		t.Errorf("self potential = %v", pot[0])
	}
}
