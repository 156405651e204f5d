package mesh

import (
	"math"
	"math/rand"
	"testing"
)

func TestGreenTabMatchesKGreenW(t *testing.T) {
	n, l, g, rcut := 8, 1.0, 1.0, 3.0/8
	for _, order := range []int{2, 3} {
		for _, dec := range []bool{true, false} {
			tab := NewGreenTab(n, l, g, rcut, dec, order)
			if tab == nil {
				t.Fatalf("no table for n=%d", n)
			}
			for jx := 0; jx < n; jx++ {
				for jy := 0; jy < n; jy++ {
					for jz := 0; jz <= n/2; jz++ {
						want := KGreenW(jx, jy, jz, n, l, g, rcut, dec, order)
						if got := tab.At(jx, jy, jz); got != want {
							t.Fatalf("order=%d dec=%v At(%d,%d,%d) = %v, want %v", order, dec, jx, jy, jz, got, want)
						}
					}
				}
			}
		}
	}
}

// TestGreenTabAtFullFolds: for jz beyond n/2 the table folds onto the mirror
// mode, which must agree with direct evaluation (G is even per axis).
func TestGreenTabAtFullFolds(t *testing.T) {
	n, l, g, rcut := 8, 1.0, 1.0, 3.0/8
	tab := NewGreenTab(n, l, g, rcut, true, 3)
	for jx := 0; jx < n; jx++ {
		for jy := 0; jy < n; jy++ {
			for jz := 0; jz < n; jz++ {
				want := KGreenW(jx, jy, jz, n, l, g, rcut, true, 3)
				got := tab.AtFull(jx, jy, jz)
				if math.Abs(got-want) > 1e-15*math.Abs(want) {
					t.Fatalf("AtFull(%d,%d,%d) = %v, want %v", jx, jy, jz, got, want)
				}
			}
		}
	}
}

func TestGreenTabRejectsOddSizes(t *testing.T) {
	for _, n := range []int{0, 1, 3, 7} {
		if tab := NewGreenTab(n, 1, 1, 0.3, true, 3); tab != nil {
			t.Errorf("NewGreenTab(n=%d) should be nil (direct-evaluation fallback)", n)
		}
	}
}

func TestGreenTableCachesAcrossCalls(t *testing.T) {
	a := GreenTable(16, 1, 1, 3.0/16, true, 3)
	b := GreenTable(16, 1, 1, 3.0/16, true, 3)
	if a == nil || a != b {
		t.Errorf("GreenTable did not return the cached instance (%p vs %p)", a, b)
	}
	c := GreenTable(16, 1, 1, 3.0/16, false, 3)
	if c == a {
		t.Error("different parameters must not share a table")
	}
}

// withComplexFFT keeps the Poisson solve on the full complex-to-complex
// transform: twice the FFT arithmetic and spectral memory for identical (to
// rounding) potentials. It is the r2c solve's oracle, and through the
// *MatchesSerial tests of package pmpar the distributed solvers' too.
func withComplexFFT() Option { return func(p *PM) { p.complexFFT = true } }

// TestSolveRealMatchesComplex: the r2c half-spectrum solve must reproduce
// the full complex reference path's potential and accelerations to rounding.
func TestSolveRealMatchesComplex(t *testing.T) {
	n := 16
	rng := rand.New(rand.NewSource(42))
	np := 64
	x := make([]float64, np)
	y := make([]float64, np)
	z := make([]float64, np)
	m := make([]float64, np)
	for i := 0; i < np; i++ {
		x[i], y[i], z[i] = rng.Float64(), rng.Float64(), rng.Float64()
		m[i] = rng.Float64() + 0.5
	}
	run := func(opts ...Option) (ax, ay, az []float64) {
		pm, err := New(n, 1, 1, 3.0/float64(n), opts...)
		if err != nil {
			t.Fatal(err)
		}
		ax = make([]float64, np)
		ay = make([]float64, np)
		az = make([]float64, np)
		pm.Accel(x, y, z, m, ax, ay, az)
		return
	}
	rx, ry, rz := run()
	cx, cy, cz := run(withComplexFFT())
	var scale float64
	for i := range rx {
		scale = math.Max(scale, math.Abs(cx[i])+math.Abs(cy[i])+math.Abs(cz[i]))
	}
	for i := range rx {
		d := math.Abs(rx[i]-cx[i]) + math.Abs(ry[i]-cy[i]) + math.Abs(rz[i]-cz[i])
		if d/scale > 1e-12 {
			t.Fatalf("r2c vs complex acceleration mismatch at %d: rel %g", i, d/scale)
		}
	}
}

func BenchmarkSolve128Real(b *testing.B) { benchSolve(b, 128) }

func BenchmarkSolve128Complex(b *testing.B) { benchSolve(b, 128, withComplexFFT()) }

func BenchmarkSolve64Real(b *testing.B) { benchSolve(b, 64) }

func BenchmarkSolve64Complex(b *testing.B) { benchSolve(b, 64, withComplexFFT()) }

func benchSolve(b *testing.B, n int, opts ...Option) {
	pm, err := New(n, 1, 1, 3.0/float64(n), opts...)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := range pm.Rho {
		pm.Rho[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm.Solve()
	}
	// ~2.5 n³ log2(n³) real flops for the r2c transform pair plus the
	// convolution — report rate so before/after Gflops lands in EXPERIMENTS.
	n3 := float64(n) * float64(n) * float64(n)
	flops := 2.5 * n3 * 3 * math.Log2(float64(n))
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflops")
}
