package tree

import (
	"math"
	"math/rand"
	"testing"
)

// cutoffOpts is the standard TreePM short-range configuration the float32
// walk targets: periodic box of unit side, cutoff at 3/32, softened.
func cutoffOpts() ForceOpts {
	return ForceOpts{
		G: 1, Theta: 0.5, Eps2: 1e-10,
		Cutoff: true, Rcut: 3.0 / 32,
		Periodic: true, L: 1,
	}
}

// TestCutoffWalkMatchesFloat64Oracle runs the full grouped cutoff walk on the
// production float32 batch path and on the float64 oracle (Float64Walk) over
// the same tree and asserts the accelerations agree to float32 accuracy
// relative to the short-range force scale. This is the in-tree parity check
// for the whole chain: collectF32's group-relative emission, the rebased
// targets, and the float32 kernel (SIMD where available).
func TestCutoffWalkMatchesFloat64Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x, y, z, m := plummer(rng, 3000, 0.05)
	tr, err := Build(x, y, z, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := cutoffOpts()
	n := len(x)

	ax64 := make([]float64, n)
	ay64 := make([]float64, n)
	az64 := make([]float64, n)
	ref := opt
	ref.Float64Walk = true
	st64 := Accel(tr, tr, 64, ref, ax64, ay64, az64)

	ax32 := make([]float64, n)
	ay32 := make([]float64, n)
	az32 := make([]float64, n)
	st32 := Accel(tr, tr, 64, opt, ax32, ay32, az32)

	// Identical traversal: same lists, same ledger.
	if st32.Interactions != st64.Interactions {
		t.Errorf("interactions: f32 %d, f64 %d", st32.Interactions, st64.Interactions)
	}
	if st32.ListParticles != st64.ListParticles || st32.ListNodes != st64.ListNodes {
		t.Errorf("list entries: f32 (%d,%d), f64 (%d,%d)",
			st32.ListParticles, st32.ListNodes, st64.ListParticles, st64.ListNodes)
	}
	if st32.Groups != st64.Groups || st32.SumNi != st64.SumNi {
		t.Errorf("groups: f32 (%d,%d), f64 (%d,%d)", st32.Groups, st32.SumNi, st64.Groups, st64.SumNi)
	}

	// Force agreement: float32 relative accuracy against the RMS force.
	var sum2 float64
	for i := 0; i < n; i++ {
		sum2 += ax64[i]*ax64[i] + ay64[i]*ay64[i] + az64[i]*az64[i]
	}
	rms := math.Sqrt(sum2 / float64(n))
	var maxErr float64
	for i := 0; i < n; i++ {
		dx := ax32[i] - ax64[i]
		dy := ay32[i] - ay64[i]
		dz := az32[i] - az64[i]
		e := math.Sqrt(dx*dx + dy*dy + dz*dz)
		if e > maxErr {
			maxErr = e
		}
	}
	// Float32 carries ~1e-7 relative resolution; near-cutoff polynomial
	// cancellation and list-length-√Nj noise accumulation leave a few
	// decades of headroom.
	if maxErr > 2e-4*rms {
		t.Errorf("max |a32-a64| = %g, rms(a64) = %g (ratio %g)", maxErr, rms, maxErr/rms)
	}
}

// TestCutoffWalkWorkersBitIdentical asserts the float32 walk is
// bit-identical across worker counts: groups own disjoint output ranges and
// each group's batch is built and evaluated identically regardless of which
// sub-Walker handles it.
func TestCutoffWalkWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y, z, m := plummer(rng, 4000, 0.04)
	tr, err := Build(x, y, z, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := cutoffOpts()
	n := len(x)

	ref := make([]float64, 3*n)
	st1 := Accel(tr, tr, 64, opt, ref[:n], ref[n:2*n], ref[2*n:])

	for _, workers := range []int{2, 7} {
		o := opt
		o.Workers = workers
		got := make([]float64, 3*n)
		st := Accel(tr, tr, 64, o, got[:n], got[n:2*n], got[2*n:])
		if st.Interactions != st1.Interactions {
			t.Errorf("workers=%d: interactions %d, serial %d", workers, st.Interactions, st1.Interactions)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: component %d differs: %v vs %v", workers, i, got[i], ref[i])
				break
			}
		}
	}
}

// TestWalkerZeroAllocSteadyState pins the acceptance criterion that the
// batched walk allocates nothing in steady state: after a warm-up pass, a
// reused Walker with a precomputed group decomposition must run both the
// float64 and the float32 cutoff walks with zero allocations per pass.
func TestWalkerZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, y, z, m := plummer(rng, 2000, 0.05)
	tr, err := Build(x, y, z, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	groups := tr.Groups(64)
	n := len(x)
	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)

	for _, tc := range []struct {
		name   string
		oracle bool
	}{
		{"float64 oracle", true},
		{"float32", false},
	} {
		opt := cutoffOpts()
		opt.Float64Walk = tc.oracle
		w := NewWalker()
		w.AccelGroups(tr, tr, groups, opt, ax, ay, az) // warm-up: buffers grow here
		allocs := testing.AllocsPerRun(5, func() {
			w.AccelGroups(tr, tr, groups, opt, ax, ay, az)
		})
		if allocs != 0 {
			t.Errorf("%s walk: %v allocs/pass in steady state, want 0", tc.name, allocs)
		}
	}
}
