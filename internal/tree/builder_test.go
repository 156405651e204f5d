package tree

import (
	"math/rand"
	"testing"
)

// sameTree checks that a and b are structurally identical: same tree-order
// particle data and Perm, same node count, and same moments at the root. (Node
// numbering is allowed to differ in general; the serial builds compared here
// are deterministic, so the data arrays must match exactly.)
func sameTree(t *testing.T, a, b *Tree) {
	t.Helper()
	if a.NumParticles() != b.NumParticles() {
		t.Fatalf("particle count %d vs %d", a.NumParticles(), b.NumParticles())
	}
	if a.NumNodes() != b.NumNodes() {
		t.Fatalf("node count %d vs %d", a.NumNodes(), b.NumNodes())
	}
	for i := range a.X {
		if a.X[i] != b.X[i] || a.Y[i] != b.Y[i] || a.Z[i] != b.Z[i] ||
			a.M[i] != b.M[i] || a.Perm[i] != b.Perm[i] {
			t.Fatalf("tree-order particle %d differs", i)
		}
	}
	if a.TotalMass() != b.TotalMass() {
		t.Fatalf("total mass %v vs %v", a.TotalMass(), b.TotalMass())
	}
}

// TestRebuildMatchesBuild pins Rebuild's contract: identical structure and
// forces to a fresh Build, across repeated rebuilds over shrinking and
// growing particle sets (exercising arena reuse in both directions).
func TestRebuildMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBuilder()
	opt := Options{LeafCap: 8, MaxDepth: 40}
	fopt := ForceOpts{G: 1, Theta: 0.5, Eps2: 1e-6}
	for _, n := range []int{900, 300, 1500, 0, 700} {
		x, y, z, m := plummer(rng, n, 0.1)
		want, err := Build(x, y, z, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Rebuild(x, y, z, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameTree(t, want, got)
		if n == 0 {
			continue
		}
		ax1 := make([]float64, n)
		ay1 := make([]float64, n)
		az1 := make([]float64, n)
		ax2 := make([]float64, n)
		ay2 := make([]float64, n)
		az2 := make([]float64, n)
		Accel(want, want, 32, fopt, ax1, ay1, az1)
		Accel(got, got, 32, fopt, ax2, ay2, az2)
		for i := 0; i < n; i++ {
			if ax1[i] != ax2[i] || ay1[i] != ay2[i] || az1[i] != az2[i] {
				t.Fatalf("n=%d: force on particle %d differs", n, i)
			}
		}
	}
}

// TestRebuildQuadrupoleModes checks the quadrupole arena across mode flips:
// quadrupole on → off must drop the moments (monopole traversal), off → on
// must recompute them.
func TestRebuildQuadrupoleModes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x, y, z, m := randParticles(rng, 400)
	b := NewBuilder()
	tr, err := b.Rebuild(x, y, z, m, Options{LeafCap: 8, Quadrupole: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.RootQuadrupole() == ([6]float64{}) {
		t.Fatal("quadrupole build has zero root moments")
	}
	want := tr.RootQuadrupole()
	tr, err = b.Rebuild(x, y, z, m, Options{LeafCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	if tr.quads != nil {
		t.Fatal("monopole rebuild retained quadrupole moments")
	}
	tr, err = b.Rebuild(x, y, z, m, Options{LeafCap: 8, Quadrupole: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.RootQuadrupole() != want {
		t.Fatal("quadrupole moments differ after mode round-trip")
	}
}

// TestRebuildAllocs asserts the zero-alloc steady state: once the arena has
// grown, serial Rebuild over a same-sized particle set allocates nothing.
func TestRebuildAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x, y, z, m := plummer(rng, 2000, 0.1)
	b := NewBuilder()
	opt := Options{LeafCap: 8, MaxDepth: 40}
	if _, err := b.Rebuild(x, y, z, m, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := b.Rebuild(x, y, z, m, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Rebuild allocates %v times per run, want 0", allocs)
	}
}

// TestWalkerAccelAllocs pins the group-buffer reuse: a warm Walker.Accel pass
// (which now reuses the Walker-owned group slice) allocates nothing.
func TestWalkerAccelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 1500
	x, y, z, m := plummer(rng, n, 0.1)
	tr, err := Build(x, y, z, m, Options{LeafCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWalker()
	opt := ForceOpts{G: 1, Theta: 0.5, Eps2: 1e-6, Cutoff: true, Rcut: 0.2}
	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)
	w.Accel(tr, tr, 64, opt, ax, ay, az)
	allocs := testing.AllocsPerRun(5, func() {
		w.Accel(tr, tr, 64, opt, ax, ay, az)
	})
	if allocs != 0 {
		t.Fatalf("warm Walker.Accel allocates %v times per run, want 0", allocs)
	}
}
