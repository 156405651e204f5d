// Quickstart: compute TreePM forces for a small periodic system, compare
// them against exact Ewald summation, and advance a few leapfrog steps.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"greem"
)

func main() {
	const (
		n = 256
		l = 1.0
		g = 1.0
	)
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	m := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i], y[i], z[i] = rng.Float64(), rng.Float64(), rng.Float64()
		m[i] = 1.0 / n
	}

	// The TreePM solver: tree below rcut = 3 mesh cells, PM above.
	solver, err := greem.NewTreePM(greem.TreePMConfig{
		L: l, G: g, NMesh: 32, Theta: 0.5, Ni: 100, Eps2: 1e-8,
	})
	if err != nil {
		log.Fatal(err)
	}
	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)
	stats, err := solver.Accel(x, y, z, m, ax, ay, az)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TreePM force evaluation over %d particles:\n", n)
	fmt.Printf("  tree groups %d, ⟨Ni⟩ = %.1f, ⟨Nj⟩ = %.1f, %d pairwise interactions\n",
		stats.Tree.Groups, stats.Tree.MeanNi(), stats.Tree.MeanNj(), stats.Tree.Interactions)
	fmt.Printf("  tree build %v, traversal+kernel %v, PM %v\n",
		stats.TreeBuild, stats.TreeTraverse, stats.PMTime)

	// Accuracy against exact Ewald summation.
	ew := greem.NewEwald(l, g)
	rx := make([]float64, n)
	ry := make([]float64, n)
	rz := make([]float64, n)
	ew.Accel(x, y, z, m, rx, ry, rz)
	var e2, r2 float64
	for i := 0; i < n; i++ {
		dx, dy, dz := ax[i]-rx[i], ay[i]-ry[i], az[i]-rz[i]
		e2 += dx*dx + dy*dy + dz*dz
		r2 += rx[i]*rx[i] + ry[i]*ry[i] + rz[i]*rz[i]
	}
	fmt.Printf("  RMS force error vs Ewald: %.2e\n", math.Sqrt(e2/r2))

	// A few KDK leapfrog steps with the same solver.
	vx := make([]float64, n)
	vy := make([]float64, n)
	vz := make([]float64, n)
	const dt = 0.005
	for step := 0; step < 5; step++ {
		for i := 0; i < n; i++ {
			vx[i] += 0.5 * dt * ax[i]
			vy[i] += 0.5 * dt * ay[i]
			vz[i] += 0.5 * dt * az[i]
			x[i] = wrap(x[i]+dt*vx[i], l)
			y[i] = wrap(y[i]+dt*vy[i], l)
			z[i] = wrap(z[i]+dt*vz[i], l)
			ax[i], ay[i], az[i] = 0, 0, 0
		}
		if _, err := solver.Accel(x, y, z, m, ax, ay, az); err != nil {
			log.Fatal(err)
		}
		for i := 0; i < n; i++ {
			vx[i] += 0.5 * dt * ax[i]
			vy[i] += 0.5 * dt * ay[i]
			vz[i] += 0.5 * dt * az[i]
		}
	}
	var kin float64
	for i := 0; i < n; i++ {
		kin += 0.5 * m[i] * (vx[i]*vx[i] + vy[i]*vy[i] + vz[i]*vz[i])
	}
	fmt.Printf("after 5 leapfrog steps: kinetic energy %.3e\n", kin)
}

func wrap(v, l float64) float64 {
	v = math.Mod(v, l)
	if v < 0 {
		v += l
	}
	return v
}
