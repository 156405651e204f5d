// Cluster: a self-gravitating Plummer sphere evolved with the pure tree code
// (open boundary, no PM) — the classic collisionless test, and the regime
// the pre-TreePM Gordon-Bell winners ran. Tracks energy conservation and the
// virial ratio, and demonstrates Barnes' modified algorithm (grouped
// traversal) standalone.
//
//	go run ./examples/cluster [-n 4096] [-steps 100]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"

	"greem/internal/direct"
	"greem/internal/tree"
)

func main() {
	n := flag.Int("n", 4096, "particles")
	steps := flag.Int("steps", 100, "leapfrog steps")
	flag.Parse()

	// Plummer model in virial units (G = M = 1, E = −1/4), standard
	// Aarseth-Henon-Wielen construction.
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, *n)
	y := make([]float64, *n)
	z := make([]float64, *n)
	vx := make([]float64, *n)
	vy := make([]float64, *n)
	vz := make([]float64, *n)
	m := make([]float64, *n)
	a := 3 * math.Pi / 16 // Plummer scale for virial units
	for i := 0; i < *n; i++ {
		m[i] = 1.0 / float64(*n)
		r := a / math.Sqrt(math.Pow(rng.Float64()*0.999+1e-10, -2.0/3.0)-1)
		x[i], y[i], z[i] = randDir(rng, r)
		// Velocity from the isotropic distribution function via rejection;
		// escape velocity v_e(r) = √2·(r²+a²)^(−1/4) for G = M = 1.
		ve := math.Sqrt(2) * math.Pow(r*r+a*a, -0.25)
		var q float64
		for {
			q = rng.Float64()
			g := rng.Float64() * 0.1
			if g < q*q*math.Pow(1-q*q, 3.5) {
				break
			}
		}
		vx[i], vy[i], vz[i] = randDir(rng, q*ve)
	}

	eps2 := math.Pow(0.02*a, 2)
	opt := tree.ForceOpts{G: 1, Theta: 0.5, Eps2: eps2}
	ax := make([]float64, *n)
	ay := make([]float64, *n)
	az := make([]float64, *n)
	forces := func() tree.Stats {
		tr, err := tree.Build(x, y, z, m, tree.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		for i := range ax {
			ax[i], ay[i], az[i] = 0, 0, 0
		}
		return tree.Accel(tr, tr, 100, opt, ax, ay, az)
	}
	energy := func() (kin, pot float64) {
		return direct.EnergyPlain(x, y, z, vx, vy, vz, m, 1, eps2)
	}

	k0, p0 := energy()
	e0 := k0 + p0
	fmt.Printf("Plummer sphere, N = %d: E₀ = %.4f (virial units expect −0.25), 2T/|W| = %.3f\n",
		*n, e0, 2*k0/math.Abs(p0))

	st := forces()
	dt := 0.01
	for s := 0; s < *steps; s++ {
		for i := range x {
			vx[i] += 0.5 * dt * ax[i]
			vy[i] += 0.5 * dt * ay[i]
			vz[i] += 0.5 * dt * az[i]
			x[i] += dt * vx[i]
			y[i] += dt * vy[i]
			z[i] += dt * vz[i]
		}
		st = forces()
		for i := range x {
			vx[i] += 0.5 * dt * ax[i]
			vy[i] += 0.5 * dt * ay[i]
			vz[i] += 0.5 * dt * az[i]
		}
		if (s+1)%20 == 0 {
			k, p := energy()
			fmt.Printf("t = %5.2f: E = %.4f (drift %+.2e), 2T/|W| = %.3f, ⟨Ni⟩ = %.0f, ⟨Nj⟩ = %.0f\n",
				float64(s+1)*dt, k+p, (k+p-e0)/math.Abs(e0), 2*k/math.Abs(p), st.MeanNi(), st.MeanNj())
		}
	}
	k1, p1 := energy()
	fmt.Printf("final energy drift: %.2e over %d steps\n", (k1+p1-e0)/math.Abs(e0), *steps)
}

func randDir(rng *rand.Rand, r float64) (float64, float64, float64) {
	ct := 2*rng.Float64() - 1
	st := math.Sqrt(1 - ct*ct)
	ph := 2 * math.Pi * rng.Float64()
	return r * st * math.Cos(ph), r * st * math.Sin(ph), r * ct
}
