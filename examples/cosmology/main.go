// Cosmology: a scaled-down version of the paper's §III run — dark matter
// particles with a neutralino free-streaming cutoff in the initial power
// spectrum, integrated in comoving coordinates from redshift 400 toward 31
// on multiple goroutine "ranks", with projected-density snapshots (the
// paper's Fig. 6) and diagnostics written along the way.
//
//	go run ./examples/cosmology [-np 16] [-steps 48] [-ranks 4] [-out out]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"greem"
	"greem/internal/analysis"
	"greem/internal/cosmo"
	"greem/internal/sim"
)

func main() {
	np := flag.Int("np", 16, "particles per dimension")
	steps := flag.Int("steps", 48, "full (PM) steps")
	ranks := flag.Int("ranks", 4, "goroutine ranks (must factor into the grid)")
	outDir := flag.String("out", "out", "output directory")
	flag.Parse()

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	const (
		l = 1.0 // comoving box (the paper's box is 600 pc; units are ours)
		g = 1.0
	)
	totalM := 1.0
	h0 := greem.HubbleForBox(g, totalM, l, 1.0)
	model := cosmo.EdS(h0) // matter-dominated at z ≥ 31, as in the paper's epoch

	aStart := greem.ScaleFactor(400)
	aEnd := greem.ScaleFactor(31)

	// Initial spectrum: structure only near the free-streaming cutoff.
	nmesh := nextPow2(2 * *np)
	ps := greem.NeutralinoCutoff{N: 0, Amp: 5e-5, KCut: 2 * math.Pi / l * float64(*np) / 4}
	parts, err := greem.GenerateIC(greem.ICConfig{
		NP: *np, NGrid: nmesh, L: l, PS: ps, Seed: 12345,
		Model: model, AInit: aStart, TotalMass: totalM,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial conditions: %d particles, a = %.5f (z = %.0f)\n",
		len(parts), aStart, greem.Redshift(aStart))

	grid, err := factorGrid(*ranks)
	if err != nil {
		log.Fatal(err)
	}
	cfg := greem.SimConfig{
		L: l, G: g,
		NMesh: nmesh, Theta: 0.5, Ni: 64, Eps2: 1e-8,
		Grid: grid, DT: (aEnd - aStart) / float64(*steps),
		Stepper: model, Time: aStart,
	}

	snapshots := []float64{greem.ScaleFactor(400), greem.ScaleFactor(70), greem.ScaleFactor(40), greem.ScaleFactor(31)}
	err = greem.Run(*ranks, func(c *greem.Comm) {
		var mine []greem.Particle
		for i, p := range parts {
			if i%*ranks == c.Rank() {
				mine = append(mine, p)
			}
		}
		s, err := greem.NewSimulation(c, cfg, mine)
		if err != nil {
			panic(err)
		}
		next := 0
		dump := func() {
			if next >= len(snapshots) || s.Time() < snapshots[next]-1e-12 {
				return
			}
			all := s.GatherAll(0)
			if c.Rank() == 0 {
				writeSnapshot(*outDir, s, all, l)
			}
			next++
		}
		dump()
		for i := 0; i < *steps; i++ {
			if err := s.Step(); err != nil {
				panic(err)
			}
			dump()
			if c.Rank() == 0 && (i+1)%8 == 0 {
				fmt.Printf("step %3d: a = %.5f (z = %.1f), local particles %d\n",
					i+1, s.Time(), greem.Redshift(s.Time()), s.NumLocal())
			}
		}
		// Final diagnostics (MeanNiNj is collective; print at rank 0).
		all := s.GatherAll(0)
		ni, nj := s.MeanNiNj()
		if c.Rank() == 0 {
			finalDiagnostics(*outDir, all, l)
			fmt.Printf("tree statistics: ⟨Ni⟩ = %.1f, ⟨Nj⟩ = %.1f\n", ni, nj)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
}

func writeSnapshot(dir string, s *sim.Sim, all []greem.Particle, l float64) {
	z := greem.Redshift(s.Time())
	x := make([]float64, len(all))
	y := make([]float64, len(all))
	m := make([]float64, len(all))
	for i, p := range all {
		x[i], y[i], m[i] = p.X, p.Y, p.M
	}
	img := analysis.ProjectXY(x, y, m, 256, l)
	name := filepath.Join(dir, fmt.Sprintf("density_z%04.0f.pgm", z))
	f, err := os.Create(name)
	if err != nil {
		log.Fatal(err)
	}
	if err := analysis.WritePGM(f, img); err != nil {
		log.Fatal(err)
	}
	f.Close()
	snap := filepath.Join(dir, fmt.Sprintf("snap_z%04.0f.bin", z))
	if err := greem.SaveSnapshot(snap, l, s.Time(), 1, uint64(s.StepIndex()), all); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s and %s (z = %.1f)\n", name, snap, z)
}

func finalDiagnostics(dir string, all []greem.Particle, l float64) {
	x := make([]float64, len(all))
	y := make([]float64, len(all))
	z := make([]float64, len(all))
	m := make([]float64, len(all))
	for i, p := range all {
		x[i], y[i], z[i], m[i] = p.X, p.Y, p.Z, p.M
	}
	ks, pk, _, err := greem.MeasurePowerSpectrum(x, y, z, m, 32, l, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("final power spectrum:")
	for i := range ks {
		fmt.Printf("  k = %7.1f  P = %.3e\n", ks[i], pk[i])
	}
	// The smallest structures: FoF halos at b = 0.2 of the mean separation.
	b := 0.2 * l / math.Cbrt(float64(len(all)))
	groups := greem.FindHalos(x, y, z, l, b, 16)
	halos := greem.HaloCatalog(x, y, z, m, l, groups)
	fmt.Printf("friends-of-friends: %d halos with >=16 particles\n", len(halos))
	for i, h := range halos {
		if i >= 5 {
			break
		}
		fmt.Printf("  halo %d: N=%d, M=%.2e, center (%.3f,%.3f,%.3f), R50=%.4f\n",
			i, h.N, h.Mass, h.Center.X, h.Center.Y, h.Center.Z, h.R50)
	}
	_ = dir
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// factorGrid splits p into three near-equal factors.
func factorGrid(p int) ([3]int, error) {
	best := [3]int{}
	found := false
	for a := 1; a*a*a <= p; a++ {
		if p%a != 0 {
			continue
		}
		q := p / a
		for b := a; b*b <= q; b++ {
			if q%b != 0 {
				continue
			}
			best = [3]int{q / b, b, a}
			found = true
		}
	}
	if !found {
		return best, fmt.Errorf("cannot factor %d ranks into a grid", p)
	}
	return best, nil
}
