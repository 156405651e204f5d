// figures regenerates the data behind each figure of the paper:
//
//	-fig 1   tree algorithm: particle-particle vs particle-multipole
//	         interaction counts as the opening angle varies
//	-fig 2   P3M vs TreePM: short-range cost on uniform vs clustered
//	         distributions (the O(n²) vs O(n log n) comparison)
//	-fig 3   sampling-method domain decomposition on a clustered field
//	         (also: examples/loadbalance writes the images)
//	-fig 4   the two PM mesh decompositions (local vs slab) for the
//	         6-process layout of the figure
//	-fig 5   the relay mesh method in the figure's exact configuration
//	         (also: examples/relaymesh)
//	-fig 6   scaled cosmological run with projected-density snapshots
//	         (delegates to examples/cosmology for the full run)
//	-fig ni  the ⟨Ni⟩ group-size sweep (optimum ≈100 on K computer)
//	-fig nj  pure periodic tree vs TreePM interaction lists (§I, §III-B)
//
//	go run ./cmd/figures -fig 2
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"time"

	"greem/internal/direct"
	"greem/internal/domain"
	"greem/internal/ewtab"
	"greem/internal/mpi"
	"greem/internal/pmpar"
	"greem/internal/tree"
	"greem/internal/treepm"
	"greem/internal/vec"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 1, 2, 3, 4, 5, 6, ni, nj")
	flag.Parse()
	switch *fig {
	case "1":
		fig1()
	case "2":
		fig2()
	case "3":
		fig3()
	case "4":
		fig4()
	case "5":
		fig5()
	case "6":
		fmt.Println("Fig. 6 (density snapshots z = 400 → 31) is produced by the cosmology example:")
		fmt.Println("  go run ./examples/cosmology -np 32 -steps 64 -ranks 8 -out out")
		fmt.Println("which writes density_z*.pgm projections and snap_z*.bin snapshots.")
	case "ni":
		figNi()
	case "nj":
		figNj()
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func clustered(rng *rand.Rand, n int) (x, y, z, m []float64) {
	x = make([]float64, n)
	y = make([]float64, n)
	z = make([]float64, n)
	m = make([]float64, n)
	for i := 0; i < n; i++ {
		if i%4 == 0 {
			x[i], y[i], z[i] = rng.Float64(), rng.Float64(), rng.Float64()
		} else {
			p := vec.Wrap(vec.V3{
				X: 0.5 + 0.02*rng.NormFloat64(),
				Y: 0.5 + 0.02*rng.NormFloat64(),
				Z: 0.5 + 0.02*rng.NormFloat64(),
			}, 1)
			x[i], y[i], z[i] = p.X, p.Y, p.Z
		}
		m[i] = 1.0 / float64(n)
	}
	return
}

func uniform(rng *rand.Rand, n int) (x, y, z, m []float64) {
	x = make([]float64, n)
	y = make([]float64, n)
	z = make([]float64, n)
	m = make([]float64, n)
	for i := 0; i < n; i++ {
		x[i], y[i], z[i], m[i] = rng.Float64(), rng.Float64(), rng.Float64(), 1.0/float64(n)
	}
	return
}

// fig1: the hierarchical tree algorithm — how the multipole acceptance
// replaces particle-particle work as θ grows.
func fig1() {
	rng := rand.New(rand.NewSource(1))
	x, y, z, m := clustered(rng, 20000)
	tr, err := tree.Build(x, y, z, m, tree.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	n := len(x)
	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)
	fmt.Println("Fig. 1 — tree algorithm: interaction-list composition vs opening angle θ")
	fmt.Printf("%-8s %16s %16s %14s %12s\n", "θ", "particle entries", "multipole entries", "interactions", "⟨Nj⟩")
	for _, theta := range []float64{0.1, 0.3, 0.5, 0.75, 1.0} {
		st := tree.Accel(tr, tr, 64, tree.ForceOpts{G: 1, Theta: theta, Eps2: 1e-8}, ax, ay, az)
		fmt.Printf("%-8.2f %16d %16d %14d %12.0f\n",
			theta, st.ListParticles, st.ListNodes, st.Interactions, st.MeanNj())
	}
	fmt.Printf("\ndirect summation would need %d interactions (N²)\n", n*n)
}

// fig2: P3M vs TreePM — the short-range cost explosion in clustered regions.
func fig2() {
	fmt.Println("Fig. 2 — P3M vs TreePM short-range cost (per force evaluation)")
	fmt.Printf("%-12s %10s %16s %12s %16s %12s\n",
		"distribution", "N", "P3M pairs", "P3M time", "TreePM inter.", "tree time")
	for _, c := range []struct {
		name      string
		clustered bool
		n         int
	}{
		{"uniform", false, 4000}, {"uniform", false, 16000},
		{"clustered", true, 4000}, {"clustered", true, 16000},
	} {
		rng := rand.New(rand.NewSource(2))
		var x, y, z, m []float64
		if c.clustered {
			x, y, z, m = clustered(rng, c.n)
		} else {
			x, y, z, m = uniform(rng, c.n)
		}
		s, err := treepm.New(treepm.Config{L: 1, G: 1, NMesh: 16, Ni: 100, Eps2: 1e-8})
		if err != nil {
			log.Fatal(err)
		}
		ax := make([]float64, c.n)
		ay := make([]float64, c.n)
		az := make([]float64, c.n)

		t0 := time.Now()
		pairs := direct.AccelCutoffCells(x, y, z, m, 1, 1, s.Config().Rcut, 1e-8, ax, ay, az)
		p3mTime := time.Since(t0)

		t1 := time.Now()
		st, err := s.Accel(x, y, z, m, ax, ay, az)
		if err != nil {
			log.Fatal(err)
		}
		treeTime := time.Since(t1)
		fmt.Printf("%-12s %10d %16d %12v %16d %12v\n",
			c.name, c.n, pairs, p3mTime.Round(time.Millisecond),
			st.Tree.Interactions, treeTime.Round(time.Millisecond))
	}
	fmt.Println("\n(P3M evaluates every pair inside cutoff spheres directly: a cell 1000×")
	fmt.Println(" overdense costs 10⁶× more; the tree replaces that with O(n log n).)")
}

// fig3: the adaptive decomposition equalizes load on a clustered field.
func fig3() {
	rng := rand.New(rand.NewSource(3))
	x, y, z, _ := clustered(rng, 100000)
	pts := make([]vec.V3, len(x))
	for i := range x {
		pts[i] = vec.V3{X: x[i], Y: y[i], Z: z[i]}
	}
	fmt.Println("Fig. 3 — domain decomposition (8×8 division, 2-D projection)")
	static := domain.Uniform(8, 8, 1, 1)
	adaptive, err := domain.FromSamples(8, 8, 1, 1, append([]vec.V3(nil), pts...))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static uniform:   load imbalance (max/mean) = %.2f\n",
		domain.Imbalance(domain.CountLoads(static, pts)))
	fmt.Printf("sampling method:  load imbalance (max/mean) = %.2f\n",
		domain.Imbalance(domain.CountLoads(adaptive, pts)))
	fmt.Println("x-boundaries of the adaptive decomposition (dense center ⇒ small domains):")
	for i, b := range adaptive.BX {
		fmt.Printf("  BX[%d] = %.4f\n", i, b)
	}
	fmt.Println("(images: go run ./examples/loadbalance)")
}

// fig4: the two domain decompositions of the PM method for six processes.
func fig4() {
	fmt.Println("Fig. 4 — PM mesh layouts for 6 processes, 8³ mesh, 4 FFT processes")
	geo := domain.Uniform(3, 2, 1, 1)
	cfg := pmpar.Config{N: 8, L: 1, G: 1, Rcut: 3.0 / 8, NFFT: 4}
	err := mpi.Run(6, func(c *mpi.Comm) {
		lo, hi := geo.Bounds(c.Rank())
		s, err := pmpar.New(c, cfg, lo, hi)
		if err != nil {
			panic(err)
		}
		lm := s.LocalMesh()
		for r := 0; r < 6; r++ {
			if r == c.Rank() {
				fftNote := ""
				if s.IsFFTProcess() {
					fftNote = fmt.Sprintf("  [FFT process: slab planes of x]")
				}
				fmt.Printf("p%d: domain x∈[%.2f,%.2f) y∈[%.2f,%.2f) — local mesh origin (%d,%d,%d), extent %d×%d×%d%s\n",
					c.Rank(), lo.X, hi.X, lo.Y, hi.Y, lm.X0, lm.Y0, lm.Z0, lm.NX, lm.NY, lm.NZ, fftNote)
			}
			c.Barrier()
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("(upper panel: rectangular local meshes with ghost layers;")
	fmt.Println(" bottom panel: 1-D x-slabs on the FFT processes — see pmpar)")
}

// fig5: the relay mesh method in the figure's configuration.
func fig5() {
	fmt.Println("Fig. 5 — relay mesh method: run `go run ./examples/relaymesh` for the")
	fmt.Println("full 36-process, 4-group execution with traffic analysis; summary here:")
	geo := domain.Uniform(6, 6, 1, 1)
	cfg := pmpar.Config{N: 8, L: 1, G: 1, Rcut: 3.0 / 8, NFFT: 8, Relay: true, Groups: 4}
	err := mpi.Run(36, func(c *mpi.Comm) {
		lo, hi := geo.Bounds(c.Rank())
		s, err := pmpar.New(c, cfg, lo, hi)
		if err != nil {
			panic(err)
		}
		x := []float64{(lo.X + hi.X) / 2}
		y := []float64{(lo.Y + hi.Y) / 2}
		z := []float64{0.5}
		m := []float64{1.0 / 36}
		ax := make([]float64, 1)
		ay := make([]float64, 1)
		az := make([]float64, 1)
		s.Accel(x, y, z, m, ax, ay, az)
		c.Barrier()
		if c.Rank() == 0 {
			fmt.Printf("36 processes in 4 groups of 9; 8 of the root group perform the FFT.\n")
			fmt.Printf("conversion verified: one PM cycle completed, |a₀| = %.3e\n",
				math.Sqrt(ax[0]*ax[0]+ay[0]*ay[0]+az[0]*az[0]))
		}
	})
	if err != nil {
		log.Fatal(err)
	}
}

// figNi: the group-size trade-off of Barnes' modified algorithm.
func figNi() {
	rng := rand.New(rand.NewSource(4))
	x, y, z, m := clustered(rng, 30000)
	tr, err := tree.Build(x, y, z, m, tree.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	n := len(x)
	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)
	opt := tree.ForceOpts{G: 1, Theta: 0.5, Eps2: 1e-8, Cutoff: true, Rcut: 0.15, Periodic: true, L: 1}
	fmt.Println("⟨Ni⟩ sweep — traversal cost falls, kernel cost rises (paper: optimum ≈100 on K)")
	fmt.Printf("%-8s %10s %10s %12s %14s %12s\n", "Ni cap", "⟨Ni⟩", "⟨Nj⟩", "visits", "interactions", "time")
	for _, ni := range []int{1, 8, 32, 100, 500, 2000} {
		t0 := time.Now()
		st := tree.Accel(tr, tr, ni, opt, ax, ay, az)
		el := time.Since(t0)
		fmt.Printf("%-8d %10.1f %10.0f %12d %14d %12v\n",
			ni, st.MeanNi(), st.MeanNj(), st.NodesVisited, st.Interactions, el.Round(time.Millisecond))
	}
}

// figNj: the §I operation-count argument — the pure periodic tree (Ewald-
// corrected, as the pre-TreePM Gordon-Bell codes would run under periodic
// boundaries) vs the TreePM short-range walk, same tree, same θ.
func figNj() {
	rng := rand.New(rand.NewSource(5))
	x, y, z, m := clustered(rng, 30000)
	tr, err := tree.Build(x, y, z, m, tree.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	tab, err := ewtab.New(1, 16, nil)
	if err != nil {
		log.Fatal(err)
	}
	n := len(x)
	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)
	fmt.Println("Pure periodic tree vs TreePM short-range walk (θ = 0.5, ⟨Ni⟩ cap 100):")
	fmt.Printf("%-28s %10s %14s %12s\n", "method", "⟨Nj⟩", "interactions", "time")
	t0 := time.Now()
	pure := tree.AccelPeriodicTree(tr, tr, 100, tree.ForceOpts{G: 1, Theta: 0.5, Eps2: 1e-9, L: 1}, tab, ax, ay, az)
	fmt.Printf("%-28s %10.0f %14d %12v\n", "pure tree + Ewald table", pure.MeanNj(), pure.Interactions, time.Since(t0).Round(time.Millisecond))
	t1 := time.Now()
	cut := tree.Accel(tr, tr, 100, tree.ForceOpts{G: 1, Theta: 0.5, Eps2: 1e-9, Cutoff: true, Rcut: 3.0 / 32, Periodic: true, L: 1}, ax, ay, az)
	fmt.Printf("%-28s %10.0f %14d %12v\n", "TreePM short-range (rcut=3h)", cut.MeanNj(), cut.Interactions, time.Since(t1).Round(time.Millisecond))
	fmt.Printf("\nlist-length ratio %.1f (grows ~log N: ≈6 at the paper's 10¹² particles, §III-B);\n", pure.MeanNj()/cut.MeanNj())
	fmt.Println("the TreePM walk also tolerates a larger θ at equal total accuracy (§I).")
}
