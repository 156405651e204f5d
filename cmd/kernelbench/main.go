// kernelbench reproduces §II-A's kernel experiment: a pure O(N²) benchmark
// of the particle-particle force loop. It reports the measured throughput of
// the scalar float64 oracle, the plain Newtonian loop, and the float32 family
// — scalar (math.Sqrt) against the SIMD batch kernel with the approximate
// rsqrt seed + third-order refinement, the §II-A ablation — as interactions/s
// and effective Gflops at the paper's 51-op count, and the K computer model
// figures the paper quotes — the
// 12 Gflops/core ceiling implied by the 17 FMA + 17 non-FMA instruction mix
// and the 11.65 Gflops (97%) the tuned loop reaches.
//
//	go run ./cmd/kernelbench [-ni 1024] [-nj 1024] [-reps 20]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"time"

	"greem/internal/perfmodel"
	"greem/internal/ppkern"
)

func main() {
	ni := flag.Int("ni", 1024, "number of i-particles")
	nj := flag.Int("nj", 1024, "number of j-particles")
	reps := flag.Int("reps", 20, "repetitions")
	flag.Parse()

	rng := rand.New(rand.NewSource(1))
	src := &ppkern.Source{}
	for j := 0; j < *nj; j++ {
		src.Append(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
	}
	xi := make([]float64, *ni)
	yi := make([]float64, *ni)
	zi := make([]float64, *ni)
	ax := make([]float64, *ni)
	ay := make([]float64, *ni)
	az := make([]float64, *ni)
	for i := range xi {
		xi[i], yi[i], zi[i] = rng.Float64(), rng.Float64(), rng.Float64()
	}
	const rcut, eps2 = 0.4, 1e-10

	bench := func(name string, f func() uint64) {
		// Warm up, then time.
		f()
		start := time.Now()
		var inter uint64
		for r := 0; r < *reps; r++ {
			inter += f()
		}
		el := time.Since(start).Seconds()
		perInter := el / float64(inter)
		gflops := float64(inter) * float64(ppkern.FlopsPerInteraction) / el / 1e9
		fmt.Printf("%-28s %8.2f ns/interaction  %8.2f \"Gflops\" (51 ops/interaction)\n",
			name, perInter*1e9, gflops)
	}

	fmt.Printf("O(N²) kernel benchmark: %d × %d interactions, %d reps\n\n", *ni, *nj, *reps)
	bench("float64 scalar (oracle)", func() uint64 {
		return ppkern.AccelCutoff(xi, yi, zi, src, 1, rcut, eps2, ax, ay, az)
	})
	bench("plain Newtonian (no cutoff)", func() uint64 {
		return ppkern.AccelPlain(xi, yi, zi, src, 1, eps2, ax, ay, az)
	})

	// Float32 variants on the same geometry (coordinates are already O(1),
	// the scale the group-relative batches guarantee in the tree walk).
	src32 := &ppkern.SourceF32{}
	for j := 0; j < src.Len(); j++ {
		src32.Append(float32(src.X[j]), float32(src.Y[j]), float32(src.Z[j]), float32(src.M[j]))
	}
	xi32 := make([]float32, *ni)
	yi32 := make([]float32, *ni)
	zi32 := make([]float32, *ni)
	for i := range xi {
		xi32[i], yi32[i], zi32[i] = float32(xi[i]), float32(yi[i]), float32(zi[i])
	}
	bench("float32 scalar (math.Sqrt)", func() uint64 {
		return ppkern.AccelCutoffF32(xi32, yi32, zi32, src32, 1, rcut, eps2, ax, ay, az)
	})
	bench("float32 SIMD (seed+refine)", func() uint64 {
		return ppkern.AccelCutoffF32Fast(xi32, yi32, zi32, src32, 1, rcut, eps2, ax, ay, az)
	})

	m := perfmodel.KComputer()
	fmt.Printf("\nK computer model (SPARC64 VIIIfx, HPC-ACE):\n")
	fmt.Printf("  peak per core:            %5.1f Gflops (4 FMA × 2 × 2.0 GHz)\n", m.PeakCoreFlops()/1e9)
	fmt.Printf("  kernel ceiling:           %5.1f Gflops (17 FMA + 17 non-FMA per 2 interactions ⇒ 75%% of peak)\n",
		m.PeakCoreFlops()*m.KernelCeiling/1e9)
	fmt.Printf("  achieved (paper):         %5.2f Gflops = 97%% of the ceiling\n", m.KernelCoreFlops()/1e9)
	fmt.Printf("  node (8 cores):           %5.1f Gflops peak, %5.1f in the force loop\n",
		m.PeakNodeFlops()/1e9, m.KernelCoreFlops()*8/1e9)
	fmt.Printf("  full system (82944):      %5.1f Pflops peak\n", 82944*m.PeakNodeFlops()/1e15)
}
