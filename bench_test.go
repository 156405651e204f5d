// Benchmarks regenerating the paper's tables and figures, one per exhibit
// (see DESIGN.md's experiment index and EXPERIMENTS.md for recorded output):
//
//	BenchmarkTableI*          Table I   — step cost model + scaled measured step
//	BenchmarkFig1*            Fig. 1    — tree interaction-list composition
//	BenchmarkFig2*            Fig. 2    — P3M vs TreePM short-range cost
//	BenchmarkFig3*            Fig. 3    — sampling-method decomposition
//	BenchmarkFig5* / Relay*   Fig. 5    — naive vs relay mesh conversion
//	BenchmarkFig6*            Fig. 6    — cosmological step with snapshots
//	BenchmarkKernel*          §II-A     — force-kernel variants (51-op Gflops)
//	BenchmarkNiSweep          §II       — Barnes group-size optimum
//	BenchmarkForceErrorSweep  §III-A    — force accuracy at the operating point
//	BenchmarkPureTreeVs*      §I/§III-B — pure periodic tree vs TreePM lists
//	BenchmarkPencilVsSlabFFT  §IV       — the future-work FFT decomposition
package greem

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"greem/internal/direct"
	"greem/internal/domain"
	"greem/internal/ewald"
	"greem/internal/ewtab"
	"greem/internal/ic"
	"greem/internal/mpi"
	"greem/internal/perfmodel"
	"greem/internal/pfft"
	"greem/internal/pmpar"
	"greem/internal/ppkern"
	"greem/internal/sim"
	"greem/internal/telemetry"
	"greem/internal/tree"
	"greem/internal/treepm"
	"greem/internal/vec"

	gcosmo "greem/internal/cosmo"
)

func uniformSet(seed int64, n int) (x, y, z, m []float64) {
	rng := rand.New(rand.NewSource(seed))
	x = make([]float64, n)
	y = make([]float64, n)
	z = make([]float64, n)
	m = make([]float64, n)
	for i := 0; i < n; i++ {
		x[i], y[i], z[i], m[i] = rng.Float64(), rng.Float64(), rng.Float64(), 1.0/float64(n)
	}
	return
}

func clusteredSet(seed int64, n int) (x, y, z, m []float64) {
	rng := rand.New(rand.NewSource(seed))
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

// --- Table I ---

// BenchmarkTableIModel evaluates the full analytic Table I (both node
// counts) and reports the headline Pflops figures as custom metrics.
func BenchmarkTableIModel(b *testing.B) {
	m := perfmodel.KComputer()
	r := perfmodel.KTableIRates()
	var p24, p82 float64
	for i := 0; i < b.N; i++ {
		c24 := perfmodel.ModelTableI(m, r, 24576, 1.073741824e12, 5.35e15, 4096, [3]int{32, 24, 32}, 4096, 6)
		c82 := perfmodel.ModelTableI(m, r, 82944, 1.073741824e12, 5.30e15, 4096, [3]int{32, 54, 48}, 4096, 18)
		p24, p82 = c24.Pflops(), c82.Pflops()
	}
	b.ReportMetric(p24, "model-Pflops@24576")
	b.ReportMetric(p82, "model-Pflops@82944")
	b.ReportMetric(1.53, "paper-Pflops@24576")
	b.ReportMetric(4.45, "paper-Pflops@82944")
}

// BenchmarkTableIScaledStep times one full distributed step (1 PM + 2 PP +
// 2 DD) of the real code at laptop scale — the measured counterpart whose
// phase breakdown cmd/tableone -run prints.
func BenchmarkTableIScaledStep(b *testing.B) {
	x, y, z, m := uniformSet(1, 8192)
	parts := make([]sim.Particle, len(x))
	for i := range parts {
		parts[i] = sim.Particle{X: x[i], Y: y[i], Z: z[i], M: m[i], ID: int64(i)}
	}
	cfg := sim.Config{
		L: 1, G: 1, NMesh: 32, Theta: 0.5, Ni: 100, Eps2: 1e-8,
		Grid: [3]int{2, 2, 2}, DT: 0.005,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(8, func(c *mpi.Comm) {
			var mine []sim.Particle
			for j := range parts {
				if j%8 == c.Rank() {
					mine = append(mine, parts[j])
				}
			}
			s, err := sim.New(c, cfg, mine)
			if err != nil {
				panic(err)
			}
			if err := s.Step(); err != nil {
				panic(err)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- §II-B ghost exchange: the locally-essential tree ---

// benchGhostExchange steps a clustered 64³ system on 8 ranks once per
// iteration and reports the ghost-alltoall traffic (from the labelled mpi
// ledger) plus rank 0's exchange wall-clock. EXPERIMENTS.md records the
// harvested pair against the raw particle-ghost exchange this replaced.
func benchGhostExchange(b *testing.B) {
	const np = 64
	x, y, z, m := clusteredSet(21, np*np*np)
	parts := make([]sim.Particle, len(x))
	for i := range parts {
		parts[i] = sim.Particle{X: x[i], Y: y[i], Z: z[i], M: m[i], ID: int64(i)}
	}
	cfg := sim.Config{
		L: 1, G: 1, NMesh: 64, Theta: 0.5, Ni: 100, Eps2: 1e-8,
		Grid: [3]int{2, 2, 2}, DT: 0.005, DeterministicCost: true,
	}
	var ghostOps mpi.OpTotals
	var sent, commS, letS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tr *mpi.Traffic
		err := mpi.Run(8, func(c *mpi.Comm) {
			rcfg := cfg
			rcfg.Recorder = telemetry.NewRecorder(c.Rank(), nil)
			var mine []sim.Particle
			for j := range parts {
				if j%8 == c.Rank() {
					mine = append(mine, parts[j])
				}
			}
			s, err := sim.New(c, rcfg, mine)
			if err != nil {
				panic(err)
			}
			c.Barrier()
			if c.Rank() == 0 {
				c.Traffic().Reset()
			}
			c.Barrier()
			if err := s.Step(); err != nil {
				panic(err)
			}
			c.Barrier()
			if c.Rank() == 0 {
				tr = c.Traffic()
				t := s.Timers()
				commS, letS = t.PPComm, t.PPLET
				sent = float64(s.GhostStats().Sent)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		ghostOps = tr.TotalsByLabel()[sim.TrafficLabelGhosts]
	}
	b.ReportMetric(float64(ghostOps.Bytes), "ghost-alltoall-B")
	b.ReportMetric(sent, "rank0-sources-sent")
	b.ReportMetric(commS, "rank0-comm-s")
	b.ReportMetric(letS, "rank0-letwalk-s")
}

func BenchmarkGhostExchange64(b *testing.B) { b.Run("let", benchGhostExchange) }

// --- overlapped step pipeline: PM solve hidden behind PP ---

// benchStepOverlap times warm full steps of a clustered 64³ system on 8
// ranks: one op is one step. Set-up and the first four steps — which grow
// the builder arenas, exchange buffers and mesh windows to their working
// size, as the cold and warm-up steps of `go run ./bench` do — run before the
// timer starts and with allocation sampling switched off, so B/op, allocs/op
// and a -memprofile (make alloc-profile) hold the steady state only.
// rank0-step-s is the last step's wall (EXPERIMENTS.md records the harvested
// pair against the sequential step order); hidden-s is the PM solve
// wall-clock per step that cost no critical path.
func benchStepOverlap(b *testing.B) {
	b.ReportAllocs()
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 0
	defer func() { runtime.MemProfileRate = rate }()

	const np = 64
	x, y, z, m := clusteredSet(21, np*np*np)
	parts := make([]sim.Particle, len(x))
	for i := range parts {
		parts[i] = sim.Particle{X: x[i], Y: y[i], Z: z[i], M: m[i], ID: int64(i)}
	}
	cfg := sim.Config{
		L: 1, G: 1, NMesh: 64, Theta: 0.5, Ni: 100, Eps2: 1e-8,
		Grid: [3]int{2, 2, 2}, DT: 0.005, DeterministicCost: true,
	}
	var stepS, hiddenS, windowS, pmSolveS float64
	err := mpi.Run(8, func(c *mpi.Comm) {
		var mine []sim.Particle
		for j := range parts {
			if j%8 == c.Rank() {
				mine = append(mine, parts[j])
			}
		}
		s, err := sim.New(c, cfg, mine)
		if err != nil {
			panic(err)
		}
		const warmSteps = 4
		for i := 0; i < warmSteps; i++ {
			if err := s.Step(); err != nil {
				panic(err)
			}
		}
		warm := s.OverlapStats()
		// The other ranks wait between the two barriers while rank 0 opens
		// the measured window.
		c.Barrier()
		if c.Rank() == 0 {
			runtime.MemProfileRate = rate
			b.ResetTimer()
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if err := s.Step(); err != nil {
				panic(err)
			}
			c.Barrier()
			if c.Rank() == 0 {
				stepS = time.Since(t0).Seconds()
			}
		}
		if c.Rank() == 0 {
			b.StopTimer()
			runtime.MemProfileRate = 0
			ov := s.OverlapStats()
			hiddenS = (ov.HiddenSeconds - warm.HiddenSeconds) / float64(b.N)
			windowS = ov.LastWindowSeconds
			// The hideable share: PM comm+FFT wall-clock per step (the
			// solve the async stage moves off the critical path).
			t := s.Timers()
			pmSolveS = (t.PM.Comm + t.PM.FFT).Seconds() / float64(warmSteps+b.N)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(stepS, "rank0-step-s")
	b.ReportMetric(hiddenS, "hidden-s")
	b.ReportMetric(windowS, "window-s")
	b.ReportMetric(pmSolveS, "pm-commfft-s")
}

func BenchmarkStepOverlap64(b *testing.B) { b.Run("overlap", benchStepOverlap) }

// --- Fig. 1 ---

func BenchmarkFig1TreeInteractions(b *testing.B) {
	x, y, z, m := clusteredSet(2, 20000)
	tr, err := tree.Build(x, y, z, m, tree.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	ax := make([]float64, len(x))
	ay := make([]float64, len(x))
	az := make([]float64, len(x))
	var st tree.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = tree.Accel(tr, tr, 64, tree.ForceOpts{G: 1, Theta: 0.5, Eps2: 1e-8}, ax, ay, az)
	}
	b.ReportMetric(float64(st.ListParticles), "particle-entries")
	b.ReportMetric(float64(st.ListNodes), "multipole-entries")
	b.ReportMetric(st.MeanNj(), "mean-Nj")
}

// --- Fig. 2 ---

func BenchmarkFig2P3MShortRange(b *testing.B) {
	for _, c := range []struct {
		name string
		gen  func(int64, int) ([]float64, []float64, []float64, []float64)
	}{{"uniform", uniformSet}, {"clustered", clusteredSet}} {
		b.Run(c.name, func(b *testing.B) {
			x, y, z, m := c.gen(3, 8000)
			ax := make([]float64, len(x))
			ay := make([]float64, len(x))
			az := make([]float64, len(x))
			var pairs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pairs = direct.AccelCutoffCells(x, y, z, m, 1, 1, 3.0/16, 1e-8, ax, ay, az)
			}
			b.ReportMetric(float64(pairs), "pairs")
		})
	}
}

func BenchmarkFig2TreePMShortRange(b *testing.B) {
	for _, c := range []struct {
		name string
		gen  func(int64, int) ([]float64, []float64, []float64, []float64)
	}{{"uniform", uniformSet}, {"clustered", clusteredSet}} {
		b.Run(c.name, func(b *testing.B) {
			x, y, z, m := c.gen(3, 8000)
			ax := make([]float64, len(x))
			ay := make([]float64, len(x))
			az := make([]float64, len(x))
			var st tree.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr, err := tree.Build(x, y, z, m, tree.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				st = tree.Accel(tr, tr, 100, tree.ForceOpts{
					G: 1, Theta: 0.5, Eps2: 1e-8, Cutoff: true, Rcut: 3.0 / 16, Periodic: true, L: 1,
				}, ax, ay, az)
			}
			b.ReportMetric(float64(st.Interactions), "interactions")
		})
	}
}

// --- Fig. 3 ---

func BenchmarkFig3LoadBalance(b *testing.B) {
	x, y, z, _ := clusteredSet(4, 100000)
	pts := make([]vec.V3, len(x))
	for i := range x {
		pts[i] = vec.V3{X: x[i], Y: y[i], Z: z[i]}
	}
	var imb float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geo, err := domain.FromSamples(8, 8, 1, 1, append([]vec.V3(nil), pts...))
		if err != nil {
			b.Fatal(err)
		}
		imb = domain.Imbalance(domain.CountLoads(geo, pts))
	}
	b.ReportMetric(imb, "imbalance")
	b.ReportMetric(domain.Imbalance(domain.CountLoads(domain.Uniform(8, 8, 1, 1), pts)), "static-imbalance")
}

// --- Fig. 5 / §II-B relay mesh ---

func benchPMCycle(b *testing.B, relay bool, groups int) {
	x, y, z, m := uniformSet(5, 4096)
	geo := domain.Uniform(4, 2, 2, 1)
	owner := make([][]int, 16)
	for i := range x {
		r := geo.Find(vec.V3{X: x[i], Y: y[i], Z: z[i]})
		owner[r] = append(owner[r], i)
	}
	cfg := pmpar.Config{N: 32, L: 1, G: 1, Rcut: 3.0 / 32, NFFT: 8, Relay: relay, Groups: groups}
	var modeled float64
	var a2aBytes int64
	machine := perfmodel.KComputer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ops []mpi.Op
		err := mpi.Run(16, func(c *mpi.Comm) {
			lo, hi := geo.Bounds(c.Rank())
			s, err := pmpar.New(c, cfg, lo, hi)
			if err != nil {
				panic(err)
			}
			c.Traffic().Reset()
			ids := owner[c.Rank()]
			lx := make([]float64, len(ids))
			ly := make([]float64, len(ids))
			lz := make([]float64, len(ids))
			lm := make([]float64, len(ids))
			for k, id := range ids {
				lx[k], ly[k], lz[k], lm[k] = x[id], y[id], z[id], m[id]
			}
			la := make([]float64, len(ids))
			lb := make([]float64, len(ids))
			lc := make([]float64, len(ids))
			s.Accel(lx, ly, lz, lm, la, lb, lc)
			c.Barrier()
			if c.Rank() == 0 {
				ops = c.Traffic().Ops()
				a2aBytes = c.Traffic().TotalsByOp()["Alltoallv"].Bytes
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		modeled, _ = machine.ReplayOps(ops)
	}
	b.ReportMetric(modeled, "modeled-comm-s")
	b.ReportMetric(float64(a2aBytes), "alltoall-B")
}

func BenchmarkFig5RelayVsNaive(b *testing.B) {
	b.Run("naive", func(b *testing.B) { benchPMCycle(b, false, 1) })
	b.Run("relay2", func(b *testing.B) { benchPMCycle(b, true, 2) })
}

// BenchmarkRelayPaperScaleModel evaluates the analytic §II-B model at the
// paper's configuration and reports the four timing figures.
func BenchmarkRelayPaperScaleModel(b *testing.B) {
	machine := perfmodel.KComputer()
	var nv, rl perfmodel.ConvTimes
	for i := 0; i < b.N; i++ {
		spec := perfmodel.ConvSpec{P: 12288, Grid: [3]int{16, 32, 24}, N: 4096, NFFT: 4096, Groups: 1}
		nv = machine.MeshConversion(spec)
		spec.Groups = 3
		spec.Interleaved = true
		rl = machine.MeshConversion(spec)
	}
	b.ReportMetric(nv.DensityToSlab, "naive-density-s(paper~10)")
	b.ReportMetric(nv.SlabToLocal, "naive-potential-s(paper~3)")
	b.ReportMetric(rl.DensityToSlab, "relay-density-s(paper~3)")
	b.ReportMetric(rl.SlabToLocal, "relay-potential-s(paper~0.3)")
	b.ReportMetric(nv.Total()/rl.Total(), "speedup(paper>4)")
}

// --- Fig. 6 ---

func BenchmarkFig6CosmologyStep(b *testing.B) {
	l := 1.0
	h0 := gcosmo.HubbleForBox(1, 1, l, 1)
	model := gcosmo.EdS(h0)
	aInit := gcosmo.ScaleFactor(400)
	parts, err := ic.Generate(ic.Config{
		NP: 16, NGrid: 32, L: l, PS: ic.NeutralinoCutoff{N: 0, Amp: 5e-5, KCut: 2 * math.Pi * 4},
		Seed: 6, Model: model, AInit: aInit, TotalMass: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{
		L: l, G: 1, NMesh: 32, Theta: 0.5, Ni: 64, Eps2: 1e-8,
		Grid: [3]int{2, 2, 1}, DT: aInit / 4, Stepper: model, Time: aInit,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(4, func(c *mpi.Comm) {
			var mine []sim.Particle
			for j := range parts {
				if j%4 == c.Rank() {
					mine = append(mine, parts[j])
				}
			}
			s, err := sim.New(c, cfg, mine)
			if err != nil {
				panic(err)
			}
			if err := s.Step(); err != nil {
				panic(err)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- §II-A kernel ---

func BenchmarkKernelGflops(b *testing.B) {
	const ni, nj = 512, 2048
	rng := rand.New(rand.NewSource(7))
	src := &ppkern.Source{}
	for j := 0; j < nj; j++ {
		src.Append(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
	}
	xi := make([]float64, ni)
	yi := make([]float64, ni)
	zi := make([]float64, ni)
	ax := make([]float64, ni)
	ay := make([]float64, ni)
	az := make([]float64, ni)
	for i := range xi {
		xi[i], yi[i], zi[i] = rng.Float64(), rng.Float64(), rng.Float64()
	}
	// Float32 mirror of the same particle set (the tree walk emits
	// group-relative float32 coordinates; here the span is O(1) anyway).
	src32 := &ppkern.SourceF32{}
	for j := 0; j < nj; j++ {
		src32.Append(float32(src.X[j]), float32(src.Y[j]), float32(src.Z[j]), float32(src.M[j]))
	}
	xi32 := make([]float32, ni)
	yi32 := make([]float32, ni)
	zi32 := make([]float32, ni)
	for i := range xi {
		xi32[i], yi32[i], zi32[i] = float32(xi[i]), float32(yi[i]), float32(zi[i])
	}
	variants := []struct {
		name string
		f    func() uint64
	}{
		{"scalar", func() uint64 { return ppkern.AccelCutoff(xi, yi, zi, src, 1, 0.4, 1e-10, ax, ay, az) }},
		{"f32-scalar", func() uint64 { return ppkern.AccelCutoffF32(xi32, yi32, zi32, src32, 1, 0.4, 1e-10, ax, ay, az) }},
		{"f32", func() uint64 { return ppkern.AccelCutoffF32Fast(xi32, yi32, zi32, src32, 1, 0.4, 1e-10, ax, ay, az) }},
	}
	// The instrumented variant bounds the telemetry cost on the hot path:
	// one span (two clock reads) plus one flop-counter add per kernel call,
	// exactly what the simulation records around the tree walk. Acceptance:
	// within 2% of the bare f32 variant.
	rec := telemetry.NewRecorder(0, nil)
	flops := rec.Registry().FlopCounter("bench_flops_total")
	id := rec.PhaseID(telemetry.PhasePPForce)
	variants = append(variants, struct {
		name string
		f    func() uint64
	}{"f32+telemetry", func() uint64 {
		sp := rec.StartID(id)
		n := ppkern.AccelCutoffF32Fast(xi32, yi32, zi32, src32, 1, 0.4, 1e-10, ax, ay, az)
		sp.End()
		flops.AddUint(n * uint64(ppkern.FlopsPerInteraction))
		return n
	}})
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var inter uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inter += v.f()
			}
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(inter)*float64(ppkern.FlopsPerInteraction)/sec/1e9, "Gflops-51op")
				b.ReportMetric(sec/float64(inter)*1e9, "ns/interaction")
			}
		})
	}
}

// --- ⟨Ni⟩ sweep ---

func BenchmarkNiSweep(b *testing.B) {
	x, y, z, m := clusteredSet(8, 30000)
	tr, err := tree.Build(x, y, z, m, tree.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	ax := make([]float64, len(x))
	ay := make([]float64, len(x))
	az := make([]float64, len(x))
	opt := tree.ForceOpts{G: 1, Theta: 0.5, Eps2: 1e-8, Cutoff: true, Rcut: 0.15, Periodic: true, L: 1}
	for _, ni := range []int{1, 8, 32, 100, 500} {
		b.Run(map[bool]string{true: "ni"}[true]+itoa(ni), func(b *testing.B) {
			var st tree.Stats
			for i := 0; i < b.N; i++ {
				st = tree.Accel(tr, tr, ni, opt, ax, ay, az)
			}
			b.ReportMetric(st.MeanNi(), "mean-Ni")
			b.ReportMetric(st.MeanNj(), "mean-Nj")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- §III-A force accuracy ---

func BenchmarkForceErrorSweep(b *testing.B) {
	x, y, z, m := uniformSet(9, 64)
	rx := make([]float64, len(x))
	ry := make([]float64, len(x))
	rz := make([]float64, len(x))
	ewald.New(1, 1).Accel(x, y, z, m, rx, ry, rz)
	for _, nmesh := range []int{8, 16, 32} {
		b.Run("nmesh"+itoa(nmesh), func(b *testing.B) {
			var rms float64
			for i := 0; i < b.N; i++ {
				s, err := treepm.New(treepm.Config{L: 1, G: 1, NMesh: nmesh, Theta: 0.3, Ni: 32})
				if err != nil {
					b.Fatal(err)
				}
				ax := make([]float64, len(x))
				ay := make([]float64, len(x))
				az := make([]float64, len(x))
				if _, err := s.Accel(x, y, z, m, ax, ay, az); err != nil {
					b.Fatal(err)
				}
				var e2, r2 float64
				for j := range ax {
					dx, dy, dz := ax[j]-rx[j], ay[j]-ry[j], az[j]-rz[j]
					e2 += dx*dx + dy*dy + dz*dz
					r2 += rx[j]*rx[j] + ry[j]*ry[j] + rz[j]*rz[j]
				}
				rms = math.Sqrt(e2 / r2)
			}
			b.ReportMetric(rms, "rms-force-err")
		})
	}
}

// --- §I / §III-B: pure periodic tree baseline vs TreePM ---

func BenchmarkPureTreeVsTreePM(b *testing.B) {
	x, y, z, m := clusteredSet(12, 20000)
	tr, err := tree.Build(x, y, z, m, tree.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	tab, err := ewtab.New(1, 16, nil)
	if err != nil {
		b.Fatal(err)
	}
	n := len(x)
	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)
	b.Run("pure-ewald-tree", func(b *testing.B) {
		var st tree.Stats
		for i := 0; i < b.N; i++ {
			st = tree.AccelPeriodicTree(tr, tr, 100, tree.ForceOpts{G: 1, Theta: 0.5, Eps2: 1e-9, L: 1}, tab, ax, ay, az)
		}
		b.ReportMetric(st.MeanNj(), "mean-Nj")
	})
	b.Run("treepm-short-range", func(b *testing.B) {
		var st tree.Stats
		for i := 0; i < b.N; i++ {
			st = tree.Accel(tr, tr, 100, tree.ForceOpts{
				G: 1, Theta: 0.5, Eps2: 1e-9, Cutoff: true, Rcut: 3.0 / 32, Periodic: true, L: 1,
			}, ax, ay, az)
		}
		b.ReportMetric(st.MeanNj(), "mean-Nj")
	})
}

// --- §IV: pencil vs slab FFT scaling ---

func BenchmarkPencilVsSlabFFT(b *testing.B) {
	const n = 32
	// Each subrun reports the all-to-all bytes of one forward+inverse
	// transform pair so the r2c halving of transpose traffic is visible
	// next to the wall-clock numbers.
	var a2aBytes int64
	run := func(b *testing.B, f func()) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f()
		}
		b.ReportMetric(float64(a2aBytes), "alltoall-B")
	}
	grab := func(c *mpi.Comm) {
		if c.Rank() == 0 {
			a2aBytes = c.Traffic().TotalsByOp()["Alltoallv"].Bytes
		}
	}
	b.Run("slab-4ranks", func(b *testing.B) {
		run(b, func() {
			err := mpi.Run(4, func(c *mpi.Comm) {
				plan, err := pfft.NewPlan(c, n)
				if err != nil {
					panic(err)
				}
				local := make([]complex128, plan.LocalSize())
				plan.Forward(local)
				plan.Inverse(local)
				grab(c)
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("slab-real-4ranks", func(b *testing.B) {
		run(b, func() {
			err := mpi.Run(4, func(c *mpi.Comm) {
				plan, err := pfft.NewPlan(c, n)
				if err != nil {
					panic(err)
				}
				local := make([]float64, plan.LocalSize())
				spec := make([]complex128, plan.LocalSpecSize())
				plan.ForwardReal(local, spec)
				plan.InverseReal(spec, local)
				grab(c)
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("pencil-4x4ranks", func(b *testing.B) {
		run(b, func() {
			err := mpi.Run(16, func(c *mpi.Comm) {
				plan, err := pfft.NewPencilPlan(c, n, 4, 4)
				if err != nil {
					panic(err)
				}
				in := make([]complex128, plan.InSize())
				out := plan.Forward(in)
				plan.Inverse(out)
				grab(c)
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("pencil-real-4x4ranks", func(b *testing.B) {
		run(b, func() {
			err := mpi.Run(16, func(c *mpi.Comm) {
				plan, err := pfft.NewPencilPlan(c, n, 4, 4)
				if err != nil {
					panic(err)
				}
				in := make([]float64, plan.InSize())
				out := plan.ForwardReal(in)
				plan.InverseReal(out)
				grab(c)
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	})
}
