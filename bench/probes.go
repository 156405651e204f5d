package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"greem/internal/analysis/dist"
	"greem/internal/checkpoint"
	"greem/internal/domain"
	"greem/internal/fft"
	"greem/internal/mesh"
	"greem/internal/mpi"
	"greem/internal/pfft"
	"greem/internal/pmpar"
	"greem/internal/ppkern"
	"greem/internal/sim"
	"greem/internal/snapshot"
	"greem/internal/telemetry"
	"greem/internal/tree"
	"greem/internal/vec"
)

// ledger is a reading of the mpi traffic ledger.
type ledger struct{ ops, msgs, bytes, a2aBytes int64 }

func readLedger(c *mpi.Comm) ledger {
	var l ledger
	for name, t := range c.Traffic().TotalsByOp() {
		l.ops += t.Ops
		l.msgs += t.Msgs
		l.bytes += t.Bytes
		if name == "Alltoallv" {
			l.a2aBytes += t.Bytes
		}
	}
	return l
}

// cost is what a probe of a collective measured; valid on rank 0.
type cost struct {
	seconds  float64 // median wall of one call, between two barriers
	allocMB  float64 // heap allocated per call, all ranks together
	a2aBytes float64 // all-to-all payload bytes per call, from the ledger
}

// collective calls f on every rank k times. Barriers fence the memory and
// ledger readings so they cover exactly the k calls.
func collective(c *mpi.Comm, k int, f func()) cost {
	var m0, m1 runtime.MemStats
	var l0 ledger
	c.Barrier()
	if c.Rank() == 0 {
		runtime.ReadMemStats(&m0)
		l0 = readLedger(c)
	}
	walls := make([]float64, k)
	for i := range walls {
		c.Barrier()
		t0 := time.Now()
		f()
		c.Barrier()
		walls[i] = time.Since(t0).Seconds()
	}
	if c.Rank() != 0 {
		return cost{}
	}
	runtime.ReadMemStats(&m1)
	return cost{
		seconds:  median(walls),
		allocMB:  float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(k),
		a2aBytes: float64(readLedger(c).a2aBytes-l0.a2aBytes) / float64(k),
	}
}

// alone runs f on one rank at a time while the others wait in a barrier, so a
// single-threaded layer is timed without the other ranks competing for the
// cores.
func alone(c *mpi.Comm, f func()) {
	for r := 0; r < c.Size(); r++ {
		if c.Rank() == r {
			f()
		}
		c.Barrier()
	}
}

// onRank0 is alone for a probe whose input does not depend on the rank.
func onRank0(c *mpi.Comm, f func()) {
	if c.Rank() == 0 {
		f()
	}
	c.Barrier()
}

func sumOver(c *mpi.Comm, v ...float64) []float64 { return mpi.Allreduce(c, v, mpi.Sum[float64]) }
func maxOver(c *mpi.Comm, v ...float64) []float64 { return mpi.Allreduce(c, v, mpi.Max[float64]) }

func mallocCount() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// medianOf times f k times and returns the median seconds.
func medianOf(k int, f func()) float64 {
	ts := make([]float64, k)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}

// fftFlops is the operation count of one real forward + inverse transform of
// n³ points under the usual 2.5·N·log₂N convention for a real transform.
func fftFlops(n int) float64 {
	pts := float64(n) * float64(n) * float64(n)
	return 2 * 2.5 * pts * math.Log2(pts)
}

// probeLayers replays each layer's public entry points on the run's final
// state, inside the same 8-rank world, and fills wd.layer on rank 0. Each
// probe sits in a bench span on the rank's recorder.
func (wd *world) probeLayers(c *mpi.Comm, s *sim.Sim) {
	r, p := c.Rank(), c.Size()
	rec := s.Recorder()
	cfg := wd.cfg
	set := func(name string, v value) {
		if r == 0 {
			wd.layer[name] = v
		}
	}
	probe := func(layer string, f func()) {
		sp := rec.Start("bench/probe/" + layer)
		f()
		sp.End()
	}

	parts := s.Particles()
	n := len(parts)
	x, y, z, m := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	id := make([]int64, n)
	for i, q := range parts {
		x[i], y[i], z[i], m[i], id[i] = q.X, q.Y, q.Z, q.M, q.ID
	}
	geo := s.Geometry()
	lo, hi := geo.Bounds(r)
	rcut := cfg.Rcut
	if rcut == 0 {
		rcut = 3 * cfg.L / float64(cfg.NMesh)
	}

	// tree: rebuild, LET collection, then (after the mpi probe has moved the
	// LET payloads) the grouped walk over local + ghost sources.
	var lt *tree.Tree
	send := make([][]tree.LETParticle, p)
	var ghosts []tree.LETParticle
	topt := tree.Options{LeafCap: 16}
	probe("tree", func() {
		var buildS, letS, buildAllocs, sources float64
		alone(c, func() {
			b := tree.NewBuilder()
			var err error
			if _, err = b.Rebuild(x, y, z, m, topt); err != nil { // fills the arena
				panic(err)
			}
			m0 := mallocCount()
			t0 := time.Now()
			lt, err = b.Rebuild(x, y, z, m, topt)
			buildS = time.Since(t0).Seconds()
			buildAllocs = float64(mallocCount() - m0)
			if err != nil {
				panic(err)
			}
			var let tree.LETCollector
			t0 = time.Now()
			for q := 0; q < p; q++ {
				qlo, qhi := geo.Bounds(q)
				if q == r || tree.BoxDistPeriodic(lo, hi, qlo, qhi, cfg.L) > rcut {
					continue
				}
				send[q], _ = let.Collect(lt, qlo, qhi, cfg.L, rcut, cfg.Theta, send[q])
				sources += float64(len(send[q]))
			}
			letS = time.Since(t0).Seconds()
		})
		sums := sumOver(c, buildS, float64(n), buildAllocs, sources)
		set("tree.build_ns_per_particle", ratio(sums[0]*1e9, sums[1], "no particles"))
		set("tree.build_allocs", num(sums[2]))
		set("tree.let_sources", num(sums[3]))
		set("tree.let_collect_s", num(maxOver(c, letS)[0]))
	})

	probe("mpi", func() {
		const reps = 200
		c.Barrier()
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			c.Barrier()
		}
		set("mpi.barrier_us", num(time.Since(t0).Seconds()/reps*1e6))
		one := []float64{1}
		c.Barrier()
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			mpi.Allgather(c, one)
		}
		set("mpi.allgather_small_us", num(time.Since(t0).Seconds()/reps*1e6))

		var recv [][]tree.LETParticle
		a2a := collective(c, 5, func() { recv = mpi.Alltoall(c, send) })
		for _, g := range recv {
			ghosts = append(ghosts, g...)
		}
		const idle = "no LET payload: no neighbour within rcut"
		set("mpi.alltoall_ghost_s", num(a2a.seconds))
		set("mpi.alltoall_mb_per_s", ratio(a2a.a2aBytes/1e6, a2a.seconds, idle))
		set("mpi.alltoall_alloc_ratio", ratio(a2a.allocMB*1e6, a2a.a2aBytes, idle))
	})

	probe("tree", func() {
		var walkS float64
		var st tree.Stats
		alone(c, func() {
			sx, sy, sz, sm := x[:n:n], y[:n:n], z[:n:n], m[:n:n] // capped: append must copy
			for _, g := range ghosts {
				sx, sy, sz, sm = append(sx, g.X), append(sy, g.Y), append(sz, g.Z), append(sm, g.M)
			}
			src := lt
			if len(ghosts) > 0 {
				var err error
				if src, err = tree.NewBuilder().Rebuild(sx, sy, sz, sm, topt); err != nil {
					panic(err)
				}
			}
			fo := tree.ForceOpts{
				G: cfg.G, Theta: cfg.Theta, Eps2: cfg.Eps2, Cutoff: true, Rcut: rcut,
				Periodic: len(ghosts) == 0, L: cfg.L,
			}
			setBoolIfPresent(&fo, "FastKernel")
			setBoolIfPresent(&fo, "Float32Kernel")
			ax, ay, az := make([]float64, n), make([]float64, n), make([]float64, n)
			wk := tree.NewWalker()
			wk.Accel(src, lt, cfg.Ni, fo, ax, ay, az) // grows the walker's scratch
			t0 := time.Now()
			st = wk.Accel(src, lt, cfg.Ni, fo, ax, ay, az)
			walkS = time.Since(t0).Seconds()
		})
		sums := sumOver(c, walkS-st.KernelSeconds, st.KernelSeconds, float64(st.Interactions))
		set("tree.walk_s", num(maxOver(c, walkS)[0]))
		set("tree.traverse_ns_per_interaction", ratio(sums[0]*1e9, sums[2], "no interactions"))
		set("ppkern.inwalk_ns_per_interaction", ratio(sums[1]*1e9, sums[2], "no interactions"))
	})

	probe("ppkern", func() {
		onRank0(c, func() {
			f32, f64 := kernelProbe()
			wd.layer["ppkern.f32_ns_per_interaction"] = num(f32)
			wd.layer["ppkern.f32_gflops_51op"] = num(ppkern.FlopsPerInteraction / f32)
			wd.layer["ppkern.f64ref_ns_per_interaction"] = num(f64)
		})
	})

	probe("domain", func() {
		counts := make([]int, p)
		for i, v := range mpi.Allgather(c, []int{n}) {
			counts[i] = v[0]
		}
		const perRank = 64 // sim's default SampleTotal is 64·p
		var mine []float64
		for k := 0; k < perRank && n > 0; k++ {
			i := k * n / perRank
			mine = append(mine, x[i], y[i], z[i])
		}
		gathered := mpi.Gather(c, 0, mine)
		onRank0(c, func() {
			costs, loads := make([]float64, p), make([]float64, p)
			for i, v := range counts {
				costs[i], loads[i] = float64(v+1), float64(v)
			}
			var pts []vec.V3
			for _, g := range gathered {
				for i := 0; i+2 < len(g); i += 3 {
					pts = append(pts, vec.V3{X: g[i], Y: g[i+1], Z: g[i+2]})
				}
			}
			sec := medianOf(50, func() {
				domain.SampleCounts(perRank*p, costs, counts)
				g, err := domain.FromSamples(cfg.Grid[0], cfg.Grid[1], cfg.Grid[2], cfg.L, append([]vec.V3(nil), pts...))
				if err != nil {
					panic(err)
				}
				if _, err := domain.MovingAverage([]*domain.Geometry{g, g, g, g, g}); err != nil {
					panic(err)
				}
			})
			wd.layer["domain.decompose_us"] = num(sec * 1e6)
			wd.layer["domain.imbalance_particles"] = num(domain.Imbalance(loads))
		})
	})

	nfft := cfg.NFFT
	if cfg.Pencil {
		nfft = cfg.PY * cfg.PZ
	} else if nfft == 0 {
		nfft = min(p, cfg.NMesh)
	}
	probe("pmpar", func() {
		pcfg := pmpar.Config{
			N: cfg.NMesh, L: cfg.L, G: cfg.G, Rcut: rcut, NFFT: nfft,
			Relay: cfg.Relay, Groups: cfg.Groups, Pencil: cfg.Pencil, PY: cfg.PY, PZ: cfg.PZ,
			Recorder: rec,
		}
		pc := c.Dup() // sim runs its PM solver on a duplicated communicator too
		var sol *pmpar.Solver
		mk := collective(c, 3, func() {
			var err error
			if sol, err = pmpar.New(pc, pcfg, lo, hi); err != nil {
				panic(err)
			}
		})
		ax, ay, az := make([]float64, n), make([]float64, n), make([]float64, n)
		acc := collective(c, 3, func() { sol.Accel(x, y, z, m, ax, ay, az) })
		sol.Close()
		set("pmpar.new_s", num(mk.seconds))
		set("pmpar.new_alloc_mb", num(mk.allocMB))
		set("pmpar.accel_s", num(acc.seconds))
		set("pmpar.accel_alloc_mb", num(acc.allocMB))
		set("pmpar.alltoall_bytes", num(acc.a2aBytes))
	})

	probe("pfft", func() {
		fc := c.Split(b2i(r >= nfft), r)
		roundtrip := func() {}
		if r < nfft {
			roundtrip = pfftRoundtrip(fc, cfg)
		}
		rt := collective(c, 3, roundtrip)
		set("pfft.r2c_roundtrip_s", num(rt.seconds))
		set("pfft.alltoall_bytes", num(rt.a2aBytes))
		set("pfft.gflops", ratio(fftFlops(cfg.NMesh)/1e9, rt.seconds, "zero time"))
	})

	probe("fft+mesh+ic+snapshot", func() {
		onRank0(c, func() {
			nm := cfg.NMesh
			plan, err := fft.NewRealPlan3(nm, nm, nm)
			if err != nil {
				panic(err)
			}
			field := make([]float64, nm*nm*nm)
			rng := rand.New(rand.NewSource(1))
			for i := range field {
				field[i] = rng.Float64()
			}
			spec := make([]complex128, plan.SpecLen())
			sec := medianOf(3, func() { plan.Forward(field, spec); plan.Inverse(spec, field) })
			wd.layer["fft.r2c3d_roundtrip_s"] = num(sec)
			wd.layer["fft.gflops"] = ratio(fftFlops(nm)/1e9, sec, "zero time")

			pm, err := mesh.New(nm, cfg.L, cfg.G, rcut)
			if err != nil {
				panic(err)
			}
			ax, ay, az := make([]float64, n), make([]float64, n), make([]float64, n)
			assign := medianOf(3, func() { pm.Clear(); pm.AssignTSC(x, y, z, m) })
			solve := medianOf(3, pm.Solve)
			pm.DiffForce()
			interp := medianOf(3, func() { pm.InterpolateTSC(x, y, z, ax, ay, az) })
			pm.Close()
			wd.layer["mesh.assign_ns_per_particle"] = ratio(assign*1e9, float64(n), "rank 0 holds no particle")
			wd.layer["mesh.solve_s"] = num(solve)
			wd.layer["mesh.interp_ns_per_particle"] = ratio(interp*1e9, float64(n), "rank 0 holds no particle")

			// ic at the largest power-of-two lattice not above the workload's.
			np := 1 << int(math.Log2(float64(wd.w.np)))
			t0 := time.Now()
			if _, err := zeldovich(wd.opt.seed, np); err != nil {
				panic(err)
			}
			wd.layer["ic.generate_s"] = num(time.Since(t0).Seconds())

			t0 = time.Now()
			b, err := snapshot.Encode(snapshot.Header{L: cfg.L, G: cfg.G, Time: s.Time(), StepIdx: uint64(s.StepIndex())}, parts)
			if err != nil {
				panic(err)
			}
			wd.layer["snapshot.encode_mb_per_s"] = ratio(float64(len(b))/1e6, time.Since(t0).Seconds(), "zero time")
		})
	})

	probe("analysis", func() {
		ll := 0.2 * cfg.L / math.Cbrt(float64(wd.n))
		fof := collective(c, 1, func() { dist.FoF(c, dist.Config{L: cfg.L, LinkLen: ll, MinSize: 8}, x, y, z, m, id) })
		set("analysis.fof_s", num(fof.seconds))
	})

	// checkpoint: write the final state, restore it under a configuration
	// that emits in-situ products on the very next step, and take that step.
	probe("checkpoint", func() {
		ck := wd.ckptConfig(s, "probe")
		written := rec.Registry().ByteCounter(checkpoint.MetricBytes)
		b0 := written.Value()
		wr := collective(c, 1, func() { wd.writeCheckpoint(c, s, ck) })
		mb := sumOver(c, written.Value()-b0)[0] / 1e6
		set("checkpoint.write_s", num(wr.seconds))
		set("checkpoint.write_mb_per_s", ratio(mb, wr.seconds, "zero time"))

		ck.Sim.InSituEvery, ck.Sim.InSituFinalStep = math.MaxInt32, s.StepIndex()+1
		s2, restoreS := wd.restore(c, ck, s.State())
		set("checkpoint.restore_s", num(maxOver(c, restoreS)[0]))
		if s2 == nil {
			set("analysis.insitu_s_per_emit", value{null: "restore failed"})
			return
		}
		if r == 0 {
			wd.ops.attempt(2) // the step and its emission
		}
		if err := s2.Step(); err != nil {
			panic(fmt.Errorf("step after restore: %w", err))
		}
		rec2 := s2.Recorder()
		emit := rec2.PhaseSeconds(telemetry.PhaseAnalysisFoF) + rec2.PhaseSeconds(telemetry.PhaseAnalysisPk) + rec2.PhaseSeconds(telemetry.PhaseAnalysisProj)
		set("analysis.insitu_s_per_emit", num(maxOver(c, emit)[0]))
		if r == 0 {
			if err := decodeInSitu(s2.InSituProducts(), s2.StepIndex()); err != nil {
				wd.ops.fail("in-situ after restore: %v", err)
			}
		}
		s2.Close()
	})
}

// pfftRoundtrip returns one real forward + inverse transform on the FFT
// communicator, in the layout the workload's PM solver uses.
func pfftRoundtrip(fc *mpi.Comm, cfg sim.Config) func() {
	if cfg.Pencil {
		plan, err := pfft.NewPencilPlan(fc, cfg.NMesh, cfg.PY, cfg.PZ)
		if err != nil {
			panic(err)
		}
		in := make([]float64, plan.InSize())
		for i := range in {
			in[i] = float64(i%7) - 3
		}
		return func() { copy(in, plan.InverseReal(plan.ForwardReal(in))) }
	}
	plan, err := pfft.NewPlan(fc, cfg.NMesh)
	if err != nil {
		panic(err)
	}
	slab := make([]float64, plan.LocalSize())
	for i := range slab {
		slab[i] = float64(i%7) - 3
	}
	spec := make([]complex128, plan.LocalSpecSize())
	return func() { plan.ForwardReal(slab, spec); plan.InverseReal(spec, slab) }
}

// kernelProbe times the float32 production kernel and the float64 reference
// on a standalone 512-target × 2048-source block and returns nanoseconds per
// interaction for each.
func kernelProbe() (f32ns, f64ns float64) {
	const ni, nj = 512, 2048
	rng := rand.New(rand.NewSource(7))
	src, src32 := &ppkern.Source{}, &ppkern.SourceF32{}
	for j := 0; j < nj; j++ {
		sx, sy, sz, sm := rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()
		src.Append(sx, sy, sz, sm)
		src32.Append(float32(sx), float32(sy), float32(sz), float32(sm))
	}
	xi, yi, zi := make([]float64, ni), make([]float64, ni), make([]float64, ni)
	xi32, yi32, zi32 := make([]float32, ni), make([]float32, ni), make([]float32, ni)
	for i := range xi {
		xi[i], yi[i], zi[i] = rng.Float64(), rng.Float64(), rng.Float64()
		xi32[i], yi32[i], zi32[i] = float32(xi[i]), float32(yi[i]), float32(zi[i])
	}
	ax, ay, az := make([]float64, ni), make([]float64, ni), make([]float64, ni)
	perInteraction := func(f func() uint64) float64 {
		const window = 100 * time.Millisecond
		var inter uint64
		t0 := time.Now()
		for time.Since(t0) < window {
			inter += f()
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(inter)
	}
	f32ns = perInteraction(func() uint64 { return ppkern.AccelCutoffF32Fast(xi32, yi32, zi32, src32, 1, 0.4, 1e-10, ax, ay, az) })
	f64ns = perInteraction(func() uint64 { return ppkern.AccelCutoff(xi, yi, zi, src, 1, 0.4, 1e-10, ax, ay, az) })
	return f32ns, f64ns
}
