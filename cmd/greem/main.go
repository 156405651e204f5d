// greem is the simulation driver: it generates cosmological initial
// conditions (or loads a snapshot), runs the distributed TreePM integrator
// on in-process ranks, and writes snapshots, projections and a per-phase
// timing report in the shape of the paper's Table I.
//
// With -metrics the per-rank telemetry registries (phase seconds, span
// histograms, interaction/flop counters, MPI traffic) are written in
// Prometheus text format; with -trace every rank's span timeline is written
// as Chrome trace-event JSON, one track per rank, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
//
// With -checkpoint-every the run is crash-safe: every k steps each rank
// writes a CRC-verified shard and rank 0 commits an atomic, hash-chained
// manifest. Rerunning the same command resumes from the newest valid
// checkpoint (corrupt or partial ones are skipped with a logged reason), and
// an in-process rank failure triggers up to -max-restarts automatic
// restarts from the last checkpoint. With -deterministic the resumed
// trajectory is bit-identical to an uninterrupted run.
//
//	go run ./cmd/greem -np 16 -ranks 8 -steps 16 -zstart 400 -zend 31 -out out
//	go run ./cmd/greem -resume out/snap_0016.bin -steps 8
//	go run ./cmd/greem -np 8 -ranks 4 -steps 2 -trace trace.json -metrics metrics.prom
//	go run ./cmd/greem -np 16 -ranks 4 -steps 8 -deterministic -checkpoint-every 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sync"

	"greem"
	"greem/internal/analysis"
	"greem/internal/checkpoint"
	"greem/internal/cosmo"
	"greem/internal/mpi"
	"greem/internal/sim"
	"greem/internal/telemetry"
)

func main() {
	np := flag.Int("np", 16, "particles per dimension (ICs)")
	ranks := flag.Int("ranks", 8, "ranks")
	steps := flag.Int("steps", 16, "full PM steps")
	zstart := flag.Float64("zstart", 400, "starting redshift")
	zend := flag.Float64("zend", 31, "final redshift")
	seed := flag.Int64("seed", 12345, "IC random seed")
	amp := flag.Float64("amp", 5e-5, "IC power-spectrum amplitude")
	nmesh := flag.Int("nmesh", 0, "PM mesh per dimension (0 = 2·np rounded up)")
	relay := flag.Bool("relay", false, "use the relay mesh method")
	groups := flag.Int("groups", 2, "relay groups")
	pencil := flag.Bool("pencil", false, "use the 2-D pencil FFT decomposition (§IV)")
	py := flag.Int("py", 2, "pencil process grid, y")
	pz := flag.Int("pz", 2, "pencil process grid, z")
	workers := flag.Int("workers", 1, "intra-rank workers: tree traversal, PM pipeline and integrator loops (0/1 = serial, -1 = auto)")
	wmap7 := flag.Bool("wmap7", false, "use the WMAP7 ΛCDM background instead of EdS")
	lpt2 := flag.Bool("2lpt", false, "second-order (2LPT) initial conditions")
	nfft := flag.Int("nfft", 0, "FFT processes (0 = min(ranks, mesh))")
	theta := flag.Float64("theta", 0.5, "tree opening angle")
	ni := flag.Int("ni", 100, "Barnes group size cap")
	outDir := flag.String("out", "out", "output directory")
	resume := flag.String("resume", "", "resume from a snapshot file or a checkpoint directory")
	snapEvery := flag.Int("snap", 8, "write snapshot every k steps")
	metricsOut := flag.String("metrics", "", "write per-rank metrics (Prometheus text format) to this file")
	traceOut := flag.String("trace", "", "write per-rank span timelines (Chrome trace-event JSON) to this file")
	deterministic := flag.Bool("deterministic", false, "deterministic cost sampling: reruns and checkpoint restarts are bit-identical")
	ckptEvery := flag.Int("checkpoint-every", 0, "write a crash-safe checkpoint every k steps (0 = off)")
	ckptDir := flag.String("checkpoint-dir", "", "checkpoint directory (default <out>/checkpoints)")
	ckptKeep := flag.Int("checkpoint-keep", 3, "checkpoints to retain; oldest pruned first (0 = all)")
	maxRestarts := flag.Int("max-restarts", 2, "automatic in-process restarts from the last checkpoint after a rank failure")
	insituEvery := flag.Int("insitu-every", 0, "run the in-situ analysis pass (distributed FoF catalog, on-the-fly P(k), streaming projection) every k steps and at the final step (0 = off)")
	killAtStep := flag.Int("kill-at-step", 0, "testing: hard-exit the process right after the checkpoint at this step")
	failRankAtStep := flag.Int("fail-rank-at-step", 0, "testing: kill the last rank at the start of this step (once) to exercise graceful degradation")
	flag.Parse()

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	const l, g = 1.0, 1.0
	totalM := 1.0
	var model *cosmo.Model
	if *wmap7 {
		model = cosmo.WMAP7(greem.HubbleForBox(g, totalM, l, 0.272))
	} else {
		model = cosmo.EdS(greem.HubbleForBox(g, totalM, l, 1.0))
	}

	// Resolve the checkpoint plane: -resume pointing at a directory selects
	// it as the checkpoint root; otherwise checkpoints live under -out.
	ckDir := *ckptDir
	resumeFile := ""
	resumeDir := false
	if *resume != "" {
		if st, err := os.Stat(*resume); err == nil && st.IsDir() {
			ckDir = *resume
			resumeDir = true
		} else {
			resumeFile = *resume
		}
	}
	if ckDir == "" {
		ckDir = filepath.Join(*outDir, "checkpoints")
	}
	checkpointing := *ckptEvery > 0 || resumeDir

	aStart := greem.ScaleFactor(*zstart)
	var parts []greem.Particle
	if resumeFile != "" {
		var err error
		var tl float64
		tl, aStart, parts, err = loadSnap(resumeFile)
		if err != nil {
			log.Fatal(err)
		}
		if tl != l {
			log.Fatalf("snapshot box %v does not match %v", tl, l)
		}
		fmt.Printf("resumed %d particles at a = %.5f (z = %.1f)\n", len(parts), aStart, greem.Redshift(aStart))
	}

	mesh := *nmesh
	if mesh == 0 {
		mesh = nextPow2(2 * *np)
	}
	grid, err := factorGrid(*ranks)
	if err != nil {
		log.Fatal(err)
	}
	aEnd := greem.ScaleFactor(*zend)
	cfg := greem.SimConfig{
		L: l, G: g, NMesh: mesh, NFFT: *nfft, Relay: *relay, Groups: *groups,
		Pencil: *pencil, PY: *py, PZ: *pz, Workers: *workers,
		Theta: *theta, Ni: *ni, Eps2: 1e-8,
		Grid: grid, DT: (aEnd - aStart) / float64(*steps), Stepper: model, Time: aStart,
		DeterministicCost: *deterministic,
	}
	if *insituEvery > 0 {
		cfg.InSituEvery = *insituEvery
		cfg.InSituFinalStep = *steps
	}

	// Skip IC generation when a valid checkpoint will be restored anyway —
	// at production scale the ICs are the second most expensive thing the
	// driver does.
	canResume := false
	if checkpointing {
		if step, ok := checkpoint.LatestStep(checkpoint.Config{Dir: ckDir, Sim: cfg, Logf: log.Printf}, *ranks); ok {
			canResume = true
			fmt.Printf("valid checkpoint at step %d in %s\n", step, ckDir)
		}
	}
	if parts == nil && !canResume {
		ps := greem.NeutralinoCutoff{N: 0, Amp: *amp, KCut: 2 * math.Pi / l * float64(*np) / 4}
		parts, err = greem.GenerateIC(greem.ICConfig{
			NP: *np, NGrid: mesh, L: l, PS: ps, Seed: *seed,
			Model: model, AInit: aStart, TotalMass: totalM, SecondOrder: *lpt2,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("generated %d particles at z = %.0f\n", len(parts), *zstart)
	}

	// The fault-injection hook behind -fail-rank-at-step: kills the last
	// rank at the start of its n-th step, exactly once across restarts.
	var hook greem.KillHook
	if *failRankAtStep > 0 {
		var mu sync.Mutex
		count, fired := 0, false
		target := *ranks - 1
		hook = func(rank int, point string) bool {
			if rank != target || point != "sim/step" {
				return false
			}
			mu.Lock()
			defer mu.Unlock()
			if fired {
				return false
			}
			count++
			if count == *failRankAtStep {
				fired = true
				return true
			}
			return false
		}
	}

	recs := make([]*telemetry.Recorder, *ranks)
	var traffic *mpi.Traffic
	runOnce := func() error {
		return greem.RunWithKillHook(*ranks, hook, func(c *greem.Comm) {
			rec := telemetry.NewRecorder(c.Rank(), nil)
			rec.EnableTrace(*traceOut != "")
			recs[c.Rank()] = rec
			if c.Rank() == 0 {
				traffic = c.Traffic()
			}
			rcfg := cfg
			rcfg.Recorder = rec
			ckCfg := checkpoint.Config{Dir: ckDir, Sim: rcfg, Keep: *ckptKeep, Recorder: rec}
			if c.Rank() == 0 {
				ckCfg.Logf = log.Printf
			}
			var s *sim.Sim
			if checkpointing {
				var rerr error
				s, rerr = checkpoint.Restore(c, ckCfg)
				if rerr != nil && !errors.Is(rerr, checkpoint.ErrNoCheckpoint) {
					panic(rerr)
				}
				if s != nil && c.Rank() == 0 {
					fmt.Printf("resumed from checkpoint at step %d (a = %.5f)\n", s.StepIndex(), s.Time())
				}
			}
			if s == nil {
				var mine []greem.Particle
				for i := range parts {
					if i%*ranks == c.Rank() {
						mine = append(mine, parts[i])
					}
				}
				var err error
				s, err = greem.NewSimulation(c, rcfg, mine)
				if err != nil {
					panic(err)
				}
			}
			for s.StepIndex() < *steps {
				if err := s.Step(); err != nil {
					panic(err)
				}
				idx := s.StepIndex()
				if *ckptEvery > 0 && idx%*ckptEvery == 0 {
					if _, err := checkpoint.Write(c, ckCfg, s); err != nil {
						panic(err)
					}
					if *killAtStep > 0 && idx == *killAtStep {
						// Simulated hard crash (power loss, OOM kill): no
						// cleanup, no manifest beyond what is committed.
						if c.Rank() == 0 {
							fmt.Printf("kill-at-step: exiting hard after checkpoint at step %d\n", idx)
						}
						os.Exit(3)
					}
				}
				if res := s.InSituProducts(); res != nil && res.Step == idx && c.Rank() == 0 {
					writeInSitu(*outDir, res)
				}
				if idx%*snapEvery == 0 || idx == *steps {
					all := s.GatherAll(0)
					if c.Rank() == 0 {
						writeOutputs(*outDir, s, all, l)
					}
				}
				if c.Rank() == 0 {
					fmt.Printf("step %3d: a = %.5f (z = %.1f)\n", idx, s.Time(), greem.Redshift(s.Time()))
				}
			}
			inter := s.InteractionsPerStep()
			ni, nj := s.MeanNiNj()
			c.Barrier()
			if c.Rank() == 0 {
				printTimers(s, *steps, inter, ni, nj)
			}
		})
	}

	// Degradation loop: a lost rank aborts the world; with checkpointing on,
	// restart from the last valid checkpoint instead of dying, a bounded
	// number of times.
	for attempt := 0; ; attempt++ {
		err := runOnce()
		if err == nil {
			break
		}
		if checkpointing && greem.IsAborted(err) && attempt < *maxRestarts {
			log.Printf("world aborted (%v); restarting from last checkpoint (attempt %d/%d)", err, attempt+1, *maxRestarts)
			continue
		}
		log.Fatal(err)
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, recs, traffic); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote metrics to %s\n", *metricsOut)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := telemetry.WriteChromeTrace(f, recs...); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote Chrome trace to %s (open in ui.perfetto.dev)\n", *traceOut)
	}
}

// writeMetrics exports every rank's registry plus the world-wide MPI traffic
// ledger in Prometheus text format.
func writeMetrics(path string, recs []*telemetry.Recorder, traffic *mpi.Traffic) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WritePrometheusRanks(f, recs); err != nil {
		f.Close()
		return err
	}
	world := telemetry.NewRegistry()
	telemetry.CaptureTraffic(world, traffic)
	if err := telemetry.WritePrometheus(f, world); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeOutputs(dir string, s *sim.Sim, all []greem.Particle, l float64) {
	name := filepath.Join(dir, fmt.Sprintf("snap_%04d.bin", s.StepIndex()))
	if err := greem.SaveSnapshot(name, l, s.Time(), 1, uint64(s.StepIndex()), all); err != nil {
		log.Fatal(err)
	}
	x := make([]float64, len(all))
	y := make([]float64, len(all))
	m := make([]float64, len(all))
	for i, p := range all {
		x[i], y[i], m[i] = p.X, p.Y, p.M
	}
	img := analysis.ProjectXY(x, y, m, 256, l)
	pname := filepath.Join(dir, fmt.Sprintf("density_%04d.pgm", s.StepIndex()))
	f, err := os.Create(pname)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := analysis.WritePGM(f, img); err != nil {
		log.Fatal(err)
	}
}

// writeInSitu writes one in-situ analysis emission (halo catalog, power
// spectrum, streaming surface-density projection) to step-stamped files.
func writeInSitu(dir string, res *sim.InSituResult) {
	write := func(name string, b []byte) {
		if b == nil {
			return
		}
		path := filepath.Join(dir, fmt.Sprintf(name, res.Step))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	write("halos_%04d.json", res.Catalog)
	write("pk_%04d.json", res.Power)
	write("insitu_density_%04d.pgm", res.Density)
}

func printTimers(s *sim.Sim, steps int, inter, ni, nj float64) {
	per := 1.0 / float64(steps)
	t := s.Timers()
	fmt.Println("\nper-step phase breakdown (rank 0, Table I shape):")
	fmt.Printf("  PM: density %.4fs, comm %.4fs, FFT %.4fs, mesh accel %.4fs, interp %.4fs\n",
		t.PM.Density.Seconds()*per, t.PM.Comm.Seconds()*per, t.PM.FFT.Seconds()*per,
		t.PM.MeshForce.Seconds()*per, t.PM.Interp.Seconds()*per)
	fmt.Printf("  PP: local %.4fs, LET walk %.4fs, comm %.4fs, construction %.4fs, traversal %.4fs, force %.4fs\n",
		t.PPLocalTree*per, t.PPLET*per, t.PPComm*per, t.PPTreeConstr*per, t.PPTraverse*per, t.PPForce*per)
	gs := s.GhostStats()
	fmt.Printf("  ghosts (rank 0): sent %.0f/step (%.1f KiB), recv %.0f/step, monopoles %.0f, leaves %.0f\n",
		float64(gs.Sent)*per, float64(gs.Bytes)*per/1024, float64(gs.Recv)*per,
		float64(gs.Monopoles)*per, float64(gs.Leaves)*per)
	fmt.Printf("  DD: position %.4fs, sampling %.4fs, exchange %.4fs\n",
		t.DDPosUpdate*per, t.DDSampling*per, t.DDExchange*per)
	ov := s.OverlapStats()
	fmt.Printf("  overlap: PM solve hidden %.4fs/step, last window critical path %.4fs\n",
		ov.HiddenSeconds*per, ov.LastWindowSeconds)
	fmt.Printf("  interactions/step %.3g, ⟨Ni⟩ = %.0f, ⟨Nj⟩ = %.0f\n", inter, ni, nj)
}

func loadSnap(path string) (l, a float64, parts []greem.Particle, err error) {
	l, a, parts, err = greem.LoadSnapshot(path)
	return
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func factorGrid(p int) ([3]int, error) {
	best := [3]int{}
	found := false
	for a := 1; a*a*a <= p; a++ {
		if p%a != 0 {
			continue
		}
		q := p / a
		for b := a; b*b <= q; b++ {
			if q%b == 0 {
				best = [3]int{q / b, b, a}
				found = true
			}
		}
	}
	if !found {
		return best, fmt.Errorf("cannot factor %d ranks into a grid", p)
	}
	return best, nil
}
