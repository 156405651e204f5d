// tableone regenerates the paper's Table I — the per-phase cost breakdown of
// a 10240³-particle step on 24576 and 82944 nodes of K computer — from the
// performance model, printed beside the published values. Optionally it also
// runs a scaled-down distributed simulation and prints the measured phase
// breakdown in the same shape (who dominates, what scales), which is what a
// laptop can verify directly.
//
//	go run ./cmd/tableone [-run] [-np 24] [-ranks 8] [-steps 2]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"greem/internal/mpi"
	"greem/internal/perfmodel"
	"greem/internal/sim"
	"greem/internal/telemetry"
)

func main() {
	doRun := flag.Bool("run", false, "also run a scaled-down measured simulation")
	np := flag.Int("np", 24, "particles per dimension for the scaled run")
	ranks := flag.Int("ranks", 8, "ranks for the scaled run")
	steps := flag.Int("steps", 2, "steps for the scaled run")
	workers := flag.Int("workers", 0, "intra-rank workers for the scaled run (0 = serial, -1 = auto)")
	insituEvery := flag.Int("insitu-every", 0, "in-situ analysis cadence for the scaled run: FoF + P(k) + projection every k steps (0 = off); the analysis/* phase rows appear when on")
	flag.Parse()

	m := perfmodel.KComputer()
	r := perfmodel.KTableIRates()
	n := 1.073741824e12

	model24 := perfmodel.ModelTableI(m, r, 24576, n, 5.35e15, 4096, [3]int{32, 24, 32}, 4096, 6)
	model82 := perfmodel.ModelTableI(m, r, 82944, n, 5.30e15, 4096, [3]int{32, 54, 48}, 4096, 18)
	paper24, _ := perfmodel.PaperTableI(24576)
	paper82, _ := perfmodel.PaperTableI(82944)

	fmt.Println("TABLE I — calculation cost per step (seconds) and performance statistics")
	fmt.Println("N = 10240³ particles; one step = 1 PM + 2 PP + 2 domain-decomposition cycles")
	fmt.Println()
	fmt.Printf("%-28s %10s %10s | %10s %10s\n", "p (#nodes)", "24576", "24576", "82944", "82944")
	fmt.Printf("%-28s %10s %10s | %10s %10s\n", "", "paper", "model", "paper", "model")
	row := func(name string, f func(perfmodel.TableIColumn) float64) {
		fmt.Printf("%-28s %10.2f %10.2f | %10.2f %10.2f\n",
			name, f(paper24), f(model24), f(paper82), f(model82))
	}
	row("PM (sec/step)", perfmodel.TableIColumn.PMTotal)
	row("  density assignment", func(c perfmodel.TableIColumn) float64 { return c.PMDensity })
	row("  communication", func(c perfmodel.TableIColumn) float64 { return c.PMComm })
	row("  FFT", func(c perfmodel.TableIColumn) float64 { return c.PMFFT })
	row("  acceleration on mesh", func(c perfmodel.TableIColumn) float64 { return c.PMMeshAccel })
	row("  force interpolation", func(c perfmodel.TableIColumn) float64 { return c.PMInterp })
	row("PP (sec/step)", perfmodel.TableIColumn.PPTotal)
	row("  local tree", func(c perfmodel.TableIColumn) float64 { return c.PPLocalTree })
	row("  communication", func(c perfmodel.TableIColumn) float64 { return c.PPComm })
	row("  tree construction", func(c perfmodel.TableIColumn) float64 { return c.PPTreeConstr })
	row("  tree traversal", func(c perfmodel.TableIColumn) float64 { return c.PPTraverse })
	row("  force calculation", func(c perfmodel.TableIColumn) float64 { return c.PPForce })
	row("Domain Decomposition", perfmodel.TableIColumn.DDTotal)
	row("  position update", func(c perfmodel.TableIColumn) float64 { return c.DDPosUpdate })
	row("  sampling method", func(c perfmodel.TableIColumn) float64 { return c.DDSampling })
	row("  particle exchange", func(c perfmodel.TableIColumn) float64 { return c.DDExchange })
	row("Total (sec/step)", perfmodel.TableIColumn.Total)
	fmt.Println()
	fmt.Printf("%-28s %10.2f %10.2f | %10.2f %10.2f\n", "measured performance (Pflops)",
		1.53, model24.Pflops(), 4.45, model82.Pflops())
	fmt.Printf("%-28s %9.1f%% %9.1f%% | %9.1f%% %9.1f%%\n", "efficiency",
		48.7, 100*model24.Efficiency(m), 42.0, 100*model82.Efficiency(m))

	if !*doRun {
		fmt.Println("\n(use -run for a scaled-down measured breakdown on this machine)")
		return
	}
	scaledRun(*np, *ranks, *steps, *workers, *insituEvery)
}

// tableRows maps Table I's row labels onto the telemetry phase names; the
// scaled measured breakdown is rendered from the aggregated cross-rank
// profile under exactly this correspondence.
var tableRows = []struct {
	label string
	phase string
}{
	{"PM density assignment", telemetry.PhasePMDensity},
	{"PM communication", telemetry.PhasePMComm},
	{"PM FFT", telemetry.PhasePMFFT},
	{"PM acceleration on mesh", telemetry.PhasePMMeshForce},
	{"PM force interpolation", telemetry.PhasePMInterp},
	{"PP local tree", telemetry.PhasePPLocalTree},
	{"PP communication", telemetry.PhasePPComm},
	{"PP LET walk", telemetry.PhasePPLET},
	{"PP tree construction", telemetry.PhasePPTreeConstr},
	{"PP tree traversal", telemetry.PhasePPTraverse},
	{"PP force calculation", telemetry.PhasePPForce},
	{"DD position update", telemetry.PhaseDDPosUpdate},
	{"DD sampling method", telemetry.PhaseDDSampling},
	{"DD particle exchange", telemetry.PhaseDDExchange},
}

// scaledRun executes the real distributed code at laptop scale and prints
// the measured phase breakdown in Table I's shape, aggregated across ranks
// (min/mean/max and max/mean imbalance) from the telemetry profile. With
// workers ≠ 0 the intra-rank pool runs, and an imb(intra) column — the
// within-rank max/mean worker imbalance (busy+idle)/busy from the pool
// telemetry — is appended to the phase rows that batch over it; the serial
// default prints exactly the historical table.
func scaledRun(np, ranks, steps, workers, insituEvery int) {
	fmt.Printf("\nScaled measured run: %d³ particles on %d ranks, %d steps, LET exchange, float32 kernel, overlapped PM‖PP\n",
		np, ranks, steps)
	rng := rand.New(rand.NewSource(1))
	n := np * np * np
	parts := make([]sim.Particle, n)
	for i := range parts {
		parts[i] = sim.Particle{
			X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64(),
			M: 1.0 / float64(n), ID: int64(i),
		}
	}
	grid := [3]int{2, 2, 2}
	if ranks == 4 {
		grid = [3]int{2, 2, 1}
	} else if ranks == 2 {
		grid = [3]int{2, 1, 1}
	} else if ranks != 8 {
		log.Fatalf("supported rank counts: 2, 4, 8 (got %d)", ranks)
	}
	cfg := sim.Config{
		L: 1, G: 1, NMesh: 32, Theta: 0.5, Ni: 100, Eps2: 1e-8,
		Grid: grid, DT: 0.01, Workers: workers,
		InSituEvery: insituEvery, InSituFinalStep: steps,
	}
	var prof *telemetry.Profile
	var inter float64
	var ni, nj float64
	err := mpi.Run(ranks, func(c *mpi.Comm) {
		rcfg := cfg
		rcfg.Recorder = telemetry.NewRecorder(c.Rank(), nil)
		var mine []sim.Particle
		for i := range parts {
			if i%ranks == c.Rank() {
				mine = append(mine, parts[i])
			}
		}
		s, err := sim.New(c, rcfg, mine)
		if err != nil {
			panic(err)
		}
		defer s.Close()
		for i := 0; i < steps; i++ {
			if err := s.Step(); err != nil {
				panic(err)
			}
		}
		inter = s.InteractionsPerStep()
		ni, nj = s.MeanNiNj()
		if p := telemetry.Aggregate(c, s.Recorder()); c.Rank() == 0 {
			prof = p
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	per := 1.0 / float64(steps)
	// The imb(intra) column exists only when the intra-rank pool actually
	// ran (any nonzero pool busy time), so the serial default output is
	// unchanged. (busy+idle)/busy is the max/mean worker imbalance of the
	// pooled loops attributed to each phase.
	intraFor := func(phase string) (string, bool) {
		busy := prof.Counter(telemetry.MetricKey(telemetry.MetricPoolBusySeconds, telemetry.L("phase", phase)))
		idle := prof.Counter(telemetry.MetricKey(telemetry.MetricPoolIdleSeconds, telemetry.L("phase", phase)))
		if busy.Sum <= 0 {
			return "", false
		}
		return fmt.Sprintf("%10.2f", (busy.Sum+idle.Sum)/busy.Sum), true
	}
	intraActive := false
	for _, row := range tableRows {
		if _, ok := intraFor(row.phase); ok {
			intraActive = true
			break
		}
	}
	fmt.Printf("%-28s %10s %10s %10s %10s", "(all ranks, sec/step)", "min", "mean", "max", "max/mean")
	if intraActive {
		fmt.Printf(" %10s", "imb(intra)")
	}
	fmt.Println()
	for _, row := range tableRows {
		fmt.Printf("%-28s %10.4f %10.4f %10.4f %10.2f",
			row.label, prof.Phase(row.phase).Min*per, prof.Phase(row.phase).Mean*per,
			prof.Phase(row.phase).Max*per, prof.Phase(row.phase).Imbalance)
		if intraActive {
			if col, ok := intraFor(row.phase); ok {
				fmt.Print(" " + col)
			} else {
				fmt.Printf(" %10s", "-")
			}
		}
		fmt.Println()
	}
	// The overlapped pipeline's own rows: join wait is the un-hidden PM
	// remainder on the critical path; the window is the whole overlapped
	// density→{solve ‖ PP}→join section; hidden is the solve time that
	// cost no wall-clock because the tree walk covered it.
	for _, row := range []struct{ label, phase string }{
		{"overlap join wait", telemetry.PhaseOverlapJoin},
		{"overlap window (crit path)", telemetry.PhaseOverlapWindow},
	} {
		fmt.Printf("%-28s %10.4f %10.4f %10.4f %10.2f",
			row.label, prof.Phase(row.phase).Min*per, prof.Phase(row.phase).Mean*per,
			prof.Phase(row.phase).Max*per, prof.Phase(row.phase).Imbalance)
		if intraActive {
			fmt.Printf(" %10s", "-")
		}
		fmt.Println()
	}
	hid := prof.Counter(telemetry.MetricOverlapHidden)
	fmt.Printf("PM solve hidden by overlap: %.4f s/step mean-rank (%.4f max-rank)\n",
		hid.Mean*per, hid.Max*per)
	if insituEvery > 0 {
		for _, row := range []struct{ label, phase string }{
			{"in-situ FoF", telemetry.PhaseAnalysisFoF},
			{"in-situ P(k)", telemetry.PhaseAnalysisPk},
			{"in-situ projection", telemetry.PhaseAnalysisProj},
		} {
			fmt.Printf("%-28s %10.4f %10.4f %10.4f %10.2f",
				row.label, prof.Phase(row.phase).Min*per, prof.Phase(row.phase).Mean*per,
				prof.Phase(row.phase).Max*per, prof.Phase(row.phase).Imbalance)
			if intraActive {
				fmt.Printf(" %10s", "-")
			}
			fmt.Println()
		}
	}
	fmt.Printf("\n⟨Ni⟩ = %.0f, ⟨Nj⟩ = %.0f, interactions/step = %.3g, PP kernel = float32\n", ni, nj, inter)
	flops := prof.Counter(`greem_pp_kernel_flops_total`)
	fmt.Printf("PP kernel flops/step (51-op ledger): %.3g total, %.3g max-rank\n",
		flops.Sum*per, flops.Max*per)
	sent := prof.Counter(telemetry.MetricGhostSent)
	bytes := prof.Counter(telemetry.MetricGhostBytes)
	mono := prof.Counter(telemetry.MetricLETMonopoles)
	leaf := prof.Counter(telemetry.MetricLETLeaves)
	fmt.Printf("ghost exchange/step: %.3g sources (%.1f KiB alltoall), %.3g monopoles, %.3g leaves\n",
		sent.Sum*per, bytes.Sum*per/1024, mono.Sum*per, leaf.Sum*per)
}
