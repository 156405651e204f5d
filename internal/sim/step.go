package sim

import (
	"time"

	"greem/internal/mpi"
	"greem/internal/ppkern"
	"greem/internal/telemetry"
	"greem/internal/tree"
	"greem/internal/vec"
)

// computePM evaluates the long-range force for the local particles. The PM
// phase breakdown (pm/density … pm/interp) is recorded by the solver itself,
// on the same recorder; the top-level PM span carries the step-cycle
// structure into the trace.
func (s *Sim) computePM() {
	sp := s.rec.Start(telemetry.SpanPM)
	for i := range s.apx {
		s.apx[i], s.apy[i], s.apz[i] = 0, 0, 0
	}
	s.pm.Accel(s.x, s.y, s.z, s.m, s.apx, s.apy, s.apz)
	s.lastPMCost = sp.End().Seconds()
	if s.cfg.DeterministicCost {
		s.lastPMCost = float64(len(s.x) + 1)
	}
	s.pmFresh = true
}

// computePMPP runs one overlapped PM‖PP window: density assignment, then the
// PM comm+FFT solve on a background goroutine over the duplicated comm while
// computePP runs the full short-range pipeline on this goroutine, joined
// before returning. Both stages read the same (frozen) positions and write
// disjoint accumulators (apx/… vs asx/…), and the PM stages execute exactly
// the code the sequential Accel runs, so the result is bit-identical to
// computePM(); computePP() — asserted by the differential harness.
//
// costEarly preserves the sequential DeterministicCost sequencing: the
// leading (pre-kick) window replaces computePM-then-computePP, where the PM
// cost proxy is set before computePP reads it; the trailing window replaces
// computePP-then-computePM, where computePP reads the previous value.
func (s *Sim) computePMPP(costEarly bool) {
	t0 := time.Now()
	sp := s.rec.Start(telemetry.SpanPM)
	for i := range s.apx {
		s.apx[i], s.apy[i], s.apz[i] = 0, 0, 0
	}
	s.pm.AccelStart(s.x, s.y, s.z, s.m)
	d1 := sp.End()
	if s.cfg.DeterministicCost && costEarly {
		s.lastPMCost = float64(len(s.x) + 1)
	}

	s.computePP()

	// The join. The fault point lets the restart battery kill a rank with a
	// solve in flight; the second PM span keeps the trace's span nesting
	// LIFO (the PP span opened and closed in between).
	s.comm.FaultPoint("overlap/join")
	sp = s.rec.Start(telemetry.SpanPM)
	st := s.pm.AccelWait(s.x, s.y, s.z, s.apx, s.apy, s.apz)
	d2 := sp.End()

	hidden := st.Solve - st.Wait
	if hidden < 0 {
		hidden = 0
	}
	window := time.Since(t0)
	s.rec.AddPhase(telemetry.PhaseOverlapJoin, st.Wait)
	s.rec.AddPhase(telemetry.PhaseOverlapWindow, window)
	s.ctrOverlapHidden.Add(hidden.Seconds())
	s.gaugeOverlapCrit.Set(window.Seconds())

	if s.cfg.DeterministicCost {
		s.lastPMCost = float64(len(s.x) + 1)
	} else {
		// The PM cycle's own cost: both spans plus the background solve,
		// minus the joined wait (already inside d2).
		s.lastPMCost = (d1 + d2 + st.Solve - st.Wait).Seconds()
	}
	s.pmFresh = true
}

// computePP evaluates the short-range (tree) force for the local particles:
// ghost exchange, source/target tree construction, grouped traversal and the
// cutoff kernel. It also updates lastCost for the sampling method.
func (s *Sim) computePP() {
	spAll := s.rec.Start(telemetry.SpanPP)

	srcTree, tgtTree, nGhosts := s.buildSourceTrees()

	for i := range s.asx {
		s.asx[i], s.asy[i], s.asz[i] = 0, 0, 0
	}
	sp := s.rec.Start(telemetry.PhasePPTreeWalk)
	// When no ghosts arrived the single tree must handle periodicity itself,
	// since no ghosts encode the wrap.
	st := s.walker.Accel(srcTree, tgtTree, s.cfg.Ni, s.forceOpts(nGhosts == 0), s.asx, s.asy, s.asz)
	fused := sp.End().Seconds()
	// The walk fuses traversal and force; split it for Table I using the
	// kernel's own clock, and feed the interaction ledger.
	kernel := st.KernelSeconds
	if kernel > fused {
		kernel = fused
	}
	s.rec.AddPhase(telemetry.PhasePPForce, time.Duration(kernel*float64(time.Second)))
	s.rec.AddPhase(telemetry.PhasePPTraverse, time.Duration((fused-kernel)*float64(time.Second)))
	s.ctrGroups.AddUint(uint64(st.Groups))
	s.ctrSumNi.AddUint(st.SumNi)
	s.ctrListP.AddUint(st.ListParticles)
	s.ctrListN.AddUint(st.ListNodes)
	s.ctrInter.AddUint(st.Interactions)
	s.ctrNodes.AddUint(st.NodesVisited)
	s.ctrFlops.AddUint(st.Flops())
	// Per-step Table I gauges (this pass, not the run total).
	s.gaugeNi.Set(st.MeanNi())
	s.gaugeNj.Set(st.MeanNj())

	s.lastCost = spAll.End().Seconds() + s.lastPMCost/float64(s.cfg.Substeps)
	if s.cfg.DeterministicCost {
		s.lastCost = float64(st.Interactions+1) + s.lastPMCost/float64(s.cfg.Substeps)
	}
	s.ppFresh = true
}

func (s *Sim) forceOpts(periodic bool) tree.ForceOpts {
	return tree.ForceOpts{
		G: s.cfg.G, Theta: s.cfg.Theta, Eps2: s.cfg.Eps2,
		Cutoff: true, Rcut: s.cfg.Rcut,
		Periodic: periodic, L: s.cfg.L,
		Float64Walk: s.oracle.float64Walk,
		Workers:     s.cfg.Workers,
	}
}

// kickRange is the pooled kick task: a pure per-particle update over a
// disjoint index range, so the parallel kick is trivially bit-identical to
// the serial loop. tkx/tky/tkz alias the acceleration component arrays.
func (s *Sim) kickRange(w, lo, hi int) {
	k := s.tkf
	ax, ay, az := s.tkx, s.tky, s.tkz
	for i := lo; i < hi; i++ {
		s.vx[i] += k * ax[i]
		s.vy[i] += k * ay[i]
		s.vz[i] += k * az[i]
	}
}

// kick applies one kick with the given acceleration arrays over [t, t+dt],
// batched over the rank's worker pool. The "sim/kick" fault point lets
// crash-restart tests kill a rank mid-step, between force evaluation and
// the velocity update.
func (s *Sim) kick(t, dt float64, ax, ay, az []float64) {
	s.comm.FaultPoint("sim/kick")
	s.tkf = s.cfg.Stepper.KickFactor(t, dt)
	s.tkx, s.tky, s.tkz = ax, ay, az
	s.pool.Run(len(s.vx), s.taskKick)
	s.tkx, s.tky, s.tkz = nil, nil, nil
	s.notePool(s.poolBusyKick, s.poolIdleKick)
}

// kickPM applies the long-range kick over [t, t+dt].
func (s *Sim) kickPM(t, dt float64) { s.kick(t, dt, s.apx, s.apy, s.apz) }

// kickPP applies the short-range kick over [t, t+dt].
func (s *Sim) kickPP(t, dt float64) { s.kick(t, dt, s.asx, s.asy, s.asz) }

// driftRange is the pooled drift task (pure per-particle, disjoint ranges).
func (s *Sim) driftRange(w, lo, hi int) {
	d := s.tdf
	l := s.cfg.L
	for i := lo; i < hi; i++ {
		p := vec.Wrap(vec.V3{X: s.x[i] + d*s.vx[i], Y: s.y[i] + d*s.vy[i], Z: s.z[i] + d*s.vz[i]}, l)
		s.x[i], s.y[i], s.z[i] = p.X, p.Y, p.Z
	}
}

// drift advances positions over [t, t+dt] and wraps them into the box.
func (s *Sim) drift(t, dt float64) {
	sp := s.rec.Start(telemetry.PhaseDDPosUpdate)
	s.tdf = s.cfg.Stepper.DriftFactor(t, dt)
	s.pool.Run(len(s.x), s.taskDrift)
	s.time += dt
	sp.End()
	s.notePool(s.poolBusyDrift, s.poolIdleDrift)
	s.pmFresh = false
	s.ppFresh = false
}

// notePool attributes pool time accumulated since the last call to the given
// busy/idle counter pair (no-op for the nil serial pool).
func (s *Sim) notePool(busy, idle *telemetry.Counter) {
	b, id := s.pool.TakeBusy()
	if b == 0 && id == 0 {
		return
	}
	busy.Add(b.Seconds())
	idle.Add(id.Seconds())
}

// Step advances the system by one full step Δ: a half long-range kick, then
// Substeps short-range KDK cycles (each with a fresh domain decomposition and
// short-range force), then the long-range force and the closing half kick —
// the multiple-stepsize symplectic scheme of Duncan, Levison & Lee (1998)
// that the paper adopts ("one step = a cycle of PM and two cycles of PP and
// domain decomposition"). The two points where a PM cycle and a PP cycle
// consume the same positions — the leading stale-force pair and the trailing
// PM with the final substep's PP — run as overlapped windows (computePMPP),
// hiding the PM solve behind the tree walk (§II-B); forces and trajectories
// are bit-identical to the sequential order the oracle keeps. Collective
// over the world communicator.
func (s *Sim) Step() error {
	s.comm.FaultPoint("sim/step")
	dt := s.cfg.DT
	sub := s.cfg.Substeps
	delta := dt / float64(sub)
	t0 := s.time

	if !s.oracle.sequential && !s.pmFresh && !s.ppFresh {
		s.computePMPP(true)
	} else {
		if !s.pmFresh {
			s.computePM()
		}
		if !s.ppFresh {
			s.computePP()
		}
	}
	s.kickPM(t0, dt/2)

	tk := t0
	for k := 0; k < sub; k++ {
		s.kickPP(tk, delta/2)
		s.drift(tk, delta)
		if err := s.domainDecomposition(); err != nil {
			return err
		}
		if !s.oracle.sequential && k == sub-1 {
			// Final substep: the trailing PM solve rides behind this PP. An
			// in-situ-due step arms the spectrum tap here — the solve sees
			// the step's final positions (only kicks follow).
			s.armInSitu()
			s.computePMPP(false)
		} else {
			s.computePP()
		}
		s.kickPP(tk+delta/2, delta/2)
		tk += delta
	}

	if !s.pmFresh {
		// The sequential oracle's trailing solve (there always reached:
		// drift cleared pmFresh and the substep PP passes don't set it);
		// the in-situ arm rides on whichever trailing solve runs.
		s.armInSitu()
		s.computePM()
	}
	s.kickPM(t0+dt/2, dt/2)
	s.step++
	s.maybeInSitu()
	return nil
}

// Kinetic returns the global kinetic energy (collective).
func (s *Sim) Kinetic() float64 {
	var k float64
	for i := range s.vx {
		k += 0.5 * s.m[i] * (s.vx[i]*s.vx[i] + s.vy[i]*s.vy[i] + s.vz[i]*s.vz[i])
	}
	return globalSum(s, k)
}

// InteractionsPerStep estimates pairwise interactions per full step from the
// accumulated counters (collective).
func (s *Sim) InteractionsPerStep() float64 {
	tot := globalSum(s, s.ctrInter.Value())
	if s.step == 0 {
		return tot
	}
	return tot / float64(s.step)
}

func globalSum(s *Sim, v float64) float64 {
	return mpi.Allreduce(s.comm, []float64{v}, mpi.Sum[float64])[0]
}

// MeanNiNj returns the global ⟨Ni⟩ and ⟨Nj⟩ (collective).
func (s *Sim) MeanNiNj() (ni, nj float64) {
	groups := globalSum(s, s.ctrGroups.Value())
	sumNi := globalSum(s, s.ctrSumNi.Value())
	list := globalSum(s, s.ctrListP.Value()+s.ctrListN.Value())
	if groups == 0 {
		return 0, 0
	}
	return sumNi / groups, list / groups
}

// AccelFor returns a copy of the current total acceleration of local
// particle i (PM + PP), for tests.
func (s *Sim) AccelFor(i int) (ax, ay, az float64) {
	return s.apx[i] + s.asx[i], s.apy[i] + s.asy[i], s.apz[i] + s.asz[i]
}

// ComputeForces evaluates both force components without advancing time (for
// force-accuracy tests). Collective.
func (s *Sim) ComputeForces() {
	if !s.pmFresh {
		s.computePM()
	}
	if !s.ppFresh {
		s.computePP()
	}
}

// ID returns local particle i's identifier.
func (s *Sim) ID(i int) int64 { return s.id[i] }

// potTable is the shared short-range potential shape (rcut-independent).
var potTable = ppkern.NewPotTable(2048)

// PotentialEnergy returns the global potential energy ½·Σ mᵢ·Φᵢ from the
// most recent force evaluation's PM potential mesh plus a short-range tree
// potential pass. Collective; call after ComputeForces or a Step. Like all
// mesh-based energies it carries a small constant self-energy offset, so use
// it for *drift* tracking (its physical use in production runs, where an
// O(N²) Ewald energy is impossible).
func (s *Sim) PotentialEnergy() float64 {
	n := len(s.x)
	// Reused Sim-owned buffer; growFloats doesn't zero and InterpolatePot
	// accumulates, so clear it explicitly.
	s.pot = growFloats(s.pot, n)
	pot := s.pot
	for i := range pot {
		pot[i] = 0
	}
	// Long-range part from the PM potential mesh (current decomposition).
	s.pm.LocalMesh().InterpolatePot(s.x, s.y, s.z, pot)

	// Short-range part: same ghost + tree machinery as the force.
	srcTree, tgtTree, nGhosts := s.buildSourceTrees()
	fo := s.forceOpts(nGhosts == 0)
	tree.PotentialCutoff(srcTree, tgtTree, s.cfg.Ni, fo, potTable, pot)

	var e float64
	for i := 0; i < n; i++ {
		e += 0.5 * s.m[i] * pot[i]
	}
	return globalSum(s, e)
}

// OverlapStats is this rank's overlapped-pipeline accounting: the cumulative
// PM solve seconds hidden behind the concurrent PP computation, and the most
// recent overlapped window's critical-path wall-clock.
type OverlapStats struct {
	HiddenSeconds     float64
	LastWindowSeconds float64
}

// OverlapStats materializes the overlap telemetry from the registry.
func (s *Sim) OverlapStats() OverlapStats {
	return OverlapStats{
		HiddenSeconds:     s.ctrOverlapHidden.Value(),
		LastWindowSeconds: s.gaugeOverlapCrit.Value(),
	}
}
