package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"greem/internal/analysis"
	"greem/internal/checkpoint"
	"greem/internal/mpi"
	"greem/internal/sim"
	"greem/internal/telemetry"
	"greem/internal/tree"
)

// runOpts parameterizes one repetition of one workload.
type runOpts struct {
	seed      int64
	seconds   float64 // measured steps continue until this much step wall has accumulated (and workload.steps have run)
	setupOnly bool    // stop after the cold step: a set-up sample for setup_s
	trace     bool    // traced pass: per-rank recorders, alternate steps traced, layer probes
	accN      int     // particles in the force-accuracy draw; 0 = skip it
	scratch   string  // existing directory for checkpoints
	traceOut  string  // Chrome trace file to write after a traced pass ("" = none)
}

// runResult is what one repetition measured.
type runResult struct {
	workload  string
	walls     []float64 // per-step wall, seconds, rank 0 between two barriers
	e2e       map[string]float64
	layer     map[string]value // traced pass only
	spans     []spanSelf       // traced pass only: rank-0 bench spans with self time
	ops       ops
	shapeWarn []string // workload-shape assertions that did not hold (traced pass)
}

// ops counts operations attempted and failed; an operation is one step, one
// checkpoint write, one restore, one in-situ emission or the force-accuracy
// check.
type ops struct {
	attempted, failed int
	reasons           []string // the first few failures, for the report
}

func (o *ops) attempt(n int) { o.attempted += n }

func (o *ops) fail(format string, args ...any) {
	o.failed++
	if len(o.reasons) < 8 {
		o.reasons = append(o.reasons, fmt.Sprintf(format, args...))
	}
}

// rankSnap is one rank's cumulative telemetry at a step boundary; the sim.*
// layer rows are deltas of two snapshots.
type rankSnap struct {
	t        sim.Timers
	c        tree.Stats
	g        sim.GhostStats
	hidden   float64 // PM solve seconds hidden behind PP
	analysis float64 // in-situ phases
	ckpt     float64 // checkpoint write phase
	events   int     // trace events recorded so far
}

func snapRank(s *sim.Sim) rankSnap {
	rec := s.Recorder()
	return rankSnap{
		t: s.Timers(), c: s.Counters().Tree, g: s.GhostStats(),
		hidden:   s.OverlapStats().HiddenSeconds,
		analysis: rec.PhaseSeconds(telemetry.PhaseAnalysisFoF) + rec.PhaseSeconds(telemetry.PhaseAnalysisPk) + rec.PhaseSeconds(telemetry.PhaseAnalysisProj),
		ckpt:     rec.PhaseSeconds(telemetry.PhaseCkptWrite),
		events:   len(rec.Events()),
	}
}

// world is the state the 8 ranks of a run share. Rank 0 writes the
// scalar fields; per-rank slices are indexed by rank. Everything is read only
// after mpi.Run has returned.
type world struct {
	w    *workload
	opt  runOpts
	cfg  sim.Config
	n    int // global particle count
	ids  idSums
	stop atomic.Bool

	newSeconds   float64
	walls        []float64
	allocMB      float64
	mallocs      float64
	before       [ranks]rankSnap // window start
	counted      [ranks]rankSnap // after the first w.steps measured steps: the fixed window of the exact counters
	after        [ranks]rankSnap // window end
	recs         [ranks]*telemetry.Recorder
	ledgerBefore ledger
	ledgerAfter  ledger // taken with counted
	ops          ops    // rank 0 only
	layer        map[string]value
}

// runOnce runs one repetition: the timed set-up (generate → sim.New → cold
// step), warm-up, the measured window, the checks and, in a traced pass, the
// layer probes. With opt.setupOnly it stops after the set-up.
func runOnce(w *workload, opt runOpts) (*runResult, error) {
	res := &runResult{workload: w.name, e2e: map[string]float64{}}
	if w.cadence > 0 && ((1+w.warm)%w.cadence != 0 || w.steps%w.cadence != 0) {
		return nil, fmt.Errorf("%s: 1 cold + %d warm steps and %d measured steps must each be whole periods of the cadence %d", w.name, w.warm, w.steps, w.cadence)
	}
	t0 := time.Now()
	parts, err := w.generate(opt.seed, w.np)
	if err != nil {
		return nil, fmt.Errorf("%s: generate: %w", w.name, err)
	}
	wd := &world{w: w, opt: opt, cfg: w.config(), n: len(parts), ids: idSumsOf(parts), layer: map[string]value{}}
	err = mpi.Run(ranks, func(c *mpi.Comm) {
		s := wd.setUp(c, parts)
		c.Barrier()
		if c.Rank() == 0 {
			res.e2e["setup_s"] = time.Since(t0).Seconds()
		}
		wd.checkGlobal(c, s, "cold step")
		if !opt.setupOnly {
			wd.measure(c, s)
		}
		s.Close()
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.ops = wd.ops
	if opt.setupOnly {
		return res, nil
	}

	res.walls = wd.walls
	steps := float64(len(wd.walls))
	var wall float64
	for _, v := range wd.walls {
		wall += v
	}
	res.e2e["step_s_p50"] = percentile(wd.walls, 50)
	res.e2e["step_s_p75"] = percentile(wd.walls, 75)
	res.e2e["particle_steps_per_s"] = float64(wd.n) * steps / wall
	res.e2e["alloc_mb_per_step"] = wd.allocMB / steps
	if opt.trace {
		wd.simRows(wall)
		res.layer = wd.layer
		res.spans = spanSelfTimes(wd.recs[0])
		res.shapeWarn = shapeAssertions(w.name, wd.layer, res.e2e["step_s_p50"])
		if opt.traceOut != "" {
			if err := writeTrace(opt.traceOut, wd.recs[:]); err != nil {
				return nil, err
			}
		}
	}
	if opt.accN > 0 {
		res.ops.attempt(1)
		rms, err := forceRMSErr(w, opt.accN)
		if err != nil {
			res.ops.fail("force accuracy: %v", err)
		}
		res.e2e["force_rms_err"] = rms
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	res.e2e["rss_peak_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return res, nil
}

// setUp builds the rank's Sim from the round-robin share of parts and runs
// the cold step. Part of setup_s.
func (wd *world) setUp(c *mpi.Comm, parts []sim.Particle) *sim.Sim {
	r := c.Rank()
	cfg := wd.cfg
	if wd.opt.trace {
		wd.recs[r] = telemetry.NewRecorder(r, nil)
		wd.recs[r].EnableTrace(true)
		cfg.Recorder = wd.recs[r]
	}
	mine := make([]sim.Particle, 0, len(parts)/ranks+1)
	for j := r; j < len(parts); j += ranks {
		mine = append(mine, parts[j])
	}
	c.Barrier()
	t0 := time.Now()
	sp := cfg.Recorder.Start("bench/sim.New")
	s, err := sim.New(c, cfg, mine)
	sp.End()
	if err != nil {
		panic(fmt.Errorf("sim.New: %w", err))
	}
	c.Barrier()
	if r == 0 {
		wd.newSeconds = time.Since(t0).Seconds()
	}
	wd.step(c, s)
	return s
}

// step runs one Step and, when the cadence says so, the checkpoint write
// that belongs to it. Nothing here may allocate or communicate on the
// benchmark's own account: it is inside the timed and counted window.
func (wd *world) step(c *mpi.Comm, s *sim.Sim) {
	r := c.Rank()
	if r == 0 {
		wd.ops.attempt(1)
	}
	sp := s.Recorder().Start("bench/step")
	err := s.Step()
	sp.End()
	if err != nil {
		if r == 0 {
			wd.ops.fail("step %d: %v", s.StepIndex(), err)
		}
		panic(fmt.Errorf("step %d: %w", s.StepIndex(), err))
	}
	if wd.emits(s.StepIndex()) {
		wd.writeCheckpoint(c, s, wd.ckptConfig(s, "run"))
	}
}

func (wd *world) emits(step int) bool { return wd.w.cadence > 0 && step%wd.w.cadence == 0 }

func (wd *world) ckptConfig(s *sim.Sim, sub string) checkpoint.Config {
	return checkpoint.Config{
		Dir: filepath.Join(wd.opt.scratch, sub), Sim: wd.cfg, Keep: 2, Recorder: s.Recorder(),
	}
}

func (wd *world) writeCheckpoint(c *mpi.Comm, s *sim.Sim, ck checkpoint.Config) {
	if c.Rank() == 0 {
		wd.ops.attempt(1)
	}
	sp := s.Recorder().Start("bench/checkpoint.Write")
	_, err := checkpoint.Write(c, ck, s)
	sp.End()
	if err != nil && c.Rank() == 0 {
		wd.ops.fail("checkpoint write at step %d: %v", s.StepIndex(), err)
	}
}

// measure is everything after the cold step: warm-up, the measured window,
// the global checks, and in a traced pass the layer probes.
func (wd *world) measure(c *mpi.Comm, s *sim.Sim) {
	r := c.Rank()
	for i := 0; i < wd.w.warm; i++ {
		wd.step(c, s)
		wd.checkInSitu(c, s)
	}

	// Two barriers fence the memory statistics so no rank is inside a step
	// while rank 0 reads them.
	var m0, m1 runtime.MemStats
	c.Barrier()
	if r == 0 {
		runtime.ReadMemStats(&m0)
		if wd.opt.trace {
			wd.ledgerBefore = readLedger(c)
		}
	}
	wd.before[r] = snapRank(s)
	var wall float64
	for i := 0; ; i++ {
		// Rank 0 decides to stop before it enters this barrier and every
		// rank reads the decision after it, so all ranks agree.
		c.Barrier()
		if wd.stop.Load() {
			break
		}
		s.Recorder().EnableTrace(wd.opt.trace && i%2 == 1) // simRows splits the walls by the same parity
		t0 := time.Now()
		wd.step(c, s)
		c.Barrier()
		if r == 0 {
			dt := time.Since(t0).Seconds()
			wall += dt
			wd.walls = append(wd.walls, dt)
			n := len(wd.walls)
			whole := wd.w.cadence == 0 || n%wd.w.cadence == 0 // a window holds whole emission periods
			if wall >= wd.opt.seconds && n >= wd.w.steps && whole {
				wd.stop.Store(true)
			}
		}
		if i+1 == wd.w.steps {
			// The other ranks cannot start the next step before rank 0
			// reaches the barrier, so the ledger holds whole steps only.
			wd.counted[r] = snapRank(s)
			if r == 0 && wd.opt.trace {
				wd.ledgerAfter = readLedger(c)
			}
		}
		wd.checkInSitu(c, s)
	}
	s.Recorder().EnableTrace(wd.opt.trace)
	wd.after[r] = snapRank(s)
	c.Barrier()
	if r == 0 {
		runtime.ReadMemStats(&m1)
		wd.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
		wd.mallocs = float64(m1.Mallocs - m0.Mallocs)
	}

	wd.checkGlobal(c, s, "measured window")
	if wd.w.cadence > 0 {
		// The window ended on an emitting step (runOnce checked the
		// alignment), so the newest checkpoint holds the live state.
		if s2, _ := wd.restore(c, wd.ckptConfig(s, "run"), s.State()); s2 != nil {
			s2.Close()
		}
	}
	if wd.opt.trace {
		wd.probeLayers(c, s)
	}
}

// restore restores the newest checkpoint under ck and requires the rank's
// restored state to equal want, the state captured when it was written. It
// returns the restored Sim (nil on failure; the caller closes it) and the
// seconds this rank spent in checkpoint.Restore.
func (wd *world) restore(c *mpi.Comm, ck checkpoint.Config, want sim.State) (*sim.Sim, float64) {
	if c.Rank() == 0 {
		wd.ops.attempt(1)
	}
	sp := ck.Recorder.Start("bench/checkpoint.Restore")
	s2, err := checkpoint.Restore(c, ck)
	seconds := sp.End().Seconds()
	same := err == nil && reflect.DeepEqual(s2.State(), want)
	// Every rank must agree before anyone steps the restored Sim.
	agreed := mpi.Allreduce(c, []int{b2i(same)}, mpi.Min[int])[0] == 1
	if !agreed {
		if c.Rank() == 0 {
			wd.ops.fail("restore at step %d: err=%v, state equal on every rank: false", want.Step, err)
		}
		if s2 != nil {
			s2.Close()
		}
		return nil, seconds
	}
	return s2, seconds
}

// checkInSitu decodes rank 0's in-situ products when the step just completed
// emitted them.
func (wd *world) checkInSitu(c *mpi.Comm, s *sim.Sim) {
	if c.Rank() != 0 || !wd.emits(s.StepIndex()) || wd.cfg.InSituEvery == 0 {
		return
	}
	wd.ops.attempt(1)
	if err := decodeInSitu(s.InSituProducts(), s.StepIndex()); err != nil {
		wd.ops.fail("in-situ at step %d: %v", s.StepIndex(), err)
	}
}

func decodeInSitu(res *sim.InSituResult, step int) error {
	if res == nil || res.Step != step {
		return fmt.Errorf("no emission")
	}
	if _, err := analysis.DecodeCatalog(res.Catalog); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	pf, err := analysis.DecodePower(res.Power)
	if err != nil {
		return fmt.Errorf("power spectrum: %w", err)
	}
	if len(pf.K) == 0 || len(pf.K) != len(pf.P) {
		return fmt.Errorf("power spectrum has %d k for %d P", len(pf.K), len(pf.P))
	}
	if len(res.Density) == 0 {
		return fmt.Errorf("empty projection")
	}
	return nil
}

// idSums is the global particle-ID multiset fingerprint.
type idSums struct{ count, sum, xor int64 }

func idSumsOf(parts []sim.Particle) idSums {
	var s idSums
	for _, p := range parts {
		s.count++
		s.sum += p.ID
		s.xor ^= p.ID
	}
	return s
}

// checkGlobal is the output oracle on particle state, run after the cold step
// and after the measured window and never between measured steps, where its
// copy of the particles and its collectives would be measured too. NaN is
// absorbing and IDs do not come back, so nothing that goes wrong in between
// is missed; it counts against the last step taken. Every position must be in
// [0, L) and every velocity finite, the ID multiset must be the generated
// one, and on a static box the net momentum must stay small against the
// summed momentum magnitudes (tree forces are not pairwise antisymmetric, so
// that is a blow-up guard, not a conservation proof).
func (wd *world) checkGlobal(c *mpi.Comm, s *sim.Sim, when string) {
	parts := s.Particles()
	local := idSumsOf(parts)
	insane := int64(b2i(!particlesSane(parts, wd.cfg.L)))
	var mom [4]float64
	for _, p := range parts {
		mom[0] += p.M * p.VX
		mom[1] += p.M * p.VY
		mom[2] += p.M * p.VZ
		mom[3] += p.M * math.Sqrt(p.VX*p.VX+p.VY*p.VY+p.VZ*p.VZ)
	}
	sums := mpi.Allreduce(c, []int64{local.count, local.sum, insane}, mpi.Sum[int64])
	xor := mpi.Allreduce(c, []int64{local.xor}, func(a, b int64) int64 { return a ^ b })[0]
	mom = [4]float64(mpi.Allreduce(c, mom[:], mpi.Sum[float64]))
	if c.Rank() != 0 {
		return
	}
	if sums[2] > 0 {
		wd.ops.fail("after %s: %d ranks hold a particle outside the box or with a non-finite velocity", when, sums[2])
	}
	if got := (idSums{sums[0], sums[1], xor}); got != wd.ids {
		wd.ops.fail("after %s: particle IDs changed: have %+v, generated %+v", when, got, wd.ids)
	}
	net := math.Sqrt(mom[0]*mom[0] + mom[1]*mom[1] + mom[2]*mom[2])
	if wd.w.static && net > 1e-2*mom[3] {
		wd.ops.fail("after %s: net momentum %.3g exceeds 1e-2 of Σm|v| = %.3g", when, net, mom[3])
	}
}

func particlesSane(parts []sim.Particle, l float64) bool {
	for _, p := range parts {
		for _, x := range [3]float64{p.X, p.Y, p.Z} {
			if !(x >= 0 && x < l) { // false for NaN too
				return false
			}
		}
		for _, v := range [3]float64{p.VX, p.VY, p.VZ} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// newScratch makes a private directory under root for one run's checkpoints.
func newScratch(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}
