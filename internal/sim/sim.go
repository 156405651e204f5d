// Package sim is the distributed simulation driver: it composes the domain
// decomposition (package domain), ghost exchange and tree short-range forces
// (package tree), the parallel PM long-range force (package pmpar), and the
// multiple-stepsize KDK integrator into the step cycle of §III — one step is
// one PM cycle plus two PP cycles and two domain-decomposition cycles — with
// the per-phase timers and interaction counters that populate Table I.
package sim

import (
	"fmt"
	"time"

	"greem/internal/analysis"
	"greem/internal/domain"
	"greem/internal/mpi"
	"greem/internal/par"
	"greem/internal/pmpar"
	"greem/internal/telemetry"
	"greem/internal/tree"
	"greem/internal/vec"
)

// Particle is the migratable per-particle state.
type Particle struct {
	X, Y, Z    float64
	VX, VY, VZ float64
	M          float64
	ID         int64
}

// TimeStepper supplies kick and drift coefficients for the integrator. For
// static (non-expanding) boxes both are just dt; the cosmo package provides
// comoving coefficients.
type TimeStepper interface {
	// KickFactor returns the multiplier applied to accelerations over [t, t+dt].
	KickFactor(t, dt float64) float64
	// DriftFactor returns the multiplier applied to velocities over [t, t+dt].
	DriftFactor(t, dt float64) float64
}

// StaticStepper integrates in a non-expanding box: factors are plain dt.
type StaticStepper struct{}

// KickFactor returns dt.
func (StaticStepper) KickFactor(t, dt float64) float64 { return dt }

// DriftFactor returns dt.
func (StaticStepper) DriftFactor(t, dt float64) float64 { return dt }

// Config parameterizes a distributed simulation. It carries the paper's axes
// (mesh layout, opening angle, group size, substeps) and nothing that selects
// a pipeline: every Sim runs the one production path — r2c PM solve,
// locally-essential-tree ghost exchange, float32 PP kernel, PM solve
// overlapped with the PP walk (§II-A, §II-B).
type Config struct {
	L, G float64 // box side, gravitational constant

	// PM configuration.
	NMesh  int
	NFFT   int
	Relay  bool
	Groups int
	// Pencil selects the 2-D pencil FFT decomposition over a PY×PZ process
	// grid (the paper's §IV future work); NFFT is then PY·PZ.
	Pencil bool
	PY, PZ int
	Rcut   float64 // 0 ⇒ 3·L/NMesh

	// Tree configuration.
	Theta   float64 // 0 ⇒ 0.5
	Ni      int     // group size cap; 0 ⇒ 100
	Eps2    float64
	LeafCap int // 0 ⇒ 16
	// Workers sizes the rank's intra-node worker pool (the OpenMP-style
	// hybrid of the paper): the per-rank tree traversal, every PM hot loop
	// (TSC assignment, FFT batches, convolution, differencing,
	// interpolation), and the integrator kick/drift loops all run on it.
	// Resolved by par.Resolve — see the par package doc for the knob
	// semantics (0 ⇒ serial, par.Auto ⇒ GOMAXPROCS capped per rank).
	// Results are bit-identical to serial for any worker count.
	Workers int

	// Domain decomposition.
	Grid        [3]int // divisions per axis; product must equal comm size
	SampleTotal int    // total sampled particles for the decomposition; 0 ⇒ 64·p
	SmoothSteps int    // moving-average window; 0 ⇒ 5 (the paper's choice)

	// Integration.
	DT      float64     // full (PM) step
	Stepper TimeStepper // nil ⇒ StaticStepper
	Time    float64     // initial time (scale factor in cosmological runs)

	// Substeps is the number of PP cycles per PM cycle; 0 ⇒ 2 (the paper).
	Substeps int

	// DeterministicCost replaces the measured wall-clock phase costs that
	// drive the cost-proportional sampling rate (the paper's method) with
	// deterministic proxies — tree interaction counts for PP, local particle
	// counts for PM. Only the sampling *rates* change semantics; the knob
	// makes multi-rank trajectories reproducible run-to-run, which is what
	// the bit-identical checkpoint/restart guarantee (and its tests) needs.
	// Production runs keep the default (measured costs, per the paper).
	DeterministicCost bool

	// Recorder is this rank's telemetry recorder; every phase timer,
	// interaction counter, and (when tracing is enabled) timeline span runs
	// through it. nil ⇒ a private recorder. Recorders are rank-local, so
	// each rank must pass its own.
	Recorder *telemetry.Recorder

	// In-situ analysis (0 ⇒ disabled): every InSituEvery completed steps —
	// and additionally at step InSituFinalStep, so a run's last step always
	// emits regardless of the cadence — the step loop computes analysis
	// products on the distributed data without gathering particles: a
	// distributed FoF halo catalog (analysis/dist), a binned P(k) tapped
	// from the PM solve's density spectrum (zero extra FFTs or all-to-alls),
	// and a surface-density projection reduced across ranks. Rank 0 exposes
	// the canonically encoded products through InSituProducts. None of these
	// fields affect the trajectory, and none participate in the checkpoint
	// fingerprint.
	InSituEvery     int
	InSituFinalStep int
	// InSituLL is the absolute FoF linking length (0 ⇒ 0.2·L/∛N; < 0
	// disables the FoF pass). InSituMinSize is the smallest group reported
	// (0 ⇒ 8).
	InSituLL      float64
	InSituMinSize int
	// InSituBins is the P(k) shell count (0 ⇒ 16; < 0 disables the pk tap).
	InSituBins int
	// InSituPix is the projection image side (0 ⇒ 64; < 0 disables it).
	InSituPix int
}

func (c *Config) setDefaults(p int) error {
	if c.L <= 0 || c.G <= 0 {
		return fmt.Errorf("sim: L and G must be positive")
	}
	if c.Grid[0]*c.Grid[1]*c.Grid[2] != p {
		return fmt.Errorf("sim: grid %v does not match %d ranks", c.Grid, p)
	}
	if c.NMesh < 2 {
		return fmt.Errorf("sim: NMesh %d too small", c.NMesh)
	}
	if c.NFFT == 0 && !c.Pencil {
		c.NFFT = min(p, c.NMesh)
	}
	if c.Rcut == 0 {
		c.Rcut = 3 * c.L / float64(c.NMesh)
	}
	if c.Theta == 0 {
		c.Theta = 0.5
	}
	if c.Ni == 0 {
		c.Ni = 100
	}
	if c.LeafCap == 0 {
		c.LeafCap = 16
	}
	if c.SampleTotal == 0 {
		c.SampleTotal = 64 * p
	}
	if c.SmoothSteps == 0 {
		c.SmoothSteps = 5
	}
	if c.Stepper == nil {
		c.Stepper = StaticStepper{}
	}
	if c.Substeps == 0 {
		c.Substeps = 2
	}
	if c.DT <= 0 {
		return fmt.Errorf("sim: DT must be positive")
	}
	return nil
}

// Sim is one rank's handle on the distributed simulation.
type Sim struct {
	comm *mpi.Comm
	cfg  Config

	geo     *domain.Geometry
	history []*domain.Geometry
	pm      *pmpar.Solver
	// pmComm is the duplicated communicator every PM solver runs on: the
	// background solve's collectives are in flight while PP ghost/LET traffic
	// uses the world comm, and per-comm sequence spaces keep the streams from
	// interleaving.
	pmComm *mpi.Comm

	// oracle switches single layers back to their reference implementation.
	// Unexported and zero in every Sim a caller can build: only in-package
	// tests set it (the differential harness and the ghost-exchange tests),
	// between New/Resume and the first force evaluation.
	oracle oracle

	// Local particles (SoA).
	x, y, z    []float64
	vx, vy, vz []float64
	m          []float64
	id         []int64

	// Long- and short-range accelerations for the local particles.
	apx, apy, apz []float64 // PM
	asx, asy, asz []float64 // PP

	pmFresh, ppFresh bool
	time             float64
	step             int

	// lastCost is this rank's measured force time (seconds) used for the
	// cost-proportional sampling rate; lastPMCost is the most recent PM
	// cycle's cost, amortized over the substeps.
	lastCost   float64
	lastPMCost float64

	rng sampleRNG

	// rec is the rank's telemetry recorder (never nil); the tree-statistics
	// counters below are interned handles into its registry.
	rec                                                         *telemetry.Recorder
	ctrGroups, ctrSumNi, ctrListP, ctrListN, ctrInter, ctrNodes *telemetry.Counter
	ctrFlops                                                    *telemetry.Counter
	// Per-step Table I gauges: the most recent PP pass's mean group size
	// ⟨Ni⟩ and mean interaction-list length ⟨Nj⟩ (the cumulative counters
	// above carry the run totals).
	gaugeNi, gaugeNj *telemetry.Gauge

	// walker owns the grouped tree-walk scratch (interaction-list batches,
	// per-group accumulators, traversal stack), reused across PP passes so
	// the steady-state walk allocates nothing.
	walker *tree.Walker

	// srcBuild and tgtBuild are the reusable tree arenas for the source
	// (local+ghost) and target (local/LET) trees — two builders because both
	// trees are alive at once during a force pass. With them the steady-state
	// substep's tree construction allocates nothing.
	srcBuild, tgtBuild *tree.Builder

	// pot is the reused potential buffer for PotentialEnergy.
	pot []float64

	// Ghost-exchange machinery: the LET walk scratch, per-destination staging
	// buffers, the per-source receive buffers, and the local+ghost source-set
	// arrays are all Sim-owned and reused, so the steady-state exchange and
	// source assembly allocate nothing (see TestAssembleSourcesAllocs).
	let        tree.LETCollector
	ghostSend  [][]ghost
	ghostRecv  [][]ghost
	srcX, srcY []float64
	srcZ, srcM []float64

	// Domain-decomposition machinery, Sim-owned and reused like the ghost
	// buffers: the gathered per-rank costs and counts, this rank's sampled
	// positions (x, y, z triples), the root's sample set, and the particle
	// exchange's per-destination leavers and per-source arrivals. nTotal is
	// the run's particle count, which the gathered counts must keep adding
	// up to.
	ddCosts            []float64
	ddCounts           []int
	ddSamples          []float64
	ddPts              []vec.V3
	partSend, partRecv [][]Particle
	nTotal             int64

	// Ghost traffic and LET composition counters.
	ctrGhostSent, ctrGhostRecv, ctrGhostBytes *telemetry.Counter
	ctrLETMono, ctrLETLeaf, ctrLETNodes       *telemetry.Counter

	// pool is the rank's intra-node worker pool (nil ⇒ serial), shared by
	// the PM solver (injected through pmpar.Config.Pool) and the integrator
	// loops below. Owned — and closed — by the Sim.
	pool *par.Pool

	// Hoisted integrator pool tasks and their per-call state, so kick and
	// drift dispatch with zero steady-state allocation. tk* alias the PM or
	// PP acceleration arrays for the current kick; tkf/tdf are the kick and
	// drift factors.
	taskKick, taskDrift func(w, lo, hi int)
	tkx, tky, tkz       []float64
	tkf, tdf            float64

	// Pool busy/idle counters for the integrator phases (the PM phases are
	// recorded inside pmpar).
	poolBusyKick, poolIdleKick   *telemetry.Counter
	poolBusyDrift, poolIdleDrift *telemetry.Counter

	// Overlap telemetry: PM solve seconds hidden behind the PP walk, and the
	// most recent overlapped window's critical-path wall-clock.
	ctrOverlapHidden *telemetry.Counter
	gaugeOverlapCrit *telemetry.Gauge

	// In-situ analysis state: insituArmed marks a step whose trailing PM
	// solve carries the spectrum tap; insituBin is that tap's binner (only
	// the solve flow touches it between arm and join); insituTotM/insituNp
	// are the globally reduced mass and count of the current arm;
	// insituLast is rank 0's most recent emission.
	insituArmed bool
	insituBin   *analysis.PkBinner
	insituTotM  float64
	insituNp    int64
	insituLast  *InSituResult
}

// oracle selects the reference implementation of one layer per field; the
// differential harness pins the production pipeline against them.
type oracle struct {
	rawGhosts   bool // exchangeGhostsRaw: every particle within rcut of a neighbour, shipped raw
	sequential  bool // computePM(); computePP() in program order, nothing overlapped
	float64Walk bool // tree.ForceOpts.Float64Walk
}

// PhaseIntegKick labels the integrator kick loops' pool busy/idle counters
// (the kicks have no wall-clock phase of their own in Table I; the label
// exists only under the pool metrics).
const PhaseIntegKick = "integ/kick"

// Timers is the per-rank per-phase wall-clock view, with the same rows as
// Table I. It is derived from the rank's telemetry recorder — the single
// source of truth — so it survives PM-solver rebuilds and stays consistent
// with the exported metrics and traces.
type Timers struct {
	PM pmpar.Timings

	PPLocalTree  float64 // assembling the local+ghost source set
	PPComm       float64 // ghost exchange
	PPLET        float64 // LET walk building each neighbour's source set
	PPTreeConstr float64
	PPTraverse   float64 // traversal+force are fused in tree.Accel; split by kernel clock
	PPForce      float64

	DDPosUpdate float64
	DDSampling  float64
	DDExchange  float64
}

// Timers materializes the Table I phase view from the telemetry registry.
func (s *Sim) Timers() Timers {
	sec := s.rec.PhaseSeconds
	d := func(name string) time.Duration { return time.Duration(sec(name) * float64(time.Second)) }
	return Timers{
		PM: pmpar.Timings{
			Density:   d(telemetry.PhasePMDensity),
			Comm:      d(telemetry.PhasePMComm),
			FFT:       d(telemetry.PhasePMFFT),
			MeshForce: d(telemetry.PhasePMMeshForce),
			Interp:    d(telemetry.PhasePMInterp),
		},
		PPLocalTree:  sec(telemetry.PhasePPLocalTree),
		PPComm:       sec(telemetry.PhasePPComm),
		PPLET:        sec(telemetry.PhasePPLET),
		PPTreeConstr: sec(telemetry.PhasePPTreeConstr),
		PPTraverse:   sec(telemetry.PhasePPTraverse),
		PPForce:      sec(telemetry.PhasePPForce),
		DDPosUpdate:  sec(telemetry.PhaseDDPosUpdate),
		DDSampling:   sec(telemetry.PhaseDDSampling),
		DDExchange:   sec(telemetry.PhaseDDExchange),
	}
}

// Counters is the interaction-statistics view (⟨Ni⟩, ⟨Nj⟩, #interactions),
// likewise derived from the telemetry registry counters.
type Counters struct {
	Tree tree.Stats
}

// Counters materializes the interaction statistics from the registry.
func (s *Sim) Counters() Counters {
	return Counters{Tree: tree.Stats{
		Groups:        int(s.ctrGroups.Value()),
		SumNi:         uint64(s.ctrSumNi.Value()),
		ListParticles: uint64(s.ctrListP.Value()),
		ListNodes:     uint64(s.ctrListN.Value()),
		Interactions:  uint64(s.ctrInter.Value()),
		NodesVisited:  uint64(s.ctrNodes.Value()),
		KernelSeconds: s.rec.PhaseSeconds(telemetry.PhasePPForce),
	}}
}

// Recorder returns the rank's telemetry recorder (for trace export and
// cross-rank aggregation).
func (s *Sim) Recorder() *telemetry.Recorder { return s.rec }

// GhostStats is a rank's accumulated ghost-exchange statistics: sources
// shipped and received, payload bytes sent, and — on the LET path — the
// export's composition (pruned node monopoles vs raw leaf particles).
type GhostStats struct {
	Sent, Recv, Bytes uint64
	Monopoles, Leaves uint64
	LETNodesVisited   uint64
}

// GhostStats materializes the ghost-exchange statistics from the registry.
func (s *Sim) GhostStats() GhostStats {
	return GhostStats{
		Sent:            uint64(s.ctrGhostSent.Value()),
		Recv:            uint64(s.ctrGhostRecv.Value()),
		Bytes:           uint64(s.ctrGhostBytes.Value()),
		Monopoles:       uint64(s.ctrLETMono.Value()),
		Leaves:          uint64(s.ctrLETLeaf.Value()),
		LETNodesVisited: uint64(s.ctrLETNodes.Value()),
	}
}

// New creates the simulation from an initial particle set. parts holds this
// rank's particles under the *uniform* initial decomposition (they are
// redistributed immediately). Collective over c.
func New(c *mpi.Comm, cfg Config, parts []Particle) (*Sim, error) {
	if err := cfg.setDefaults(c.Size()); err != nil {
		return nil, err
	}
	s := newSim(c, cfg)
	s.setParticles(parts)
	// Initial exchange onto the uniform geometry, then build the PM solver.
	if err := s.exchangeParticles(); err != nil {
		return nil, err
	}
	// That exchange moved most of the particles; a substep's moves a sliver.
	// Let the staging regrow to the size the run needs.
	s.partSend, s.partRecv = nil, nil
	if err := s.buildPM(); err != nil {
		return nil, err
	}
	return s, nil
}

// newSim builds the rank-local scaffolding shared by New and Resume: the
// uniform starting geometry, worker pool, telemetry handles and sampling
// RNG. cfg must already have defaults applied.
func newSim(c *mpi.Comm, cfg Config) *Sim {
	rec := cfg.Recorder
	if rec == nil {
		rec = telemetry.NewRecorder(c.Rank(), nil)
	}
	s := &Sim{
		comm: c, cfg: cfg,
		geo:      domain.Uniform(cfg.Grid[0], cfg.Grid[1], cfg.Grid[2], cfg.L),
		time:     cfg.Time,
		rng:      newSampleRNG(int64(42 + c.Rank())),
		rec:      rec,
		walker:   tree.NewWalker(),
		srcBuild: tree.NewBuilder(),
		tgtBuild: tree.NewBuilder(),
		// The PM comm plane. newSim runs on every rank in both New and
		// Resume, and each world's nsplit counters start fresh, so the dup is
		// deterministic and resume-stable.
		pmComm: c.Dup(),
	}
	// One pool per rank, shared by the PM solver and the integrator loops. par.New returns nil for ≤ 1
	// worker, and a nil pool runs inline, so the serial default costs
	// nothing. Resolve caps Auto by the rank count since the
	// ranks-as-goroutines emulation shares one process.
	s.pool = par.New(par.Resolve(cfg.Workers, c.Size()))
	s.taskKick = s.kickRange
	s.taskDrift = s.driftRange
	reg := rec.Registry()
	s.poolBusyKick = reg.SecondsCounter(telemetry.MetricPoolBusySeconds, telemetry.L("phase", PhaseIntegKick))
	s.poolIdleKick = reg.SecondsCounter(telemetry.MetricPoolIdleSeconds, telemetry.L("phase", PhaseIntegKick))
	s.poolBusyDrift = reg.SecondsCounter(telemetry.MetricPoolBusySeconds, telemetry.L("phase", telemetry.PhaseDDPosUpdate))
	s.poolIdleDrift = reg.SecondsCounter(telemetry.MetricPoolIdleSeconds, telemetry.L("phase", telemetry.PhaseDDPosUpdate))
	s.ctrGroups = reg.Counter("greem_tree_groups_total")
	s.ctrSumNi = reg.Counter("greem_tree_sum_ni_total")
	s.ctrListP = reg.Counter("greem_tree_list_particles_total")
	s.ctrListN = reg.Counter("greem_tree_list_nodes_total")
	s.ctrInter = reg.Counter("greem_tree_interactions_total")
	s.ctrNodes = reg.Counter("greem_tree_nodes_visited_total")
	s.ctrFlops = reg.FlopCounter("greem_pp_kernel_flops_total")
	s.gaugeNi = reg.Gauge("greem_tree_mean_ni")
	s.gaugeNj = reg.Gauge("greem_tree_mean_nj")
	s.ctrGhostSent = reg.Counter(telemetry.MetricGhostSent)
	s.ctrGhostRecv = reg.Counter(telemetry.MetricGhostRecv)
	s.ctrGhostBytes = reg.Counter(telemetry.MetricGhostBytes)
	s.ctrLETMono = reg.Counter(telemetry.MetricLETMonopoles)
	s.ctrLETLeaf = reg.Counter(telemetry.MetricLETLeaves)
	s.ctrLETNodes = reg.Counter(telemetry.MetricLETNodeVisits)
	s.ctrOverlapHidden = reg.SecondsCounter(telemetry.MetricOverlapHidden)
	s.gaugeOverlapCrit = reg.Gauge("greem_overlap_critical_path_seconds")
	return s
}

// setParticles installs parts as the local particles, in order, and counts
// the run's particles (collective).
func (s *Sim) setParticles(parts []Particle) {
	n := len(parts)
	s.x = make([]float64, n)
	s.y = make([]float64, n)
	s.z = make([]float64, n)
	s.vx = make([]float64, n)
	s.vy = make([]float64, n)
	s.vz = make([]float64, n)
	s.m = make([]float64, n)
	s.id = make([]int64, n)
	for i, p := range parts {
		s.x[i], s.y[i], s.z[i] = p.X, p.Y, p.Z
		s.vx[i], s.vy[i], s.vz[i] = p.VX, p.VY, p.VZ
		s.m[i], s.id[i] = p.M, p.ID
	}
	s.resizeAccels()
	s.nTotal = mpi.Allreduce(s.comm, []int64{int64(n)}, mpi.Sum[int64])[0]
}

// resizeAccels gives the six acceleration arrays one zero per local particle,
// within their capacity.
func (s *Sim) resizeAccels() {
	n := len(s.x)
	for _, a := range [...]*[]float64{&s.apx, &s.apy, &s.apz, &s.asx, &s.asy, &s.asz} {
		*a = growFloats(*a, n)
		clear(*a)
	}
}

// buildPM creates the PM solver on the current decomposition. It runs once,
// in New or Resume; from then on the solver follows the decomposition through
// Redecompose, which is bit-identical to building anew.
func (s *Sim) buildPM() error {
	lo, hi := s.geo.Bounds(s.comm.Rank())
	pm, err := pmpar.New(s.pmComm, pmpar.Config{
		N: s.cfg.NMesh, L: s.cfg.L, G: s.cfg.G, Rcut: s.cfg.Rcut,
		NFFT: s.cfg.NFFT, Relay: s.cfg.Relay, Groups: s.cfg.Groups,
		Pencil: s.cfg.Pencil, PY: s.cfg.PY, PZ: s.cfg.PZ,
		// Workers is deliberately left zero: the Sim already resolved the
		// knob into its per-rank pool and injects that (possibly nil ⇒
		// serial) pool.
		Pool: s.pool, Recorder: s.rec,
	}, lo, hi)
	if err != nil {
		return err
	}
	s.pm = pm
	return nil
}

// Close releases the rank's worker pool. The Sim must not be stepped after
// Close; safe when the pool is nil (serial) and idempotent.
func (s *Sim) Close() {
	s.pool.Close()
	s.pool = nil
}

// NumLocal returns this rank's particle count.
func (s *Sim) NumLocal() int { return len(s.x) }

// Time returns the current simulation time (or scale factor).
func (s *Sim) Time() float64 { return s.time }

// StepIndex returns the number of completed full steps.
func (s *Sim) StepIndex() int { return s.step }

// Geometry returns the current domain decomposition.
func (s *Sim) Geometry() *domain.Geometry { return s.geo }

// Particles returns a snapshot of the local particles.
func (s *Sim) Particles() []Particle {
	out := make([]Particle, len(s.x))
	for i := range s.x {
		out[i] = Particle{
			X: s.x[i], Y: s.y[i], Z: s.z[i],
			VX: s.vx[i], VY: s.vy[i], VZ: s.vz[i],
			M: s.m[i], ID: s.id[i],
		}
	}
	return out
}

// GatherAll collects every rank's particles at root (nil elsewhere).
func (s *Sim) GatherAll(root int) []Particle {
	gathered := mpi.Gather(s.comm, root, s.Particles())
	if gathered == nil {
		return nil
	}
	var all []Particle
	for _, g := range gathered {
		all = append(all, g...)
	}
	return all
}

// bounds returns this rank's domain.
func (s *Sim) bounds() (vec.V3, vec.V3) { return s.geo.Bounds(s.comm.Rank()) }
