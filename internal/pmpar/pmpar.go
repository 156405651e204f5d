package pmpar

import (
	"fmt"
	"time"

	"greem/internal/mesh"
	"greem/internal/mpi"
	"greem/internal/par"
	"greem/internal/pfft"
	"greem/internal/telemetry"
	"greem/internal/vec"
)

// Config parameterizes the parallel PM solver.
type Config struct {
	N          int     // global PM mesh size per dimension (power of two)
	L, G, Rcut float64 // box side, gravitational constant, split radius
	// NFFT is the number of FFT (slab-holding) processes; it must satisfy
	// 1 ≤ NFFT ≤ min(N, p) — the 1-D slab decomposition limit of §II-B.
	NFFT int
	// Relay selects the relay mesh method with the given number of Groups
	// (each group must have at least NFFT members); otherwise the naive
	// global-Alltoallv conversion is used.
	Relay  bool
	Groups int
	// Interleaved assigns ranks to groups round-robin instead of in
	// contiguous blocks; each group then samples the whole volume, which
	// spreads the per-holder incast across groups (see perfmodel.ConvSpec).
	Interleaved bool
	// NoDeconvolve disables TSC window deconvolution (ablation).
	NoDeconvolve bool
	// Pencil replaces the 1-D slab FFT with the 2-D pencil decomposition of
	// §IV (future work): the FFT runs on PY×PZ processes (NFFT = PY·PZ),
	// lifting the NFFT ≤ N_PM slab limit to N_PM². The relay mesh method
	// composes with it unchanged ("this novel technique should be also
	// applicable", §II-B).
	Pencil bool
	PY, PZ int
	// Workers threads every PM hot loop — assignment, FFT lines, transpose
	// pack/unpack, convolution, differencing, interpolation — through an
	// intra-rank worker pool (the OpenMP half of the hybrid). The knob
	// resolves through par.Resolve (0 ⇒ serial, par.Auto ⇒ GOMAXPROCS per
	// rank); ignored when Pool is set. Results are bit-identical to serial
	// for any worker count.
	Workers int
	// Pool is an injected shared worker pool (the sim driver owns one per
	// rank and passes it here so PM, tree, and integrator loops share the
	// same workers). nil ⇒ the solver creates its own from Workers and
	// Close releases it.
	Pool *par.Pool
	// Recorder receives the per-phase spans (pm/density, pm/comm, pm/fft,
	// pm/mesh_force, pm/interp). nil creates a private recorder, so Times
	// stays populated either way; the sim driver injects its own so PM
	// phases land on the same per-rank timeline as PP and DD.
	Recorder *telemetry.Recorder
}

// Timings accumulates per-phase wall-clock, matching the PM rows of Table I:
// density assignment, communication (both mesh conversions), FFT,
// acceleration on mesh, and force interpolation.
type Timings struct {
	Density   time.Duration
	Comm      time.Duration
	FFT       time.Duration
	MeshForce time.Duration
	Interp    time.Duration
}

// Add accumulates o into t.
func (t *Timings) Add(o Timings) {
	t.Density += o.Density
	t.Comm += o.Comm
	t.FFT += o.FFT
	t.MeshForce += o.MeshForce
	t.Interp += o.Interp
}

// Total returns the summed phase time.
func (t Timings) Total() time.Duration {
	return t.Density + t.Comm + t.FFT + t.MeshForce + t.Interp
}

type boxDesc [6]int32 // X0, NX, Y0, NY, Z0, NZ

// windowOf returns the local-mesh window of the domain [lo, hi).
func windowOf(lo, hi vec.V3, h float64, n int) boxDesc {
	x0, nx := axisRange(lo.X, hi.X, h, n)
	y0, ny := axisRange(lo.Y, hi.Y, h, n)
	z0, nz := axisRange(lo.Z, hi.Z, h, n)
	return boxDesc{int32(x0), int32(nx), int32(y0), int32(ny), int32(z0), int32(nz)}
}

// Solver is one rank's handle on the distributed PM computation.
type Solver struct {
	comm *mpi.Comm
	cfg  Config
	lm   *LocalMesh
	lay  pfft.Layout

	// convComm is the communicator on which mesh conversions run (world for
	// naive, COMM_SMALLA2A for relay); convRanks are its members' ranks in
	// comm and convBoxes their windows under the current decomposition.
	convComm  *mpi.Comm
	convRanks []int
	convBoxes []boxDesc

	// relay only
	commReduce *mpi.Comm
	group      int

	isHolder bool   // holds (partial) slab q = convComm rank
	held     region // the cells this holder's slab covers
	slab     []float64

	isFFT   bool
	commFFT *mpi.Comm
	plan    *pfft.Plan
	pencil  *pfft.PencilPlan

	// green is the cached Green's multiplier table (nil → direct KGreenW,
	// e.g. N == 1); spec is the persistent half-spectrum slab.
	green *mesh.GreenTab
	spec  []complex128

	// Exchange geometry and buffers. The block lists depend only on the
	// domain decomposition, so both sides recompute them in Redecompose (into
	// retained capacity); the pack and receive buffers are reused every
	// solve, so the conversions allocate nothing in steady state.
	sendBlocks [][]blk     // per destination holder q < NFFT
	recvBlocks [][]blk     // holder only: per source rank of convComm
	sendF      [][]float64 // per-destination pack buffers
	recvF      [][]float64 // per-source receive buffers

	// rec receives the per-phase spans; never nil after New.
	rec *telemetry.Recorder

	// pool drives the intra-rank hot loops; ownPool marks a pool created
	// (and therefore closed) by this solver rather than injected.
	pool    *par.Pool
	ownPool bool

	// Per-phase busy/idle counters for the pool (interned once; recording is
	// allocation-free). Indexed by the poolPhase* constants.
	poolBusy [nPoolPhases]*telemetry.Counter
	poolIdle [nPoolPhases]*telemetry.Counter

	taskConv func(w, lo, hi int)

	// pending is the in-flight background solve between AccelStart and
	// AccelWait; nil otherwise.
	pending *pendingSolve

	// specTap is the armed one-shot spectrum visitor (ArmSpectrumTap);
	// tapSeconds the wall-clock its last visitation took. Both are touched
	// only by the solve flow (solveStage and its callers), so the overlap
	// mode's background goroutine is synchronized by the pendingSolve join.
	specTap    SpecVisitor
	tapSeconds float64

	// Times accumulates phase timings across Accel calls.
	Times Timings
}

// Pool-phase indices for the busy/idle counter pairs.
const (
	poolPhaseDensity = iota
	poolPhaseFFT
	poolPhaseMeshForce
	poolPhaseInterp
	nPoolPhases
)

// groupOf returns the group of world rank w among g groups over p ranks:
// contiguous balanced blocks, or round-robin when interleaved.
func groupOf(w, p, g int, interleaved bool) int {
	if interleaved {
		return w % g
	}
	return w * g / p
}

// New creates the per-rank solver. lo/hi is this rank's domain. Collective
// over c.
func New(c *mpi.Comm, cfg Config, lo, hi vec.V3) (*Solver, error) {
	p := c.Size()
	if cfg.Pencil {
		if cfg.PY < 1 || cfg.PZ < 1 || cfg.PY > cfg.N || cfg.PZ > cfg.N {
			return nil, fmt.Errorf("pmpar: pencil grid %d×%d invalid for N=%d", cfg.PY, cfg.PZ, cfg.N)
		}
		cfg.NFFT = cfg.PY * cfg.PZ
	}
	if cfg.NFFT < 1 || cfg.NFFT > p || (!cfg.Pencil && cfg.NFFT > cfg.N) {
		return nil, fmt.Errorf("pmpar: NFFT=%d invalid for p=%d, N=%d", cfg.NFFT, p, cfg.N)
	}
	if cfg.Relay {
		if cfg.Groups < 1 || cfg.Groups > p {
			return nil, fmt.Errorf("pmpar: bad group count %d", cfg.Groups)
		}
		// Balanced contiguous partition: smallest group size is ⌊p/G⌋.
		if p/cfg.Groups < cfg.NFFT {
			return nil, fmt.Errorf("pmpar: groups of ~%d ranks cannot hold %d slabs", p/cfg.Groups, cfg.NFFT)
		}
	}
	lm, err := NewLocalMesh(cfg.N, cfg.L, lo, hi)
	if err != nil {
		return nil, err
	}
	s := &Solver{comm: c, cfg: cfg, lm: lm, lay: pfft.Layout{N: cfg.N, P: cfg.NFFT}, rec: cfg.Recorder}
	if s.rec == nil {
		s.rec = telemetry.NewRecorder(c.Rank(), nil)
	}

	// Everything from here to the Allgather is independent of the domain
	// decomposition and lives as long as the solver: communicators, FFT plan,
	// Green table, slab, spectrum and the exchange buffers.
	if cfg.Relay {
		s.group = groupOf(c.Rank(), p, cfg.Groups, cfg.Interleaved)
		small := c.Split(s.group, c.Rank())
		s.convComm = small
		s.commReduce = c.Split(small.Rank(), s.group)
		s.isHolder = small.Rank() < cfg.NFFT
		s.isFFT = s.group == 0 && s.isHolder
	} else {
		s.convComm = c
		s.isHolder = c.Rank() < cfg.NFFT
		s.isFFT = s.isHolder
	}
	// convComm orders its members by their rank in c.
	for r := 0; r < p; r++ {
		if !cfg.Relay || groupOf(r, p, cfg.Groups, cfg.Interleaved) == s.group {
			s.convRanks = append(s.convRanks, r)
		}
	}
	// COMM_FFT: the paper creates it with MPI_Comm_split so that only the
	// FFT processes participate in the transform.
	fftColor := 1
	if s.isFFT {
		fftColor = 0
	}
	fc := c.Split(fftColor, c.Rank())
	if s.isFFT {
		s.commFFT = fc
		if cfg.Pencil {
			plan, err := pfft.NewPencilPlan(fc, cfg.N, cfg.PY, cfg.PZ)
			if err != nil {
				return nil, err
			}
			s.pencil = plan
		} else {
			plan, err := pfft.NewPlan(fc, cfg.N)
			if err != nil {
				return nil, err
			}
			s.plan = plan
		}
	}
	if s.isHolder {
		s.held = s.holderRegion(s.convComm.Rank())
		s.slab = make([]float64, s.held.size())
		s.recvBlocks = make([][]blk, s.convComm.Size())
	}
	s.convBoxes = make([]boxDesc, s.convComm.Size())
	s.sendBlocks = make([][]blk, cfg.NFFT)
	s.sendF = make([][]float64, s.convComm.Size())
	s.recvF = make([][]float64, s.convComm.Size())
	s.green = mesh.GreenTable(cfg.N, cfg.L, cfg.G, cfg.Rcut, !cfg.NoDeconvolve, 3)
	if s.isFFT && !cfg.Pencil {
		s.spec = make([]complex128, s.plan.LocalSpecSize())
	}
	// Intra-rank worker pool: injected (shared with tree and integrator
	// loops) or owned. Every hot loop below — local mesh, slab/pencil FFT,
	// convolution — batches over it with deterministic decompositions.
	s.pool = cfg.Pool
	if s.pool == nil {
		s.pool = par.New(par.Resolve(cfg.Workers, 1))
		s.ownPool = s.pool != nil
	}
	s.lm.SetPool(s.pool)
	if s.pool != nil {
		if s.plan != nil {
			s.plan.SetPool(s.pool)
		}
		if s.pencil != nil {
			s.pencil.SetPool(s.pool)
		}
	}
	s.taskConv = s.convRows
	for i, name := range [nPoolPhases]string{
		telemetry.PhasePMDensity, telemetry.PhasePMFFT,
		telemetry.PhasePMMeshForce, telemetry.PhasePMInterp,
	} {
		s.poolBusy[i] = s.rec.Registry().SecondsCounter(telemetry.MetricPoolBusySeconds, telemetry.L("phase", name))
		s.poolIdle[i] = s.rec.Registry().SecondsCounter(telemetry.MetricPoolIdleSeconds, telemetry.L("phase", name))
	}

	// The geometry-dependent state has one code path, Redecompose. New is
	// handed only its own domain, so it learns the others' here; a caller
	// that follows a changing decomposition holds them all and calls
	// Redecompose directly, with no communication.
	domains := mpi.Allgather(c, []vec.V3{lo, hi})
	s.Redecompose(func(rank int) (vec.V3, vec.V3) { return domains[rank][0], domains[rank][1] })
	return s, nil
}

// Redecompose moves the solver onto a new domain decomposition: bounds
// returns the domain of each rank of the solver's communicator. Only the
// window extents, the conversion peers' windows and the exchange block lists
// are recomputed, into retained capacity; communicators, FFT plan, Green
// table, slab, spectrum and the pack/receive buffers carry over. The next
// Accel is bit-identical to that of a solver newly built on the same
// decomposition. Purely local — every rank must call it with the same
// decomposition before the next collective solve — and not allowed while a
// background solve is pending.
func (s *Solver) Redecompose(bounds func(rank int) (lo, hi vec.V3)) {
	if s.pending != nil {
		panic("pmpar: Redecompose while a solve is pending")
	}
	s.lm.Reshape(bounds(s.comm.Rank()))
	n := s.cfg.N
	for i, r := range s.convRanks {
		lo, hi := bounds(r)
		s.convBoxes[i] = windowOf(lo, hi, s.lm.H, n)
	}
	// Both sides of every exchange compute its block list, so the data
	// stream needs no headers.
	mine := s.convBoxes[s.convComm.Rank()]
	for q := range s.sendBlocks {
		s.sendBlocks[q] = blocksFor(s.sendBlocks[q][:0], mine, s.holderRegion(q), n)
	}
	for src := range s.recvBlocks {
		s.recvBlocks[src] = blocksFor(s.recvBlocks[src][:0], s.convBoxes[src], s.held, n)
	}
}

// Close releases the solver's worker pool when it owns one (injected pools
// belong to the caller).
func (s *Solver) Close() {
	if s.ownPool {
		s.pool.Close()
		s.pool = nil
		s.ownPool = false
	}
}

// notePool attributes the pool time accumulated since the last call to the
// given pool phase's busy/idle counters.
func (s *Solver) notePool(phase int) {
	busy, idle := s.pool.TakeBusy()
	if busy == 0 && idle == 0 {
		return
	}
	s.poolBusy[phase].Add(busy.Seconds())
	s.poolIdle[phase].Add(idle.Seconds())
}

// greenAt returns the Green's multiplier for a full-range mode, from the
// cached table when one exists.
func (s *Solver) greenAt(jx, jy, jz int) float64 {
	if s.green != nil {
		return s.green.AtFull(jx, jy, jz)
	}
	return mesh.KGreenW(jx, jy, jz, s.cfg.N, s.cfg.L, s.cfg.G, s.cfg.Rcut, !s.cfg.NoDeconvolve, 3)
}

// growF resizes buf to n elements, reusing its backing array when possible;
// a reallocation leaves headroom, since window and block sizes drift with
// every domain decomposition.
func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, n+n/8)
	}
	return buf[:n]
}

// LocalMesh exposes the rank's mesh window (diagnostics and tests).
func (s *Solver) LocalMesh() *LocalMesh { return s.lm }

// IsFFTProcess reports whether this rank performs the FFT.
func (s *Solver) IsFFTProcess() bool { return s.isFFT }

// region is the rectangular set of global cells owned by one (partial-)mesh
// holder: x∈[x0,x1), y∈[y0,y1), z∈[z0,z1), stored row-major in that order.
// For 1-D slabs it is a full (y,z) cross-section of some x-planes; for 2-D
// pencils it is a (y,z) rectangle through every x-plane.
type region struct {
	x0, x1, y0, y1, z0, z1 int
}

func (r region) size() int { return (r.x1 - r.x0) * (r.y1 - r.y0) * (r.z1 - r.z0) }

// holderRegion returns the cells held by convComm rank q.
func (s *Solver) holderRegion(q int) region {
	n := s.cfg.N
	if s.cfg.Pencil {
		a, b := q/s.cfg.PZ, q%s.cfg.PZ
		layY := pfft.Layout{N: n, P: s.cfg.PY}
		layZ := pfft.Layout{N: n, P: s.cfg.PZ}
		return region{
			x0: 0, x1: n,
			y0: layY.Offset(a), y1: layY.Offset(a) + layY.Count(a),
			z0: layZ.Offset(b), z1: layZ.Offset(b) + layZ.Count(b),
		}
	}
	return region{
		x0: s.lay.Offset(q), x1: s.lay.Offset(q) + s.lay.Count(q),
		y0: 0, y1: n, z0: 0, z1: n,
	}
}

// blk is one rectangular exchange block between a local window and a
// holder's region: local x-plane lx (global plane gx) restricted to wrapped
// y/z segments clipped to the region.
type blk struct {
	lx, gx int
	ys, zs seg
}

// clipSeg intersects a wrapped segment with the global range [lo, hi),
// returning ok = false when empty.
func clipSeg(sg seg, lo, hi int) (seg, bool) {
	g0 := sg.g0
	g1 := sg.g0 + sg.n
	if g0 < lo {
		g0 = lo
	}
	if g1 > hi {
		g1 = hi
	}
	if g1 <= g0 {
		return seg{}, false
	}
	return seg{g0: g0, l0: sg.l0 + (g0 - sg.g0), n: g1 - g0}, true
}

// blocksFor appends to out, in deterministic order, the blocks of window b
// that land on the holder region r.
func blocksFor(out []blk, b boxDesc, r region, n int) []blk {
	ysegs, ny := axisSegs(int(b[2]), int(b[3]), n)
	zsegs, nz := axisSegs(int(b[4]), int(b[5]), n)
	for lx := 0; lx < int(b[1]); lx++ {
		gx := ((int(b[0])+lx)%n + n) % n
		if gx < r.x0 || gx >= r.x1 {
			continue
		}
		for _, ys0 := range ysegs[:ny] {
			ys, ok := clipSeg(ys0, r.y0, r.y1)
			if !ok {
				continue
			}
			for _, zs0 := range zsegs[:nz] {
				zs, ok := clipSeg(zs0, r.z0, r.z1)
				if !ok {
					continue
				}
				out = append(out, blk{lx: lx, gx: gx, ys: ys, zs: zs})
			}
		}
	}
	return out
}

func blocksLen(bs []blk) int {
	n := 0
	for _, b := range bs {
		n += b.ys.n * b.zs.n
	}
	return n
}

// packDensity fills the reused per-destination send buffers from the local
// density window using the precomputed block lists. Allocation-free in
// steady state (buffers keep their high-water capacity).
func (s *Solver) packDensity() {
	for q := range s.sendF {
		if q >= s.cfg.NFFT || len(s.sendBlocks[q]) == 0 {
			s.sendF[q] = s.sendF[q][:0]
			continue
		}
		bs := s.sendBlocks[q]
		buf := growF(s.sendF[q], blocksLen(bs))[:0]
		for _, b := range bs {
			for iy := 0; iy < b.ys.n; iy++ {
				ly := b.ys.l0 + iy
				base := (b.lx*s.lm.NY + ly) * s.lm.NZ
				buf = append(buf, s.lm.Rho[base+b.zs.l0:base+b.zs.l0+b.zs.n]...)
			}
		}
		s.sendF[q] = buf
	}
}

// unpackDensity accumulates received window pieces into this holder's slab.
func (s *Solver) unpackDensity(recv [][]float64) {
	clear(s.slab)
	r := s.held
	ny := r.y1 - r.y0
	nz := r.z1 - r.z0
	for src := range recv {
		data := recv[src]
		if len(data) == 0 {
			continue
		}
		t := 0
		for _, b := range s.recvBlocks[src] {
			for iy := 0; iy < b.ys.n; iy++ {
				gy := b.ys.g0 + iy
				base := ((b.gx-r.x0)*ny+(gy-r.y0))*nz + (b.zs.g0 - r.z0)
				for iz := 0; iz < b.zs.n; iz++ {
					s.slab[base+iz] += data[t]
					t++
				}
			}
		}
	}
}

// densityToSlabs converts the 3-D distributed local density meshes into the
// holders' regions — 1-D slabs or 2-D pencils — on convComm (steps 1–2 of
// the straightforward method; step 1 of the relay method).
func (s *Solver) densityToSlabs() {
	s.packDensity()
	s.recvF = mpi.AlltoallInto(s.convComm, s.sendF, s.recvF)
	if s.isHolder {
		s.unpackDensity(s.recvF)
	}
}

// potentialToLocal converts the holders' potential regions back to each
// rank's local window (steps 4–5 of the straightforward method; step 5 of
// relay).
func (s *Solver) potentialToLocal() {
	s.packPotential()
	s.recvF = mpi.AlltoallInto(s.convComm, s.sendF, s.recvF)
	s.unpackPotential(s.recvF)
}

// packPotential fills the reused send buffers with each destination's piece
// of this holder's potential slab (no-op buffers on non-holders).
func (s *Solver) packPotential() {
	if !s.isHolder {
		for i := range s.sendF {
			s.sendF[i] = s.sendF[i][:0]
		}
		return
	}
	r := s.held
	ny := r.y1 - r.y0
	nz := r.z1 - r.z0
	for dst := range s.sendF {
		bs := s.recvBlocks[dst]
		if len(bs) == 0 {
			s.sendF[dst] = s.sendF[dst][:0]
			continue
		}
		buf := growF(s.sendF[dst], blocksLen(bs))[:0]
		for _, b := range bs {
			for iy := 0; iy < b.ys.n; iy++ {
				gy := b.ys.g0 + iy
				base := ((b.gx-r.x0)*ny+(gy-r.y0))*nz + (b.zs.g0 - r.z0)
				buf = append(buf, s.slab[base:base+b.zs.n]...)
			}
		}
		s.sendF[dst] = buf
	}
}

// unpackPotential copies received potential pieces into the local window.
func (s *Solver) unpackPotential(recv [][]float64) {
	for q := 0; q < s.cfg.NFFT; q++ {
		data := recv[q]
		if len(data) == 0 {
			continue
		}
		t := 0
		for _, b := range s.sendBlocks[q] {
			for iy := 0; iy < b.ys.n; iy++ {
				ly := b.ys.l0 + iy
				base := (b.lx*s.lm.NY + ly) * s.lm.NZ
				copy(s.lm.Phi[base+b.zs.l0:base+b.zs.l0+b.zs.n], data[t:t+b.zs.n])
				t += b.zs.n
			}
		}
	}
}

// SpecVisitor observes one stored mode of the transformed density spectrum
// ρ̂ before the Green's convolution touches it. jx, jy, jz are full-range
// mode indices in [0, N); w is the Hermitian multiplicity of the stored mode
// (2 when a compressed-axis entry stands in for its conjugate as well, 1
// otherwise), so Σ w over all visits across the FFT ranks is exactly N³ —
// every mode of the full cube counted once.
type SpecVisitor func(jx, jy, jz, w int, re, im float64)

// ArmSpectrumTap arms a one-shot visitor over the density spectrum of the
// next solve: each FFT rank visits every stored mode of its spectrum portion
// between the forward transform and the convolution (zero extra transforms,
// zero extra communication). The tap is consumed by the solve on every rank
// — arm it collectively before each solve that should observe the spectrum.
// In-situ P(k) rides on this (see internal/sim and analysis.PkBinner). Must
// not be called while a background solve is pending.
func (s *Solver) ArmSpectrumTap(v SpecVisitor) {
	if s.pending != nil {
		panic("pmpar: ArmSpectrumTap while a solve is pending")
	}
	s.specTap = v
}

// TakeTapSeconds returns the wall-clock the last armed spectrum visitation
// took on this rank and resets it. Valid after the solve completed (after
// Accel or AccelWait).
func (s *Solver) TakeTapSeconds() float64 {
	d := s.tapSeconds
	s.tapSeconds = 0
	return d
}

// visitSpec dispatches the armed tap over this rank's stored half-spectrum
// with the layout-appropriate index mapping and Hermitian multiplicities:
// the compressed axis (kz ∈ [0, n/2] for slabs, kx for pencils) counts its
// interior modes twice.
func (s *Solver) visitSpec(spec []complex128) {
	t0 := time.Now()
	n := s.cfg.N
	v := s.specTap
	if s.cfg.Pencil {
		xc, xo, yc2, yo2 := s.pencil.SpecDims()
		for ix := 0; ix < xc; ix++ {
			jx := xo + ix
			w := 1
			if jx != 0 && jx != n/2 {
				w = 2
			}
			for iy := 0; iy < yc2; iy++ {
				jy := yo2 + iy
				base := (ix*yc2 + iy) * n
				for jz := 0; jz < n; jz++ {
					d := spec[base+jz]
					v(jx, jy, jz, w, real(d), imag(d))
				}
			}
		}
	} else {
		nh := s.plan.NZSpec() // n/2 + 1
		off := s.plan.LocalOffset()
		for lx := 0; lx < s.plan.LocalCount(); lx++ {
			jx := off + lx
			for jy := 0; jy < n; jy++ {
				base := (lx*n + jy) * nh
				for jz := 0; jz < nh; jz++ {
					w := 1
					if jz != 0 && jz != n/2 {
						w = 2
					}
					d := spec[base+jz]
					v(jx, jy, jz, w, real(d), imag(d))
				}
			}
		}
	}
	s.tapSeconds += time.Since(t0).Seconds()
}

// fftAndGreen runs the parallel FFT and the Green's-function convolution on
// the FFT processes, turning the density region into the potential region.
//
// The solve is real-to-complex: the slab density transforms into its
// Hermitian half-spectrum (n/2+1 z modes), the real, even Green's multiplier
// scales it in place on the persistent spec buffer — conjugate symmetry at
// the jz = 0 and jz = n/2 planes survives because the multiplier is real —
// and c2r brings the potential back. Both transposes inside the plan carry
// (n/2+1)/n of a complex transform's bytes.
func (s *Solver) fftAndGreen() {
	if s.cfg.Pencil {
		s.fftAndGreenPencil()
		return
	}
	s.plan.ForwardReal(s.slab, s.spec)
	if s.specTap != nil {
		s.visitSpec(s.spec)
	}
	s.pool.Run(s.plan.LocalCount(), s.taskConv)
	s.plan.InverseReal(s.spec, s.slab)
}

// convRows multiplies half-spectrum planes lx ∈ [lo, hi) of this rank's slab
// by the Green's multiplier; planes are disjoint, so the parallel
// convolution is bit-identical to serial.
func (s *Solver) convRows(w, lo, hi int) {
	n := s.cfg.N
	nh := s.plan.NZSpec()
	off := s.plan.LocalOffset()
	for lx := lo; lx < hi; lx++ {
		jx := off + lx
		for jy := 0; jy < n; jy++ {
			base := (lx*n + jy) * nh
			if s.green != nil {
				row := s.green.Row(jx, jy)
				for jz := 0; jz < nh; jz++ {
					s.spec[base+jz] *= complex(row[jz], 0)
				}
			} else {
				for jz := 0; jz < nh; jz++ {
					s.spec[base+jz] *= complex(s.greenAt(jx, jy, jz), 0)
				}
			}
		}
	}
}

// fftAndGreenPencil is fftAndGreen with the 2-D pencil plan: forward to the
// C layout, convolve there (where z is complete), and come back to A. The
// compressed axis is x (the one transformed before any communication), so
// the convolution runs over kx ∈ [0, n/2] and full ky/kz.
func (s *Solver) fftAndGreenPencil() {
	n := s.cfg.N
	spec := s.pencil.ForwardReal(s.slab)
	if s.specTap != nil {
		s.visitSpec(spec)
	}
	xc, xo, yc2, yo2 := s.pencil.SpecDims()
	s.pool.Run(xc, func(w, lo, hi int) {
		for ix := lo; ix < hi; ix++ {
			for iy := 0; iy < yc2; iy++ {
				base := (ix*yc2 + iy) * n
				for jz := 0; jz < n; jz++ {
					// xo+ix ≤ n/2, a valid full-range index; greenAt folds jz.
					spec[base+jz] *= complex(s.greenAt(xo+ix, yo2+iy, jz), 0)
				}
			}
		}
	})
	back := s.pencil.InverseReal(spec)
	copy(s.slab, back)
}

// assignDensity is stage 1 of the PM cycle: clear the local window and
// TSC-assign the particles onto it. Runs on the caller's goroutine (it owns
// the recorder and the pool accounting).
func (s *Solver) assignDensity(x, y, z, m []float64) {
	sp := s.rec.Start(telemetry.PhasePMDensity)
	s.lm.Clear()
	s.lm.AssignTSC(x, y, z, m)
	s.Times.Density += sp.End()
	s.notePool(poolPhaseDensity)
}

// solveStage is stage 2: mesh-to-slab conversion, the parallel FFT + Green's
// convolution, and the potential return conversion. It is the part the async
// API runs on a background goroutine, so it must not touch the recorder or
// the pool counters (both are rank-local and not thread-safe) — it returns
// the raw comm and FFT durations for the owner to attribute at the join
// (attributeSolve). It does drive the worker pool (FFT lines, convolution):
// during the overlap window the background solve is the pool's sole user.
func (s *Solver) solveStage() (comm, fft time.Duration) {
	// Conversion to slabs.
	t0 := time.Now()
	s.densityToSlabs()
	if s.cfg.Relay && s.isHolder {
		// Sum partial slabs across groups onto the root group, in place.
		mpi.ReduceInto(s.commReduce, 0, s.slab, s.slab, mpi.Sum[float64])
	}
	comm = time.Since(t0)

	// FFT + Green's function on the FFT processes; others wait (paper step 3).
	t0 = time.Now()
	if s.isFFT {
		s.fftAndGreen()
	}
	fft = time.Since(t0)

	t0 = time.Now()
	if s.cfg.Relay && s.isHolder {
		// Broadcast complete potential slabs back to every group, in place.
		mpi.BcastInto(s.commReduce, 0, s.slab, s.slab)
	}
	s.potentialToLocal()
	comm += time.Since(t0)
	// The tap is one-shot: consumed by this solve on every rank (FFT ranks
	// visited it above; the others simply drop it).
	s.specTap = nil
	return comm, fft
}

// attributeSolve books solveStage's durations into the recorder's phase
// counters/histograms (no trace events — the spans didn't run on the
// recorder's timeline), the Times ledger, and the FFT pool-phase counters.
// Must run on the owner goroutine.
func (s *Solver) attributeSolve(comm, fft time.Duration) {
	s.rec.AddPhase(telemetry.PhasePMComm, comm)
	s.rec.AddPhase(telemetry.PhasePMFFT, fft)
	s.Times.Comm += comm
	s.Times.FFT += fft
	s.notePool(poolPhaseFFT)
}

// finishForces is stage 3: differentiate the potential window and interpolate
// accelerations back onto the particles. Owner goroutine only.
func (s *Solver) finishForces(x, y, z, ax, ay, az []float64) {
	sp := s.rec.Start(telemetry.PhasePMMeshForce)
	s.lm.DiffForce()
	s.Times.MeshForce += sp.End()
	s.notePool(poolPhaseMeshForce)

	sp = s.rec.Start(telemetry.PhasePMInterp)
	s.lm.InterpolateTSC(x, y, z, ax, ay, az)
	s.Times.Interp += sp.End()
	s.notePool(poolPhaseInterp)
}

// Accel runs one full parallel PM cycle for this rank's particles (which
// must lie inside its domain), accumulating long-range accelerations into
// ax/ay/az (indexed like x/y/z). Collective over the world communicator.
// Identical to AccelStart immediately followed by AccelWait — both modes run
// the same stage functions in the same order, which is why the overlapped
// step pipeline is bit-identical to the sequential one.
func (s *Solver) Accel(x, y, z, m []float64, ax, ay, az []float64) {
	s.assignDensity(x, y, z, m)
	comm, fft := s.solveStage()
	s.attributeSolve(comm, fft)
	s.finishForces(x, y, z, ax, ay, az)
}

// pendingSolve tracks one in-flight background solve.
type pendingSolve struct {
	done      chan struct{}
	comm, fft time.Duration
	solve     time.Duration // wall-clock of the whole background stage
	panicked  any           // recovered panic, re-raised at the join
}

// AsyncStats reports how an overlapped PM solve went: Solve is the background
// stage's wall-clock, Wait how long AccelWait blocked on it. Solve − Wait is
// the PM time the caller's concurrent work actually hid.
type AsyncStats struct {
	Solve time.Duration
	Wait  time.Duration
}

// AccelStart begins an overlapped PM cycle: density assignment runs
// synchronously (it reads the particle arrays, which the caller is free to
// keep using afterwards — the solve stage only touches mesh state), then the
// comm+FFT solve stage launches on a dedicated goroutine. The caller must not
// drive this solver's worker pool or issue collectives on this solver's
// communicator until AccelWait; construct the solver over a duplicated
// communicator (mpi.Comm.Dup) so concurrent traffic elsewhere (ghost/LET
// exchange on the world comm) stays on its own sequence space. Collective:
// every rank must pair AccelStart with AccelWait in the same order.
func (s *Solver) AccelStart(x, y, z, m []float64) {
	if s.pending != nil {
		panic("pmpar: AccelStart while a solve is already pending")
	}
	s.assignDensity(x, y, z, m)
	ps := &pendingSolve{done: make(chan struct{})}
	s.pending = ps
	go func() {
		defer close(ps.done)
		defer func() { ps.panicked = recover() }()
		t0 := time.Now()
		ps.comm, ps.fft = s.solveStage()
		ps.solve = time.Since(t0)
	}()
}

// AccelWait joins the background solve started by AccelStart, attributes its
// phase timings, and runs the force finish (differencing + interpolation)
// into ax/ay/az. A panic in the background stage — including an mpi abort
// waking a blocked collective — is re-raised here on the owner goroutine so
// the rank's abort handling sees it.
func (s *Solver) AccelWait(x, y, z, ax, ay, az []float64) AsyncStats {
	ps := s.pending
	if ps == nil {
		panic("pmpar: AccelWait without a pending AccelStart")
	}
	t0 := time.Now()
	<-ps.done
	wait := time.Since(t0)
	s.pending = nil
	if ps.panicked != nil {
		panic(ps.panicked)
	}
	s.attributeSolve(ps.comm, ps.fft)
	s.finishForces(x, y, z, ax, ay, az)
	return AsyncStats{Solve: ps.solve, Wait: wait}
}
