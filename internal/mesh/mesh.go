// Package mesh implements the serial particle-mesh (PM) long-range gravity
// solver of the TreePM split: TSC (triangular-shaped cloud) mass assignment,
// an FFT Poisson solve with the S2-shape long-range Green's function,
// four-point finite-difference accelerations on the mesh, and TSC force
// interpolation back to particle positions — the five PM steps of §II-B of
// the paper, without the parallel mesh conversions (those live in pmpar).
package mesh

import (
	"fmt"
	"math"

	"greem/internal/fft"
	"greem/internal/par"
)

// S2Hat is the Fourier transform of the unit-mass S2 density shape of paper
// eq. 1: S̃2(u) = 12(2 − 2cos u − u sin u)/u⁴ with u = k·rcut/2. It tends to
// 1 as u → 0 (point mass) and falls off as u⁻³, which is what confines the
// PM force to long wavelengths.
func S2Hat(u float64) float64 {
	if u < 0.5 {
		// The closed form suffers catastrophic cancellation as u → 0
		// (2 − 2cos u − u·sin u ≈ u⁴/12 computed from O(1) terms), so use
		// the series 1 − u²/15 + u⁴/560 − u⁶/37800 + O(u⁸/4·10⁶).
		u2 := u * u
		return 1 + u2*(-1.0/15+u2*(1.0/560-u2/37800))
	}
	return 12 * (2 - 2*math.Cos(u) - u*math.Sin(u)) / (u * u * u * u)
}

// KGreen returns the k-space Green's function multiplier for FFT mode
// (jx, jy, jz) of an n³ mesh on a periodic box of side l:
//
//	G̃(k) = −4πG/k² · S̃2(k·rcut/2)²  [ · 1/W(k)² if deconvolve ]
//
// where W is the TSC assignment window, deconvolved twice (once for mass
// assignment, once for force interpolation). The k = 0 mode returns 0, which
// subtracts the mean density (the periodic "Jeans swindle"). The S̃2² factor
// is the pair of S2 clouds whose mutual force defines the eq. 3 cutoff, so
// PP + PM sums to the exact 1/r² pair force.
func KGreen(jx, jy, jz, n int, l, g, rcut float64, deconvolve bool) float64 {
	return KGreenW(jx, jy, jz, n, l, g, rcut, deconvolve, 3)
}

// foldMode maps an FFT index j ∈ [0, n) to the signed mode number in
// [−n/2, n/2).
func foldMode(j, n int) int {
	if j > n/2 {
		return j - n
	}
	if j == n/2 {
		return -n / 2
	}
	return j
}

// tscWindow is the one-dimensional TSC assignment window in k-space,
// sinc³(π·m/n) for mode m.
func tscWindow(m, n int) float64 { return assignWindow(m, n, 3) }

// assignWindow is sincᵖ(π·m/n): p = 2 for CIC, p = 3 for TSC.
func assignWindow(m, n, p int) float64 {
	if m == 0 {
		return 1
	}
	x := math.Pi * float64(m) / float64(n)
	s := math.Sin(x) / x
	out := s
	for i := 1; i < p; i++ {
		out *= s
	}
	return out
}

// KGreenW is KGreen with an explicit assignment-window order for the
// deconvolution (2 = CIC, 3 = TSC).
func KGreenW(jx, jy, jz, n int, l, g, rcut float64, deconvolve bool, order int) float64 {
	if jx == 0 && jy == 0 && jz == 0 {
		return 0
	}
	nx := foldMode(jx, n)
	ny := foldMode(jy, n)
	nz := foldMode(jz, n)
	kx := 2 * math.Pi * float64(nx) / l
	ky := 2 * math.Pi * float64(ny) / l
	kz := 2 * math.Pi * float64(nz) / l
	k2 := kx*kx + ky*ky + kz*kz
	s := S2Hat(math.Sqrt(k2) * rcut / 2)
	out := -4 * math.Pi * g / k2 * s * s
	if deconvolve {
		w := assignWindow(nx, n, order) * assignWindow(ny, n, order) * assignWindow(nz, n, order)
		out /= w * w
	}
	return out
}

// PM is a serial particle-mesh solver on an n³ periodic mesh.
type PM struct {
	n          int
	l          float64
	g          float64
	rcut       float64
	deconvolve bool
	spectral   bool
	// order is the assignment-window order: 3 = TSC (default, the paper's
	// scheme, 27-point), 2 = CIC (8-point, the cheaper/noisier ablation).
	order int
	// complexFFT forces the full complex transform path — the solve's
	// reference oracle, set only by in-package tests (withComplexFFT in
	// green_test.go); it is also how the n == 1 degenerate mesh solves.
	complexFFT bool

	h     float64 // cell size l/n
	plan  *fft.Plan3
	rplan *fft.RealPlan3 // r2c path; nil when n < 2
	green *GreenTab      // cached multiplier table; nil → direct KGreenW

	// workers is the Workers knob (see par.Resolve); the solver owns its
	// pool and Close releases it.
	workers int
	pool    *par.Pool

	Rho        []float64    // density mesh, ρ (mass / volume)
	Phi        []float64    // potential mesh
	Fx, Fy, Fz []float64    // acceleration meshes
	spec       []complex128 // persistent half-spectrum, n·n·(n/2+1)
	work       []complex128 // full complex mesh, lazily allocated

	// Hoisted per-call scratch for the two-pass parallel assignment: pass A
	// precomputes wrapped per-axis stencil indices and weights per particle;
	// pass B deposits by x-plane ownership. Grown amortized, never shrunk.
	wix, wiy, wiz [][3]int32
	wwx, wwy, wwz [][3]float64

	// Spectral-differentiation ablation meshes, lazily allocated once.
	phiHat, fxHat, fyHat, fzHat []complex128

	// Current batch state for the bound range tasks (hoisted so the hot
	// loops allocate nothing in steady state).
	tx, ty, tz, tm []float64
	tax, tay, taz  []float64
	tpot           []float64
	np             int
	tvinv          float64

	taskPrep, taskDeposit, taskConv, taskConvC func(w, lo, hi int)
	taskDiff, taskInterp, taskPot              func(w, lo, hi int)
}

// Option configures a PM solver.
type Option func(*PM)

// WithoutDeconvolution disables the TSC window deconvolution (an ablation;
// the production configuration deconvolves).
func WithoutDeconvolution() Option { return func(p *PM) { p.deconvolve = false } }

// WithCIC switches mass assignment and force interpolation from TSC (the
// paper's 27-point scheme) to cloud-in-cell (8-point) — the classic cheaper
// assignment whose extra mesh-scale noise the TSC choice avoids.
func WithCIC() Option { return func(p *PM) { p.order = 2 } }

// WithSpectralDifferentiation replaces the four-point real-space finite
// difference with exact k-space differentiation (multiplying by ik). This is
// the ablation the paper's scheme trades away: it needs three inverse FFTs
// instead of one, but removes the differencing error at mesh-scale
// wavelengths.
func WithSpectralDifferentiation() Option { return func(p *PM) { p.spectral = true } }

// WithWorkers sets the intra-rank worker count for every PM hot loop
// (assignment, FFT lines, convolution, differencing, interpolation); the
// knob resolves through par.Resolve (0 ⇒ serial, par.Auto ⇒ GOMAXPROCS).
// Results are bit-identical to serial for any worker count; call Close when
// done to release the pool.
func WithWorkers(w int) Option { return func(p *PM) { p.workers = w } }

// New creates a PM solver for an n³ mesh (n a power of two) on a periodic
// box of side l with gravitational constant g and force-split radius rcut.
func New(n int, l, g, rcut float64, opts ...Option) (*PM, error) {
	if l <= 0 || g <= 0 || rcut <= 0 {
		return nil, fmt.Errorf("mesh: l, g, rcut must be positive (got %v, %v, %v)", l, g, rcut)
	}
	plan, err := fft.NewPlan3(n, n, n)
	if err != nil {
		return nil, fmt.Errorf("mesh: %w", err)
	}
	size := n * n * n
	pm := &PM{
		n: n, l: l, g: g, rcut: rcut, deconvolve: true, order: 3,
		h:    l / float64(n),
		plan: plan,
		Rho:  make([]float64, size),
		Phi:  make([]float64, size),
		Fx:   make([]float64, size),
		Fy:   make([]float64, size),
		Fz:   make([]float64, size),
	}
	for _, o := range opts {
		o(pm)
	}
	// The multiplier table and transform plans depend on the options, so
	// they come last. n == 1 has no real plan and falls back to the complex
	// path; odd sizes have no table and fall back to direct evaluation.
	pm.green = GreenTable(n, l, g, rcut, pm.deconvolve, pm.order)
	if n >= 2 && !pm.complexFFT {
		rplan, err := fft.NewRealPlan3(n, n, n)
		if err != nil {
			return nil, fmt.Errorf("mesh: %w", err)
		}
		pm.rplan = rplan
		pm.spec = make([]complex128, rplan.SpecLen())
	}
	pm.pool = par.New(par.Resolve(pm.workers, 1))
	if pm.pool != nil {
		pm.plan.SetPool(pm.pool)
		if pm.rplan != nil {
			pm.rplan.SetPool(pm.pool)
		}
	}
	pm.taskPrep = pm.assignPrep
	pm.taskDeposit = pm.assignDeposit
	pm.taskConv = pm.convRows
	pm.taskConvC = pm.convRowsComplex
	pm.taskDiff = pm.diffRows
	pm.taskInterp = pm.interpRange
	pm.taskPot = pm.potRange
	return pm, nil
}

// Close releases the solver's worker pool (no-op for a serial solver).
func (pm *PM) Close() {
	pm.pool.Close()
	pm.pool = nil
}

// ensureWork lazily allocates the full complex mesh used only by the
// complex-FFT and spectral-differentiation paths.
func (pm *PM) ensureWork() {
	if pm.work == nil {
		pm.work = make([]complex128, pm.n*pm.n*pm.n)
	}
}

// greenAt returns the Green's multiplier for a full-range mode, from the
// table when one exists and by direct evaluation otherwise.
func (pm *PM) greenAt(jx, jy, jz int) float64 {
	if pm.green != nil {
		return pm.green.AtFull(jx, jy, jz)
	}
	return KGreenW(jx, jy, jz, pm.n, pm.l, pm.g, pm.rcut, pm.deconvolve, pm.order)
}

// N returns the mesh size per dimension.
func (pm *PM) N() int { return pm.n }

// CellSize returns l/n.
func (pm *PM) CellSize() float64 { return pm.h }

// Clear zeroes the density mesh ahead of a new assignment pass.
func (pm *PM) Clear() {
	for i := range pm.Rho {
		pm.Rho[i] = 0
	}
}

func (pm *PM) idx(ix, iy, iz int) int { return (ix*pm.n+iy)*pm.n + iz }

// tsc computes the assignment base index and weights for coordinate x (in
// [0, l)): three TSC weights at (i0, i0+1, i0+2) mod n, or — in CIC mode —
// two linear weights with w[2] = 0.
func (pm *PM) tsc(x float64) (i0 int, w [3]float64) {
	u := x / pm.h
	if pm.order == 2 {
		f := math.Floor(u)
		d := u - f
		w[0] = 1 - d
		w[1] = d
		return int(f), w
	}
	ng := math.Round(u)
	d := u - ng
	w[0] = 0.5 * (0.5 - d) * (0.5 - d)
	w[1] = 0.75 - d*d
	w[2] = 0.5 * (0.5 + d) * (0.5 + d)
	i0 = int(ng) - 1
	return i0, w
}

// support returns the per-axis stencil width (2 for CIC, 3 for TSC).
func (pm *PM) support() int {
	if pm.order == 2 {
		return 2
	}
	return 3
}

func (pm *PM) wrapIdx(i int) int {
	i %= pm.n
	if i < 0 {
		i += pm.n
	}
	return i
}

// growScratch sizes the per-particle assignment scratch (amortized; the
// backing arrays persist on the struct so a steady-state step allocates
// nothing).
func (pm *PM) growScratch(np int) {
	if cap(pm.wix) < np {
		pm.wix = make([][3]int32, np)
		pm.wiy = make([][3]int32, np)
		pm.wiz = make([][3]int32, np)
		pm.wwx = make([][3]float64, np)
		pm.wwy = make([][3]float64, np)
		pm.wwz = make([][3]float64, np)
	}
	pm.wix = pm.wix[:np]
	pm.wiy = pm.wiy[:np]
	pm.wiz = pm.wiz[:np]
	pm.wwx = pm.wwx[:np]
	pm.wwy = pm.wwy[:np]
	pm.wwz = pm.wwz[:np]
}

// assignPrep (pass A) computes each particle's wrapped stencil indices and
// weights; particles are independent, so the range split is race-free. The
// particle mass (over cell volume) folds into the x weights exactly as the
// serial loop did (wx[a]·mv), preserving the multiplication order.
func (pm *PM) assignPrep(w, lo, hi int) {
	sup := pm.support()
	for p := lo; p < hi; p++ {
		ix, wx := pm.tsc(pm.tx[p])
		iy, wy := pm.tsc(pm.ty[p])
		iz, wz := pm.tsc(pm.tz[p])
		mv := pm.tm[p] * pm.tvinv
		for a := 0; a < sup; a++ {
			pm.wix[p][a] = int32(pm.wrapIdx(ix + a))
			pm.wiy[p][a] = int32(pm.wrapIdx(iy + a))
			pm.wiz[p][a] = int32(pm.wrapIdx(iz + a))
			pm.wwx[p][a] = wx[a] * mv
			pm.wwy[p][a] = wy[a]
			pm.wwz[p][a] = wz[a]
		}
	}
}

// assignDeposit (pass B) deposits by x-plane ownership: the pool hands
// worker w the contiguous plane range [lo, hi) and the worker scans every
// particle, depositing only stencil planes it owns. Each cell therefore
// receives its contributions in exactly the serial particle-and-stencil
// order, so the parallel density is bit-identical to the serial one for any
// worker count — the owner-computes analogue of the deterministic reduction
// the cross-rank assignment uses.
func (pm *PM) assignDeposit(w, lo, hi int) {
	n := pm.n
	sup := pm.support()
	for p := 0; p < pm.np; p++ {
		for a := 0; a < sup; a++ {
			ia := int(pm.wix[p][a])
			if ia < lo || ia >= hi {
				continue
			}
			wxa := pm.wwx[p][a]
			for b := 0; b < sup; b++ {
				wab := wxa * pm.wwy[p][b]
				rowBase := (ia*n + int(pm.wiy[p][b])) * n
				for c := 0; c < sup; c++ {
					pm.Rho[rowBase+int(pm.wiz[p][c])] += wab * pm.wwz[p][c]
				}
			}
		}
	}
}

// AssignTSC deposits the masses m at positions (x, y, z) onto the density
// mesh with the TSC scheme, in which each particle interacts with 27 grid
// points (paper §II-B step 1). Positions must lie in [0, l).
func (pm *PM) AssignTSC(x, y, z, m []float64) {
	pm.growScratch(len(x))
	pm.tx, pm.ty, pm.tz, pm.tm = x, y, z, m
	pm.np = len(x)
	pm.tvinv = 1 / (pm.h * pm.h * pm.h)
	pm.pool.Run(len(x), pm.taskPrep)
	pm.pool.Run(pm.n, pm.taskDeposit)
	pm.tx, pm.ty, pm.tz, pm.tm = nil, nil, nil, nil
}

// Solve computes the long-range potential from the density mesh: forward
// FFT, Green's-function convolution, inverse FFT (paper §II-B step 3).
//
// The density is real, so by default the solve runs r2c → half-spectrum
// convolution → c2r on the persistent spec buffer: half the transform
// arithmetic and spectral memory of the complex path. The multiplier is
// real and even, so the convolution preserves Hermitian symmetry — the
// jz = 0 and jz = n/2 planes need no special casing beyond the compressed
// indexing.
func (pm *PM) Solve() {
	if pm.complexFFT || pm.rplan == nil {
		pm.solveComplex()
		return
	}
	pm.rplan.Forward(pm.Rho, pm.spec)
	pm.pool.Run(pm.n, pm.taskConv)
	pm.rplan.Inverse(pm.spec, pm.Phi)
}

// convRows multiplies half-spectrum rows jx ∈ [lo, hi) by the Green table;
// rows are disjoint, so the parallel convolution is bit-identical to serial.
func (pm *PM) convRows(w, lo, hi int) {
	n, nh := pm.n, pm.n/2+1
	for jx := lo; jx < hi; jx++ {
		for jy := 0; jy < n; jy++ {
			base := (jx*n + jy) * nh
			row := pm.green.Row(jx, jy)
			for jz := 0; jz < nh; jz++ {
				pm.spec[base+jz] *= complex(row[jz], 0)
			}
		}
	}
}

// convRowsComplex is the full-spectrum counterpart for the complex path.
func (pm *PM) convRowsComplex(w, lo, hi int) {
	n := pm.n
	for jx := lo; jx < hi; jx++ {
		for jy := 0; jy < n; jy++ {
			base := (jx*n + jy) * n
			for jz := 0; jz < n; jz++ {
				pm.work[base+jz] *= complex(pm.greenAt(jx, jy, jz), 0)
			}
		}
	}
}

// solveComplex is the full complex-to-complex reference path (the in-package
// test oracle, and the n == 1 degenerate mesh).
func (pm *PM) solveComplex() {
	pm.ensureWork()
	for i, r := range pm.Rho {
		pm.work[i] = complex(r, 0)
	}
	pm.plan.Forward(pm.work)
	pm.pool.Run(pm.n, pm.taskConvC)
	pm.plan.Inverse(pm.work)
	for i := range pm.Phi {
		pm.Phi[i] = real(pm.work[i])
	}
}

// DiffForce computes accelerations on the mesh from the potential with the
// four-point finite difference
//
//	f = −dφ/dx ≈ −[8(φ(i+1) − φ(i−1)) − (φ(i+2) − φ(i−2))] / (12h)
//
// (paper §II-B step 5, first half).
func (pm *PM) DiffForce() {
	pm.pool.Run(pm.n, pm.taskDiff)
}

// diffRows computes the finite-difference accelerations for x-planes
// ix ∈ [lo, hi); every cell is written by exactly one worker.
func (pm *PM) diffRows(w, lo, hi int) {
	n := pm.n
	c := 1 / (12 * pm.h)
	for ix := lo; ix < hi; ix++ {
		xp1, xm1 := pm.wrapIdx(ix+1), pm.wrapIdx(ix-1)
		xp2, xm2 := pm.wrapIdx(ix+2), pm.wrapIdx(ix-2)
		for iy := 0; iy < n; iy++ {
			yp1, ym1 := pm.wrapIdx(iy+1), pm.wrapIdx(iy-1)
			yp2, ym2 := pm.wrapIdx(iy+2), pm.wrapIdx(iy-2)
			for iz := 0; iz < n; iz++ {
				zp1, zm1 := pm.wrapIdx(iz+1), pm.wrapIdx(iz-1)
				zp2, zm2 := pm.wrapIdx(iz+2), pm.wrapIdx(iz-2)
				i := pm.idx(ix, iy, iz)
				pm.Fx[i] = -c * (8*(pm.Phi[pm.idx(xp1, iy, iz)]-pm.Phi[pm.idx(xm1, iy, iz)]) -
					(pm.Phi[pm.idx(xp2, iy, iz)] - pm.Phi[pm.idx(xm2, iy, iz)]))
				pm.Fy[i] = -c * (8*(pm.Phi[pm.idx(ix, yp1, iz)]-pm.Phi[pm.idx(ix, ym1, iz)]) -
					(pm.Phi[pm.idx(ix, yp2, iz)] - pm.Phi[pm.idx(ix, ym2, iz)]))
				pm.Fz[i] = -c * (8*(pm.Phi[pm.idx(ix, iy, zp1)]-pm.Phi[pm.idx(ix, iy, zm1)]) -
					(pm.Phi[pm.idx(ix, iy, zp2)] - pm.Phi[pm.idx(ix, iy, zm2)]))
			}
		}
	}
}

// InterpolateTSC adds the mesh accelerations, TSC-interpolated at each
// particle position, into (ax, ay, az) (paper §II-B step 5, second half).
func (pm *PM) InterpolateTSC(x, y, z []float64, ax, ay, az []float64) {
	pm.tx, pm.ty, pm.tz = x, y, z
	pm.tax, pm.tay, pm.taz = ax, ay, az
	pm.pool.Run(len(x), pm.taskInterp)
	pm.tx, pm.ty, pm.tz = nil, nil, nil
	pm.tax, pm.tay, pm.taz = nil, nil, nil
}

// interpRange interpolates forces for particles [lo, hi); each particle's
// accumulators are written by exactly one worker.
func (pm *PM) interpRange(w, lo, hi int) {
	sup := pm.support()
	for p := lo; p < hi; p++ {
		ix, wx := pm.tsc(pm.tx[p])
		iy, wy := pm.tsc(pm.ty[p])
		iz, wz := pm.tsc(pm.tz[p])
		var fx, fy, fz float64
		for a := 0; a < sup; a++ {
			ia := pm.wrapIdx(ix + a)
			for b := 0; b < sup; b++ {
				ib := pm.wrapIdx(iy + b)
				wab := wx[a] * wy[b]
				rowBase := (ia*pm.n + ib) * pm.n
				for c := 0; c < sup; c++ {
					ic := pm.wrapIdx(iz + c)
					wc := wab * wz[c]
					fx += wc * pm.Fx[rowBase+ic]
					fy += wc * pm.Fy[rowBase+ic]
					fz += wc * pm.Fz[rowBase+ic]
				}
			}
		}
		pm.tax[p] += fx
		pm.tay[p] += fy
		pm.taz[p] += fz
	}
}

// InterpolatePot returns the TSC-interpolated long-range potential at the
// given positions (a diagnostic for energy bookkeeping).
func (pm *PM) InterpolatePot(x, y, z []float64, pot []float64) {
	pm.tx, pm.ty, pm.tz, pm.tpot = x, y, z, pot
	pm.pool.Run(len(x), pm.taskPot)
	pm.tx, pm.ty, pm.tz, pm.tpot = nil, nil, nil, nil
}

// potRange interpolates the potential for particles [lo, hi).
func (pm *PM) potRange(w, lo, hi int) {
	sup := pm.support()
	for p := lo; p < hi; p++ {
		ix, wx := pm.tsc(pm.tx[p])
		iy, wy := pm.tsc(pm.ty[p])
		iz, wz := pm.tsc(pm.tz[p])
		var s float64
		for a := 0; a < sup; a++ {
			ia := pm.wrapIdx(ix + a)
			for b := 0; b < sup; b++ {
				ib := pm.wrapIdx(iy + b)
				wab := wx[a] * wy[b]
				rowBase := (ia*pm.n + ib) * pm.n
				for c := 0; c < sup; c++ {
					ic := pm.wrapIdx(iz + c)
					s += wab * wz[c] * pm.Phi[rowBase+ic]
				}
			}
		}
		pm.tpot[p] += s
	}
}

// SolveSpectral computes the potential and the three acceleration meshes by
// k-space differentiation (see WithSpectralDifferentiation).
func (pm *PM) SolveSpectral() {
	n := pm.n
	pm.ensureWork()
	for i, r := range pm.Rho {
		pm.work[i] = complex(r, 0)
	}
	pm.plan.Forward(pm.work)
	if pm.phiHat == nil {
		size := len(pm.work)
		pm.phiHat = make([]complex128, size)
		pm.fxHat = make([]complex128, size)
		pm.fyHat = make([]complex128, size)
		pm.fzHat = make([]complex128, size)
	}
	phiHat, fxHat, fyHat, fzHat := pm.phiHat, pm.fxHat, pm.fyHat, pm.fzHat
	twoPiL := 2 * math.Pi / pm.l
	for jx := 0; jx < n; jx++ {
		kx := twoPiL * float64(foldMode(jx, n))
		for jy := 0; jy < n; jy++ {
			ky := twoPiL * float64(foldMode(jy, n))
			base := (jx*n + jy) * n
			for jz := 0; jz < n; jz++ {
				kz := twoPiL * float64(foldMode(jz, n))
				ph := pm.work[base+jz] * complex(pm.greenAt(jx, jy, jz), 0)
				phiHat[base+jz] = ph
				// f = −∇φ ⇒ f̂ = −ik·φ̂.
				fxHat[base+jz] = complex(0, -kx) * ph
				fyHat[base+jz] = complex(0, -ky) * ph
				fzHat[base+jz] = complex(0, -kz) * ph
			}
		}
	}
	pm.plan.Inverse(phiHat)
	pm.plan.Inverse(fxHat)
	pm.plan.Inverse(fyHat)
	pm.plan.Inverse(fzHat)
	for i := range pm.Phi {
		pm.Phi[i] = real(phiHat[i])
		pm.Fx[i] = real(fxHat[i])
		pm.Fy[i] = real(fyHat[i])
		pm.Fz[i] = real(fzHat[i])
	}
}

// Accel runs the full PM pipeline — clear, assign, solve, difference,
// interpolate — adding long-range accelerations into (ax, ay, az).
func (pm *PM) Accel(x, y, z, m []float64, ax, ay, az []float64) {
	pm.Clear()
	pm.AssignTSC(x, y, z, m)
	if pm.spectral {
		pm.SolveSpectral()
	} else {
		pm.Solve()
		pm.DiffForce()
	}
	pm.InterpolateTSC(x, y, z, ax, ay, az)
}
