// Package pmpar implements the parallel particle-mesh solver of §II-B: each
// process keeps a *local mesh* covering its own rectangular domain plus ghost
// layers, while the FFT runs on 1-D slabs held by a subset of processes. The
// package provides both mesh-conversion algorithms between those two layouts:
//
//   - Naive: one global MPI_Alltoallv over the world communicator, in which
//     every process sends its local-mesh contributions straight to the slab
//     owners. With p processes an FFT process receives ~p/NFFT·(overlap)
//     messages — ~4000 at the paper's full-system scale — and the incast
//     congestion dominates.
//
//   - Relay mesh: processes are divided into groups (size ≥ the number of
//     FFT processes). Each group first builds *partial* density slabs with an
//     Alltoallv closed inside the group (COMM_SMALLA2A), then the partial
//     slabs are summed across groups onto the root group with MPI_Reduce
//     (COMM_REDUCE). After the FFT (COMM_FFT), the potential slabs are
//     broadcast back over COMM_REDUCE and scattered inside each group.
//
// Both paths produce identical numerics; only the communication pattern
// differs, which the mpi traffic ledger records for the perfmodel replay.
package pmpar

import (
	"fmt"
	"math"

	"greem/internal/par"
	"greem/internal/vec"
)

// ghostAssign is the ghost width needed for TSC mass assignment (a particle
// touches its nearest cell ±1, and the nearest cell of a particle at the
// domain edge can lie one cell outside).
const ghostAssign = 2

// ghostPot is the ghost width of the potential mesh: force interpolation
// needs the force mesh on ±1 cells beyond the particle's nearest cell, and
// the four-point finite difference needs φ two cells beyond that.
const ghostPot = 4

// LocalMesh is one process's rectangular window of the global n³ mesh,
// including ghost layers. Global cell indices (X0 …) may be negative or
// exceed n; they wrap modulo n. If a window would cover the whole axis it is
// clamped to exactly [0, n), and indexing wraps.
type LocalMesh struct {
	N int     // global mesh size per dimension
	H float64 // cell size L/N

	X0, Y0, Z0 int // global index of local origin
	NX, NY, NZ int // local extent per axis (≤ N)

	Rho        []float64
	Phi        []float64
	Fx, Fy, Fz []float64

	// pool batches the assignment, differencing, and interpolation loops
	// across intra-rank workers (SetPool; nil = serial). Decompositions are
	// deterministic — plane ownership for the scatter, disjoint ranges for
	// the rest — so results are bit-identical to serial at any worker count.
	pool *par.Pool

	// Hoisted per-call scratch for the two-pass parallel assignment (pass A
	// precomputes local stencil indices and weights per particle; pass B
	// deposits by local-x-plane ownership). Grown amortized, never shrunk.
	wix, wiy, wiz [][3]int32
	wwx, wwy, wwz [][3]float64

	// Current batch state for the bound range tasks.
	tx, ty, tz, tm []float64
	tax, tay, taz  []float64
	tpot           []float64
	np             int
	tvinv          float64
	tx0            int

	taskPrep, taskDeposit, taskDiff, taskInterp, taskPot func(w, lo, hi int)
}

// NewLocalMesh creates the local window for the domain [lo, hi) of a box of
// side l with an n³ global mesh.
func NewLocalMesh(n int, l float64, lo, hi vec.V3) (*LocalMesh, error) {
	if n < 1 {
		return nil, fmt.Errorf("pmpar: bad mesh size %d", n)
	}
	m := &LocalMesh{N: n, H: l / float64(n)}
	m.taskPrep = m.assignPrep
	m.taskDeposit = m.assignDeposit
	m.taskDiff = m.diffTask
	m.taskInterp = m.interpRange
	m.taskPot = m.potRange
	m.Reshape(lo, hi)
	return m, nil
}

// Reshape moves the window to the domain [lo, hi), keeping the five mesh
// arrays' capacity. Afterwards the mesh holds what a new one would as far as
// any reader can tell: Fx/Fy/Fz are zero (DiffForce leaves the two outermost
// layers unwritten), while Rho and Phi keep stale cells only until the solve
// cycle rewrites all of them — Clear before the assignment, the potential
// scatter (which covers every window cell) before the differencing.
func (m *LocalMesh) Reshape(lo, hi vec.V3) {
	w := windowOf(lo, hi, m.H, m.N)
	m.X0, m.NX = int(w[0]), int(w[1])
	m.Y0, m.NY = int(w[2]), int(w[3])
	m.Z0, m.NZ = int(w[4]), int(w[5])
	sz := m.NX * m.NY * m.NZ
	m.Rho = growF(m.Rho, sz)
	m.Phi = growF(m.Phi, sz)
	m.Fx = growF(m.Fx, sz)
	m.Fy = growF(m.Fy, sz)
	m.Fz = growF(m.Fz, sz)
	clear(m.Fx)
	clear(m.Fy)
	clear(m.Fz)
}

// SetPool attaches a worker pool to the mesh loops (nil restores serial).
// The pool is shared, not owned: the caller closes it.
func (m *LocalMesh) SetPool(pool *par.Pool) { m.pool = pool }

func axisRange(lo, hi, h float64, n int) (origin, extent int) {
	c0 := int(math.Floor(lo/h)) - ghostPot
	c1 := int(math.Ceil(hi/h)) + ghostPot
	if c1-c0 >= n {
		return 0, n
	}
	return c0, c1 - c0
}

func (m *LocalMesh) idx(lx, ly, lz int) int { return (lx*m.NY+ly)*m.NZ + lz }

// wrapAxis maps a global index to a local index for one axis, or −1 if the
// cell is outside the window.
func wrapAxis(g, origin, extent, n int) int {
	l := g - origin
	if extent == n {
		l %= n
		if l < 0 {
			l += n
		}
		return l
	}
	if l < 0 || l >= extent {
		return -1
	}
	return l
}

// Clear zeroes the density array.
func (m *LocalMesh) Clear() {
	for i := range m.Rho {
		m.Rho[i] = 0
	}
}

// tsc returns the global base cell index and TSC weights for coordinate x.
func (m *LocalMesh) tsc(x float64) (g0 int, w [3]float64) {
	u := x / m.H
	ng := math.Round(u)
	d := u - ng
	w[0] = 0.5 * (0.5 - d) * (0.5 - d)
	w[1] = 0.75 - d*d
	w[2] = 0.5 * (0.5 + d) * (0.5 + d)
	return int(ng) - 1, w
}

// growScratch sizes the per-particle assignment scratch, with headroom when
// it has to reallocate: the solver outlives domain decompositions, and the
// local particle count keeps fluctuating across them.
func (m *LocalMesh) growScratch(np int) {
	if cap(m.wix) < np {
		c := np + np/8
		m.wix = make([][3]int32, np, c)
		m.wiy = make([][3]int32, np, c)
		m.wiz = make([][3]int32, np, c)
		m.wwx = make([][3]float64, np, c)
		m.wwy = make([][3]float64, np, c)
		m.wwz = make([][3]float64, np, c)
	}
	m.wix = m.wix[:np]
	m.wiy = m.wiy[:np]
	m.wiz = m.wiz[:np]
	m.wwx = m.wwx[:np]
	m.wwy = m.wwy[:np]
	m.wwz = m.wwz[:np]
}

// assignPrep (pass A) precomputes each particle's local stencil indices and
// weights, with the mass folded into the x weights exactly as the serial
// loop multiplied (wx[a]·mv). Particles are independent; the split is
// race-free.
func (m *LocalMesh) assignPrep(w, lo, hi int) {
	for p := lo; p < hi; p++ {
		gx, wx := m.tsc(m.tx[p])
		gy, wy := m.tsc(m.ty[p])
		gz, wz := m.tsc(m.tz[p])
		mv := m.tm[p] * m.tvinv
		for a := 0; a < 3; a++ {
			m.wix[p][a] = int32(wrapAxis(gx+a, m.X0, m.NX, m.N))
			m.wiy[p][a] = int32(wrapAxis(gy+a, m.Y0, m.NY, m.N))
			m.wiz[p][a] = int32(wrapAxis(gz+a, m.Z0, m.NZ, m.N))
			m.wwx[p][a] = wx[a] * mv
			m.wwy[p][a] = wy[a]
			m.wwz[p][a] = wz[a]
		}
	}
}

// assignDeposit (pass B) deposits by local-x-plane ownership: worker w owns
// the contiguous plane range [lo, hi) and scans every particle, depositing
// only stencil planes it owns. Each cell receives its contributions in the
// serial particle-and-stencil order, so the parallel density is bit-identical
// to the serial one for any worker count.
func (m *LocalMesh) assignDeposit(w, lo, hi int) {
	for p := 0; p < m.np; p++ {
		for a := 0; a < 3; a++ {
			lx := int(m.wix[p][a])
			if lx < lo || lx >= hi {
				continue
			}
			wxa := m.wwx[p][a]
			for b := 0; b < 3; b++ {
				wab := wxa * m.wwy[p][b]
				base := (lx*m.NY + int(m.wiy[p][b])) * m.NZ
				for c := 0; c < 3; c++ {
					m.Rho[base+int(m.wiz[p][c])] += wab * m.wwz[p][c]
				}
			}
		}
	}
}

// AssignTSC deposits particle masses onto the local density mesh. Particles
// must lie inside this process's domain so all 27 touched cells fall within
// the ghost window.
func (m *LocalMesh) AssignTSC(x, y, z, mass []float64) {
	m.growScratch(len(x))
	m.tx, m.ty, m.tz, m.tm = x, y, z, mass
	m.np = len(x)
	m.tvinv = 1 / (m.H * m.H * m.H)
	m.pool.Run(len(x), m.taskPrep)
	m.pool.Run(m.NX, m.taskDeposit)
	m.tx, m.ty, m.tz, m.tm = nil, nil, nil, nil
}

// DiffForce computes the acceleration meshes from the potential with the
// four-point finite difference on every cell that has two φ neighbours in
// each direction (all cells when the window wraps the whole axis).
func (m *LocalMesh) DiffForce() {
	x0, x1 := 2, m.NX-2
	if m.NX == m.N {
		x0, x1 = 0, m.NX
	}
	m.tx0 = x0
	m.pool.Run(x1-x0, m.taskDiff)
}

// diffTask maps the pool's [lo, hi) onto the clipped x-plane range; planes
// are written by exactly one worker each.
func (m *LocalMesh) diffTask(w, lo, hi int) {
	m.diffForceRange(m.tx0+lo, m.tx0+hi)
}

// diffForceRange computes the force meshes for local x indices [lx0, lx1).
func (m *LocalMesh) diffForceRange(lx0, lx1 int) {
	c := 1 / (12 * m.H)
	y0, y1 := 2, m.NY-2
	z0, z1 := 2, m.NZ-2
	if m.NY == m.N {
		y0, y1 = 0, m.NY
	}
	if m.NZ == m.N {
		z0, z1 = 0, m.NZ
	}
	at := func(lx, ly, lz int) float64 {
		if m.NX == m.N {
			lx = (lx%m.N + m.N) % m.N
		}
		if m.NY == m.N {
			ly = (ly%m.N + m.N) % m.N
		}
		if m.NZ == m.N {
			lz = (lz%m.N + m.N) % m.N
		}
		return m.Phi[m.idx(lx, ly, lz)]
	}
	for lx := lx0; lx < lx1; lx++ {
		for ly := y0; ly < y1; ly++ {
			for lz := z0; lz < z1; lz++ {
				i := m.idx(lx, ly, lz)
				m.Fx[i] = -c * (8*(at(lx+1, ly, lz)-at(lx-1, ly, lz)) - (at(lx+2, ly, lz) - at(lx-2, ly, lz)))
				m.Fy[i] = -c * (8*(at(lx, ly+1, lz)-at(lx, ly-1, lz)) - (at(lx, ly+2, lz) - at(lx, ly-2, lz)))
				m.Fz[i] = -c * (8*(at(lx, ly, lz+1)-at(lx, ly, lz-1)) - (at(lx, ly, lz+2) - at(lx, ly, lz-2)))
			}
		}
	}
}

// InterpolateTSC adds the TSC-interpolated mesh accelerations at the particle
// positions into ax/ay/az. Particles must lie inside the domain.
func (m *LocalMesh) InterpolateTSC(x, y, z []float64, ax, ay, az []float64) {
	m.tx, m.ty, m.tz = x, y, z
	m.tax, m.tay, m.taz = ax, ay, az
	m.pool.Run(len(x), m.taskInterp)
	m.tx, m.ty, m.tz = nil, nil, nil
	m.tax, m.tay, m.taz = nil, nil, nil
}

// interpRange interpolates forces for particles [lo, hi); each particle's
// accumulators are written by exactly one worker.
func (m *LocalMesh) interpRange(w, lo, hi int) {
	for p := lo; p < hi; p++ {
		gx, wx := m.tsc(m.tx[p])
		gy, wy := m.tsc(m.ty[p])
		gz, wz := m.tsc(m.tz[p])
		var fx, fy, fz float64
		for a := 0; a < 3; a++ {
			lx := wrapAxis(gx+a, m.X0, m.NX, m.N)
			for b := 0; b < 3; b++ {
				ly := wrapAxis(gy+b, m.Y0, m.NY, m.N)
				wab := wx[a] * wy[b]
				base := (lx*m.NY + ly) * m.NZ
				for c := 0; c < 3; c++ {
					lz := wrapAxis(gz+c, m.Z0, m.NZ, m.N)
					wc := wab * wz[c]
					fx += wc * m.Fx[base+lz]
					fy += wc * m.Fy[base+lz]
					fz += wc * m.Fz[base+lz]
				}
			}
		}
		m.tax[p] += fx
		m.tay[p] += fy
		m.taz[p] += fz
	}
}

// seg is a wrapped contiguous run of global cells on one axis: global start
// g0 (already wrapped into [0,n)), local start l0, and length n.
type seg struct {
	g0, l0, n int
}

// axisSegs decomposes the window [origin, origin+extent) into at most two
// wrapped segments, returned as a fixed array and a count so the block-list
// rebuild allocates nothing. (When extent == n the origin is 0 by
// construction, so the general path yields the single full segment.)
func axisSegs(origin, extent, n int) (segs [2]seg, count int) {
	g := ((origin % n) + n) % n
	if g+extent <= n {
		return [2]seg{{g0: g, l0: 0, n: extent}}, 1
	}
	first := n - g
	return [2]seg{
		{g0: g, l0: 0, n: first},
		{g0: 0, l0: first, n: extent - first},
	}, 2
}

// InterpolatePot adds the TSC-interpolated long-range potential at the
// particle positions into pot (energy diagnostics).
func (m *LocalMesh) InterpolatePot(x, y, z []float64, pot []float64) {
	m.tx, m.ty, m.tz, m.tpot = x, y, z, pot
	m.pool.Run(len(x), m.taskPot)
	m.tx, m.ty, m.tz, m.tpot = nil, nil, nil, nil
}

// potRange interpolates the potential for particles [lo, hi).
func (m *LocalMesh) potRange(w, lo, hi int) {
	for p := lo; p < hi; p++ {
		gx, wx := m.tsc(m.tx[p])
		gy, wy := m.tsc(m.ty[p])
		gz, wz := m.tsc(m.tz[p])
		var s float64
		for a := 0; a < 3; a++ {
			lx := wrapAxis(gx+a, m.X0, m.NX, m.N)
			for b := 0; b < 3; b++ {
				ly := wrapAxis(gy+b, m.Y0, m.NY, m.N)
				wab := wx[a] * wy[b]
				base := (lx*m.NY + ly) * m.NZ
				for c := 0; c < 3; c++ {
					lz := wrapAxis(gz+c, m.Z0, m.NZ, m.N)
					s += wab * wz[c] * m.Phi[base+lz]
				}
			}
		}
		m.tpot[p] += s
	}
}
