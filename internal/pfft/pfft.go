// Package pfft implements the 1-D slab-decomposed parallel 3-D FFT used for
// the PM part, the stand-in for FFTW 3.3's MPI transform (paper §II-B). The
// mesh is distributed in x-slabs over the ranks of a communicator (the
// paper's COMM_FFT); the transform does local y/z FFTs, an all-to-all block
// transpose, x FFTs, and a transpose back, so both the real-space and
// k-space arrays live in the same x-slab layout.
//
// The slab decomposition is what limits the number of FFT processes to at
// most N_PM planes — the constraint that motivates both the relay mesh
// method and the COMM_FFT process selection.
//
// Real meshes should use ForwardReal/InverseReal: the z axis is compressed
// to n/2+1 Hermitian modes before any communication, so the all-to-all
// transposes ship roughly half the complex values of the full transform.
package pfft

import (
	"fmt"

	"greem/internal/fft"
	"greem/internal/mpi"
	"greem/internal/par"
)

// Layout describes balanced x-slab ownership of an n³ mesh over p ranks:
// plane counts differ by at most one, with the first n mod p ranks holding
// one extra plane. Ranks beyond n hold zero planes.
type Layout struct {
	N, P int
}

// Count returns the number of x-planes owned by rank r.
func (l Layout) Count(r int) int {
	base := l.N / l.P
	if r < l.N%l.P {
		return base + 1
	}
	return base
}

// Offset returns the first x-plane owned by rank r.
func (l Layout) Offset(r int) int {
	base := l.N / l.P
	rem := l.N % l.P
	if r < rem {
		return r * (base + 1)
	}
	return rem*(base+1) + (r-rem)*base
}

// OwnerOf returns the rank owning x-plane ix.
func (l Layout) OwnerOf(ix int) int {
	base := l.N / l.P
	rem := l.N % l.P
	if base == 0 {
		return ix // one plane per rank for the first N ranks
	}
	if ix < rem*(base+1) {
		return ix / (base + 1)
	}
	return rem + (ix-rem*(base+1))/base
}

// Plan is a parallel FFT plan bound to one communicator. All ranks of the
// communicator must call Forward/Inverse collectively. A Plan owns reusable
// scratch buffers, so it must not be shared between goroutines (each rank
// builds its own); an attached par.Pool (SetPool) batches the local
// per-line work and the transpose pack/unpack across the rank's workers,
// with each line (or peer-rank block) handled by exactly one worker so the
// parallel transform is bit-identical to the serial one.
type Plan struct {
	comm *mpi.Comm
	n    int
	nh   int // n/2+1: compressed z extent of the real path
	lay  Layout

	cnt, off int // this rank's slab

	line  *fft.Plan       // length-n 1-D plan for the complex passes (scratch-free, shared)
	rline []*fft.RealPlan // per-worker z-axis r2c/c2r plans; nil when n < 2
	ycnt  int
	yoff  int

	pool *par.Pool
	wmid [][]complex128 // per-worker mid-axis line gather scratch, len n each

	send  [][]complex128 // per-destination transpose blocks, reused
	recv  [][]complex128 // per-source transpose blocks, received into and reused
	trBuf []complex128   // y-slab transpose target, reused

	// Current batch state for the bound range tasks (hoisted so the hot
	// path allocates nothing in steady state).
	ta     []complex128
	tinv   bool
	trow   int
	treal  []float64
	tspec  []complex128
	tlocal []complex128
	ttr    []complex128

	taskZ, taskMid, taskFZ, taskIZ                     func(w, lo, hi int)
	taskPackXY, taskUnpackXY, taskPackYX, taskUnpackYX func(w, lo, hi int)
}

// NewPlan creates a slab FFT plan for an n³ mesh (n a power of two) on the
// given communicator.
func NewPlan(c *mpi.Comm, n int) (*Plan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("pfft: mesh size %d is not a power of two", n)
	}
	lay := Layout{N: n, P: c.Size()}
	p := &Plan{comm: c, n: n, nh: n/2 + 1, lay: lay}
	p.cnt = lay.Count(c.Rank())
	p.off = lay.Offset(c.Rank())
	p.ycnt = lay.Count(c.Rank())
	p.yoff = lay.Offset(c.Rank())
	pl, err := fft.NewPlan(n)
	if err != nil {
		return nil, err
	}
	p.line = pl
	if n >= 2 {
		rl, err := fft.NewRealPlan(n)
		if err != nil {
			return nil, err
		}
		p.rline = []*fft.RealPlan{rl}
	}
	p.send = make([][]complex128, c.Size())
	p.recv = make([][]complex128, c.Size())
	p.taskZ = p.zLines
	p.taskMid = p.midLines
	p.taskFZ = p.fzLines
	p.taskIZ = p.izLines
	p.taskPackXY = p.packXY
	p.taskUnpackXY = p.unpackXY
	p.taskPackYX = p.packYX
	p.taskUnpackYX = p.unpackYX
	p.sizeScratch(1)
	return p, nil
}

// SetPool attaches a worker pool for batching local line work (nil restores
// serial). The pool is shared, not owned: the caller closes it.
func (p *Plan) SetPool(pool *par.Pool) {
	p.pool = pool
	p.sizeScratch(pool.Workers())
}

func (p *Plan) sizeScratch(workers int) {
	for len(p.wmid) < workers {
		p.wmid = append(p.wmid, make([]complex128, p.n))
	}
	if p.rline != nil {
		for len(p.rline) < workers {
			p.rline = append(p.rline, p.rline[0].Clone())
		}
	}
}

// growC resizes buf to n elements, reusing its backing array when possible.
func growC(buf []complex128, n int) []complex128 {
	if cap(buf) < n {
		return make([]complex128, n)
	}
	return buf[:n]
}

// zLines transforms contiguous z lines [lo, hi) of the current batch.
func (p *Plan) zLines(w, lo, hi int) {
	n := p.n
	for i := lo; i < hi; i++ {
		line := p.ta[i*n : (i+1)*n]
		if p.tinv {
			p.line.Inverse(line)
		} else {
			p.line.Forward(line)
		}
	}
}

// midLines transforms strided middle-axis lines; line li of nslab·rowLen is
// (s, iz) with s = li/rowLen, iz = li%rowLen.
func (p *Plan) midLines(w, lo, hi int) {
	n, rowLen := p.n, p.trow
	buf := p.wmid[w][:n]
	for li := lo; li < hi; li++ {
		base := (li/rowLen)*n*rowLen + li%rowLen
		for im := 0; im < n; im++ {
			buf[im] = p.ta[base+im*rowLen]
		}
		if p.tinv {
			p.line.Inverse(buf)
		} else {
			p.line.Forward(buf)
		}
		for im := 0; im < n; im++ {
			p.ta[base+im*rowLen] = buf[im]
		}
	}
}

// fzLines r2c-transforms contiguous z lines with worker-private real plans.
func (p *Plan) fzLines(w, lo, hi int) {
	n, nh := p.n, p.nh
	for i := lo; i < hi; i++ {
		p.rline[w].Forward(p.treal[i*n:(i+1)*n], p.tspec[i*nh:(i+1)*nh])
	}
}

// izLines c2r-transforms contiguous z lines with worker-private real plans.
func (p *Plan) izLines(w, lo, hi int) {
	n, nh := p.n, p.nh
	for i := lo; i < hi; i++ {
		p.rline[w].Inverse(p.tspec[i*nh:(i+1)*nh], p.treal[i*n:(i+1)*n])
	}
}

// transformZ applies the 1-D transform along z for every line of an
// (nslab, n, n) slab.
func (p *Plan) transformZ(a []complex128, nslab int, inverse bool) {
	p.ta, p.tinv = a, inverse
	p.pool.Run(nslab*p.n, p.taskZ)
	p.ta = nil
}

// transformMid applies the 1-D transform along the middle axis of an
// (nslab, n, rowLen) slab; rowLen is n on the complex path and n/2+1 on the
// compressed real path.
func (p *Plan) transformMid(a []complex128, nslab, rowLen int, inverse bool) {
	p.ta, p.trow, p.tinv = a, rowLen, inverse
	p.pool.Run(nslab*rowLen, p.taskMid)
	p.ta = nil
}

// Layout returns the slab layout.
func (p *Plan) Layout() Layout { return p.lay }

// LocalCount returns this rank's number of x-planes.
func (p *Plan) LocalCount() int { return p.cnt }

// LocalOffset returns this rank's first x-plane.
func (p *Plan) LocalOffset() int { return p.off }

// LocalSize returns the length of this rank's slab array (cnt·n·n).
func (p *Plan) LocalSize() int { return p.cnt * p.n * p.n }

// LocalSpecSize returns the length of this rank's half-spectrum slab for the
// real path: cnt·n·(n/2+1).
func (p *Plan) LocalSpecSize() int { return p.cnt * p.n * p.nh }

// NZSpec returns the compressed z extent n/2+1.
func (p *Plan) NZSpec() int { return p.nh }

// Forward transforms the distributed mesh in place. local is this rank's
// x-slab, indexed (ixLocal·n + iy)·n + iz; on return it holds the k-space
// slab in the same layout (kx-slabs).
func (p *Plan) Forward(local []complex128) {
	p.check(local)
	p.transformZ(local, p.cnt, false)
	p.transformMid(local, p.cnt, p.n, false)
	tr := p.transposeXY(local, p.n)
	// In transposed layout the array is (yLocal, x, z); x is the middle
	// axis, so transformMid performs the x-direction FFT.
	p.transformMid(tr, p.ycnt, p.n, false)
	p.transposeYX(tr, local, p.n)
}

// Inverse applies the inverse transform (scaled by 1/n³), mirroring Forward.
func (p *Plan) Inverse(local []complex128) {
	p.check(local)
	tr := p.transposeXY(local, p.n)
	p.transformMid(tr, p.ycnt, p.n, true)
	p.transposeYX(tr, local, p.n)
	p.transformZ(local, p.cnt, true)
	p.transformMid(local, p.cnt, p.n, true)
}

// ForwardReal transforms this rank's real x-slab (cnt·n·n, same indexing as
// Forward) into its Hermitian half-spectrum slab spec, indexed
// (ixLocal·n + iy)·(n/2+1) + iz with iz ∈ [0, n/2]. The z axis is compressed
// before the transposes, so the all-to-alls carry (n/2+1)/n of the complex
// path's bytes.
func (p *Plan) ForwardReal(real []float64, spec []complex128) {
	if len(real) != p.LocalSize() || len(spec) != p.LocalSpecSize() {
		panic(fmt.Sprintf("pfft: real forward lengths (%d, %d) do not match plan (%d, %d)",
			len(real), len(spec), p.LocalSize(), p.LocalSpecSize()))
	}
	nh := p.nh
	if p.rline == nil { // n == 1: every pass is the identity
		for i := range spec {
			spec[i] = complex(real[i], 0)
		}
		return
	}
	p.treal, p.tspec = real, spec
	p.pool.Run(p.cnt*p.n, p.taskFZ)
	p.treal, p.tspec = nil, nil
	p.transformMid(spec, p.cnt, nh, false) // y FFT over the compressed rows
	tr := p.transposeXY(spec, nh)
	p.transformMid(tr, p.ycnt, nh, false) // x FFT
	p.transposeYX(tr, spec, nh)
}

// InverseReal is the exact inverse of ForwardReal (1/n³ scaling included):
// it reconstructs the real x-slab from the half-spectrum. spec is used as
// workspace and clobbered.
func (p *Plan) InverseReal(spec []complex128, real []float64) {
	if len(real) != p.LocalSize() || len(spec) != p.LocalSpecSize() {
		panic(fmt.Sprintf("pfft: real inverse lengths (%d, %d) do not match plan (%d, %d)",
			len(spec), len(real), p.LocalSpecSize(), p.LocalSize()))
	}
	nh := p.nh
	if p.rline == nil {
		for i := range real {
			real[i] = realPart(spec[i])
		}
		return
	}
	tr := p.transposeXY(spec, nh)
	p.transformMid(tr, p.ycnt, nh, true)
	p.transposeYX(tr, spec, nh)
	p.transformMid(spec, p.cnt, nh, true)
	p.treal, p.tspec = real, spec
	p.pool.Run(p.cnt*p.n, p.taskIZ)
	p.treal, p.tspec = nil, nil
}

func realPart(z complex128) float64 { return real(z) }

func (p *Plan) check(local []complex128) {
	if len(local) != p.LocalSize() {
		panic(fmt.Sprintf("pfft: local slab has %d elements, want %d", len(local), p.LocalSize()))
	}
}

// packXY fills the per-destination send blocks for ranks [lo, hi); each
// destination's block is private to one worker, so writes are disjoint.
func (p *Plan) packXY(w, lo, hi int) {
	n, rowLen := p.n, p.trow
	for s := lo; s < hi; s++ {
		yc, yo := p.lay.Count(s), p.lay.Offset(s)
		if yc == 0 || p.cnt == 0 {
			p.send[s] = p.send[s][:0]
			continue
		}
		blk := growC(p.send[s], p.cnt*yc*rowLen)
		t := 0
		for ix := 0; ix < p.cnt; ix++ {
			for iy := yo; iy < yo+yc; iy++ {
				base := (ix*n + iy) * rowLen
				copy(blk[t:t+rowLen], p.tlocal[base:base+rowLen])
				t += rowLen
			}
		}
		p.send[s] = blk
	}
}

// unpackXY scatters received blocks from source ranks [lo, hi) into the
// y-slab target; sources own disjoint ix ranges, so writes are disjoint.
func (p *Plan) unpackXY(w, lo, hi int) {
	n, rowLen := p.n, p.trow
	out := p.ttr
	for r := lo; r < hi; r++ {
		xc, xo := p.lay.Count(r), p.lay.Offset(r)
		blk := p.recv[r]
		if len(blk) == 0 {
			continue
		}
		t := 0
		for ix := xo; ix < xo+xc; ix++ {
			for iy := 0; iy < p.ycnt; iy++ {
				base := (iy*n + ix) * rowLen
				copy(out[base:base+rowLen], blk[t:t+rowLen])
				t += rowLen
			}
		}
	}
}

// packYX fills the per-destination send blocks for the inverse transpose.
func (p *Plan) packYX(w, lo, hi int) {
	n, rowLen := p.n, p.trow
	for s := lo; s < hi; s++ {
		xc, xo := p.lay.Count(s), p.lay.Offset(s)
		if xc == 0 || p.ycnt == 0 {
			p.send[s] = p.send[s][:0]
			continue
		}
		blk := growC(p.send[s], p.ycnt*xc*rowLen)
		t := 0
		for ix := xo; ix < xo+xc; ix++ {
			for iy := 0; iy < p.ycnt; iy++ {
				base := (iy*n + ix) * rowLen
				copy(blk[t:t+rowLen], p.ttr[base:base+rowLen])
				t += rowLen
			}
		}
		p.send[s] = blk
	}
}

// unpackYX scatters received blocks back into the x-slab array; sources own
// disjoint iy ranges, so writes are disjoint.
func (p *Plan) unpackYX(w, lo, hi int) {
	n, rowLen := p.n, p.trow
	for r := lo; r < hi; r++ {
		yc, yo := p.lay.Count(r), p.lay.Offset(r)
		blk := p.recv[r]
		if len(blk) == 0 {
			continue
		}
		t := 0
		for ix := 0; ix < p.cnt; ix++ {
			for iy := yo; iy < yo+yc; iy++ {
				base := (ix*n + iy) * rowLen
				copy(p.tlocal[base:base+rowLen], blk[t:t+rowLen])
				t += rowLen
			}
		}
	}
}

// transposeXY redistributes the x-slab array into y-slabs: the result is
// indexed (iyLocal·n + ix)·rowLen + iz. The returned slice is plan-owned
// scratch, valid until the next transpose. The all-to-all has copied every
// block into the peers' receive buffers by the time it returns, so reusing
// the send blocks on the next call is safe.
func (p *Plan) transposeXY(local []complex128, rowLen int) []complex128 {
	p.tlocal, p.trow = local, rowLen
	p.pool.Run(p.comm.Size(), p.taskPackXY)
	p.recv = mpi.AlltoallInto(p.comm, p.send, p.recv)
	p.trBuf = growC(p.trBuf, p.ycnt*p.n*rowLen)
	p.ttr = p.trBuf
	p.pool.Run(p.comm.Size(), p.taskUnpackXY)
	p.tlocal, p.ttr = nil, nil
	return p.trBuf
}

// transposeYX is the inverse redistribution, filling local from the y-slab
// array tr.
func (p *Plan) transposeYX(tr []complex128, local []complex128, rowLen int) {
	p.ttr, p.trow = tr, rowLen
	p.pool.Run(p.comm.Size(), p.taskPackYX)
	p.recv = mpi.AlltoallInto(p.comm, p.send, p.recv)
	p.tlocal = local
	p.pool.Run(p.comm.Size(), p.taskUnpackYX)
	p.tlocal, p.ttr = nil, nil
}
