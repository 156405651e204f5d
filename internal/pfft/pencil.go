package pfft

import (
	"fmt"

	"greem/internal/fft"
	"greem/internal/mpi"
	"greem/internal/par"
)

// PencilPlan is a 2-D ("pencil") decomposed parallel 3-D FFT — the paper's
// stated future work: the 1-D slab decomposition caps the FFT at N_PM
// processes (4096 for a 4096³ mesh), whereas pencils allow up to N_PM²,
// removing the fixed ~4 s FFT floor of Table I ("we believe the combination
// of our novel relay mesh method and a 3-D parallel FFT library will
// significantly improve the performance and the scalability", §IV).
//
// The process grid is py×pz (rank r ↔ (a, b) = (r/pz, r%pz)). Data moves
// through three pencil orientations:
//
//	A (input):  full x, y-slice a (over py), z-slice b (over pz)
//	B:          x-slice a, full y, z-slice b      (transpose within a row)
//	C (output): x-slice a, y-slice b (over pz), full z   (within a column)
//
// Forward runs FFT(x) in A, transposes to B, FFT(y), transposes to C,
// FFT(z); the k-space result lives in C. Inverse reverses the path.
//
// ForwardReal/InverseReal compress the x axis — the one transformed before
// any communication — to n/2+1 Hermitian modes, so both transposes ship
// roughly half the complex values.
type PencilPlan struct {
	comm    *mpi.Comm
	n       int
	py, pz  int
	a, b    int
	rowComm *mpi.Comm // peers with the same b, ordered by a
	colComm *mpi.Comm // peers with the same a, ordered by b

	layY Layout // y over py (layout A), also x over py (layouts B, C)
	layZ Layout // z over pz (layouts A, B), also y over pz (layout C)
	yc   int    // A: local y extent
	zc   int    // A and B: local z extent
	xc   int    // B and C: local x extent
	yc2  int    // C: local y extent
	line *fft.Plan

	// Real (half-spectrum) path: x compressed to nxh = n/2+1 modes.
	nxh   int
	layXh Layout          // compressed x over py (layouts B, C)
	xch   int             // B and C: local compressed-x extent
	rline []*fft.RealPlan // per-worker r2c/c2r plans; nil when n < 2

	pool  *par.Pool
	wline [][]complex128 // per-worker fftLines gather scratch, len n
	wreal [][]float64    // per-worker strided r2c/c2r line scratch, len n
	wspec [][]complex128 // per-worker strided r2c/c2r line scratch, len nxh

	// Transpose blocks per peer of the row and of the column, reused: packed
	// into on the send side, received into (mpi.AlltoallInto) on the other.
	sendRow, recvRow [][]complex128
	sendCol, recvCol [][]complex128

	// Current fftLines batch state for the bound range task (hoisted so the
	// per-line loop allocates nothing in steady state).
	tfa       []complex128
	tfbase    func(int) int
	tfstride  int
	tfinv     bool
	taskLines func(w, lo, hi int)
}

// NewPencilPlan creates a pencil FFT plan on a communicator of exactly
// py·pz ranks for an n³ mesh (n a power of two).
func NewPencilPlan(c *mpi.Comm, n, py, pz int) (*PencilPlan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("pfft: mesh size %d is not a power of two", n)
	}
	if py < 1 || pz < 1 || py*pz != c.Size() {
		return nil, fmt.Errorf("pfft: pencil grid %d×%d does not match %d ranks", py, pz, c.Size())
	}
	p := &PencilPlan{
		comm: c, n: n, py: py, pz: pz,
		a: c.Rank() / pz, b: c.Rank() % pz,
		layY: Layout{N: n, P: py}, layZ: Layout{N: n, P: pz},
	}
	p.rowComm = c.Split(p.b, p.a)
	p.colComm = c.Split(p.a, p.b)
	p.yc = p.layY.Count(p.a)
	p.zc = p.layZ.Count(p.b)
	p.xc = p.layY.Count(p.a)
	p.yc2 = p.layZ.Count(p.b)
	pl, err := fft.NewPlan(n)
	if err != nil {
		return nil, err
	}
	p.line = pl
	p.nxh = n/2 + 1
	p.layXh = Layout{N: p.nxh, P: py}
	p.xch = p.layXh.Count(p.a)
	if n >= 2 {
		rl, err := fft.NewRealPlan(n)
		if err != nil {
			return nil, err
		}
		p.rline = []*fft.RealPlan{rl}
	}
	p.taskLines = p.lineRange
	p.sizeScratch(1)
	p.sendRow, p.recvRow = make([][]complex128, py), make([][]complex128, py)
	p.sendCol, p.recvCol = make([][]complex128, pz), make([][]complex128, pz)
	return p, nil
}

// SetPool attaches a worker pool for batching the local line work (nil
// restores serial). The pool is shared, not owned: the caller closes it.
func (p *PencilPlan) SetPool(pool *par.Pool) {
	p.pool = pool
	p.sizeScratch(pool.Workers())
}

func (p *PencilPlan) sizeScratch(workers int) {
	for len(p.wline) < workers {
		p.wline = append(p.wline, make([]complex128, p.n))
		p.wreal = append(p.wreal, make([]float64, p.n))
		p.wspec = append(p.wspec, make([]complex128, p.nxh))
	}
	if p.rline != nil {
		for len(p.rline) < workers {
			p.rline = append(p.rline, p.rline[0].Clone())
		}
	}
}

// InDims returns the input (A) pencil extents: full x, y ∈ [yoff, yoff+yc),
// z ∈ [zoff, zoff+zc); element (ix, iy, iz) at (ix·yc+iy)·zc+iz.
func (p *PencilPlan) InDims() (yc, yoff, zc, zoff int) {
	return p.yc, p.layY.Offset(p.a), p.zc, p.layZ.Offset(p.b)
}

// OutDims returns the output (C) pencil extents: x ∈ [xoff, xoff+xc),
// y ∈ [yoff, yoff+yc), full z; element (ix, iy, iz) at (ix·yc+iy)·n+iz.
func (p *PencilPlan) OutDims() (xc, xoff, yc, yoff int) {
	return p.xc, p.layY.Offset(p.a), p.yc2, p.layZ.Offset(p.b)
}

// SpecDims returns the real-path output (C) pencil extents: compressed
// kx ∈ [xoff, xoff+xc) with global kx ≤ n/2, ky ∈ [yoff, yoff+yc), full kz;
// element (ix, iy, iz) at (ix·yc+iy)·n+iz.
func (p *PencilPlan) SpecDims() (xc, xoff, yc, yoff int) {
	return p.xch, p.layXh.Offset(p.a), p.yc2, p.layZ.Offset(p.b)
}

// InSize returns the input array length n·yc·zc.
func (p *PencilPlan) InSize() int { return p.n * p.yc * p.zc }

// OutSize returns the output array length xc·yc2·n.
func (p *PencilPlan) OutSize() int { return p.xc * p.yc2 * p.n }

// SpecSize returns the real-path output array length xch·yc2·n.
func (p *PencilPlan) SpecSize() int { return p.xch * p.yc2 * p.n }

// fftLines transforms count lines of length n with the given stride,
// starting at base indices base(i). Lines batch across the pool workers,
// each line handled by exactly one worker with private scratch, so the
// parallel result is bit-identical to serial.
func (p *PencilPlan) fftLines(a []complex128, nlines int, base func(int) int, stride int, inverse bool) {
	p.tfa, p.tfbase, p.tfstride, p.tfinv = a, base, stride, inverse
	p.pool.Run(nlines, p.taskLines)
	p.tfa, p.tfbase = nil, nil
}

// lineRange is the bound fftLines range task.
func (p *PencilPlan) lineRange(w, lo, hi int) {
	a, base, stride := p.tfa, p.tfbase, p.tfstride
	buf := p.wline[w]
	for li := lo; li < hi; li++ {
		b0 := base(li)
		for k := 0; k < p.n; k++ {
			buf[k] = a[b0+k*stride]
		}
		if p.tfinv {
			p.line.Inverse(buf)
		} else {
			p.line.Forward(buf)
		}
		for k := 0; k < p.n; k++ {
			a[b0+k*stride] = buf[k]
		}
	}
}

// zLines runs the contiguous C-layout z transforms over the pool.
func (p *PencilPlan) zLines(a []complex128, nlines int, inverse bool) {
	p.pool.Run(nlines, func(w, lo, hi int) {
		for li := lo; li < hi; li++ {
			line := a[li*p.n : (li+1)*p.n]
			if inverse {
				p.line.Inverse(line)
			} else {
				p.line.Forward(line)
			}
		}
	})
}

// Forward transforms the A-layout input into the C-layout k-space output.
func (p *PencilPlan) Forward(in []complex128) []complex128 {
	if len(in) != p.InSize() {
		panic(fmt.Sprintf("pfft: pencil input %d, want %d", len(in), p.InSize()))
	}
	work := append([]complex128(nil), in...)
	// FFT along x: lines indexed by (iy, iz), stride yc·zc.
	p.fftLines(work, p.yc*p.zc, func(li int) int { return li }, p.yc*p.zc, false)
	bArr := p.transposeAB(work, p.layY, p.xc)
	// FFT along y in B: (iy·xc + ix)·zc + iz; lines by (ix, iz), stride xc·zc.
	p.fftLines(bArr, p.xc*p.zc, func(li int) int {
		ix := li / p.zc
		iz := li % p.zc
		return ix*p.zc + iz
	}, p.xc*p.zc, false)
	cArr := p.transposeBC(bArr, p.xc)
	// FFT along z in C: contiguous lines.
	p.zLines(cArr, p.xc*p.yc2, false)
	return cArr
}

// Inverse transforms a C-layout k-space array back to the A layout.
func (p *PencilPlan) Inverse(c []complex128) []complex128 {
	if len(c) != p.OutSize() {
		panic(fmt.Sprintf("pfft: pencil input %d, want %d", len(c), p.OutSize()))
	}
	cArr := append([]complex128(nil), c...)
	p.zLines(cArr, p.xc*p.yc2, true)
	bArr := p.transposeCB(cArr, p.xc)
	p.fftLines(bArr, p.xc*p.zc, func(li int) int {
		ix := li / p.zc
		iz := li % p.zc
		return ix*p.zc + iz
	}, p.xc*p.zc, true)
	aArr := p.transposeBA(bArr, p.layY, p.xc)
	p.fftLines(aArr, p.yc*p.zc, func(li int) int { return li }, p.yc*p.zc, true)
	return aArr
}

// ForwardReal transforms a real A-layout input (same indexing as Forward)
// into its C-layout Hermitian half-spectrum: x is compressed to kx ∈
// [0, n/2] before either transpose, halving the all-to-all volume.
func (p *PencilPlan) ForwardReal(in []float64) []complex128 {
	if len(in) != p.InSize() {
		panic(fmt.Sprintf("pfft: pencil real input %d, want %d", len(in), p.InSize()))
	}
	if p.rline == nil { // n == 1: the transform is the identity
		out := make([]complex128, p.SpecSize())
		for i := range out {
			out[i] = complex(in[i], 0)
		}
		return out
	}
	// r2c along x: strided lines indexed by (iy, iz), stride yc·zc.
	yczc := p.yc * p.zc
	ha := make([]complex128, p.nxh*yczc)
	p.pool.Run(yczc, func(w, lo, hi int) {
		realBuf, specBuf := p.wreal[w], p.wspec[w]
		for li := lo; li < hi; li++ {
			for k := 0; k < p.n; k++ {
				realBuf[k] = in[li+k*yczc]
			}
			p.rline[w].Forward(realBuf, specBuf)
			for k := 0; k < p.nxh; k++ {
				ha[li+k*yczc] = specBuf[k]
			}
		}
	})
	bArr := p.transposeAB(ha, p.layXh, p.xch)
	// FFT along y over the compressed-x extent.
	p.fftLines(bArr, p.xch*p.zc, func(li int) int {
		ix := li / p.zc
		iz := li % p.zc
		return ix*p.zc + iz
	}, p.xch*p.zc, false)
	cArr := p.transposeBC(bArr, p.xch)
	p.zLines(cArr, p.xch*p.yc2, false)
	return cArr
}

// InverseReal is the exact inverse of ForwardReal (1/n³ scaling included),
// reconstructing the real A-layout array from the half-spectrum.
func (p *PencilPlan) InverseReal(spec []complex128) []float64 {
	if len(spec) != p.SpecSize() {
		panic(fmt.Sprintf("pfft: pencil real input %d, want %d", len(spec), p.SpecSize()))
	}
	out := make([]float64, p.InSize())
	if p.rline == nil {
		for i := range out {
			out[i] = real(spec[i])
		}
		return out
	}
	cArr := append([]complex128(nil), spec...)
	p.zLines(cArr, p.xch*p.yc2, true)
	bArr := p.transposeCB(cArr, p.xch)
	p.fftLines(bArr, p.xch*p.zc, func(li int) int {
		ix := li / p.zc
		iz := li % p.zc
		return ix*p.zc + iz
	}, p.xch*p.zc, true)
	ha := p.transposeBA(bArr, p.layXh, p.xch)
	yczc := p.yc * p.zc
	p.pool.Run(yczc, func(w, lo, hi int) {
		realBuf, specBuf := p.wreal[w], p.wspec[w]
		for li := lo; li < hi; li++ {
			for k := 0; k < p.nxh; k++ {
				specBuf[k] = ha[li+k*yczc]
			}
			p.rline[w].Inverse(specBuf, realBuf)
			for k := 0; k < p.n; k++ {
				out[li+k*yczc] = realBuf[k]
			}
		}
	})
	return out
}

// transposeAB exchanges the full-x dimension for full-y within the row:
// A (full x = layX.N, yc, zc) → B (full y, xcl, zc) with B indexed
// (iy·xcl+ix)·zc+iz. layX describes how the x axis splits over the row
// (layY for the complex path, layXh for the compressed real path) and xcl
// is this rank's share of it. Send blocks are plan-owned and reused.
func (p *PencilPlan) transposeAB(a []complex128, layX Layout, xcl int) []complex128 {
	for ap := 0; ap < p.py; ap++ {
		xc, xo := layX.Count(ap), layX.Offset(ap)
		if xc == 0 || p.yc == 0 || p.zc == 0 {
			p.sendRow[ap] = p.sendRow[ap][:0]
			continue
		}
		blk := growC(p.sendRow[ap], xc*p.yc*p.zc)
		t := 0
		for ix := xo; ix < xo+xc; ix++ {
			for iy := 0; iy < p.yc; iy++ {
				base := (ix*p.yc + iy) * p.zc
				copy(blk[t:t+p.zc], a[base:base+p.zc])
				t += p.zc
			}
		}
		p.sendRow[ap] = blk
	}
	p.recvRow = mpi.AlltoallInto(p.rowComm, p.sendRow, p.recvRow)
	out := make([]complex128, p.n*xcl*p.zc)
	for ap := 0; ap < p.py; ap++ {
		ycp, yop := p.layY.Count(ap), p.layY.Offset(ap)
		blk := p.recvRow[ap]
		if len(blk) == 0 {
			continue
		}
		t := 0
		for ix := 0; ix < xcl; ix++ {
			for iy := yop; iy < yop+ycp; iy++ {
				base := (iy*xcl + ix) * p.zc
				copy(out[base:base+p.zc], blk[t:t+p.zc])
				t += p.zc
			}
		}
	}
	return out
}

// transposeBA is the inverse of transposeAB.
func (p *PencilPlan) transposeBA(bArr []complex128, layX Layout, xcl int) []complex128 {
	for ap := 0; ap < p.py; ap++ {
		ycp, yop := p.layY.Count(ap), p.layY.Offset(ap)
		if ycp == 0 || xcl == 0 || p.zc == 0 {
			p.sendRow[ap] = p.sendRow[ap][:0]
			continue
		}
		blk := growC(p.sendRow[ap], xcl*ycp*p.zc)
		t := 0
		for ix := 0; ix < xcl; ix++ {
			for iy := yop; iy < yop+ycp; iy++ {
				base := (iy*xcl + ix) * p.zc
				copy(blk[t:t+p.zc], bArr[base:base+p.zc])
				t += p.zc
			}
		}
		p.sendRow[ap] = blk
	}
	p.recvRow = mpi.AlltoallInto(p.rowComm, p.sendRow, p.recvRow)
	out := make([]complex128, layX.N*p.yc*p.zc)
	for ap := 0; ap < p.py; ap++ {
		xc, xo := layX.Count(ap), layX.Offset(ap)
		blk := p.recvRow[ap]
		if len(blk) == 0 {
			continue
		}
		t := 0
		for ix := xo; ix < xo+xc; ix++ {
			for iy := 0; iy < p.yc; iy++ {
				base := (ix*p.yc + iy) * p.zc
				copy(out[base:base+p.zc], blk[t:t+p.zc])
				t += p.zc
			}
		}
	}
	return out
}

// transposeBC exchanges the full-y dimension for full-z within the column:
// B (full y, xcl, zc) → C (xcl, yc2, full z) with C indexed (ix·yc2+iy)·n+iz.
// The x extent xcl rides along unchanged (xc or xch).
func (p *PencilPlan) transposeBC(bArr []complex128, xcl int) []complex128 {
	for bp := 0; bp < p.pz; bp++ {
		ycp, yop := p.layZ.Count(bp), p.layZ.Offset(bp)
		if ycp == 0 || xcl == 0 || p.zc == 0 {
			p.sendCol[bp] = p.sendCol[bp][:0]
			continue
		}
		blk := growC(p.sendCol[bp], ycp*xcl*p.zc)
		t := 0
		for iy := yop; iy < yop+ycp; iy++ {
			for ix := 0; ix < xcl; ix++ {
				base := (iy*xcl + ix) * p.zc
				copy(blk[t:t+p.zc], bArr[base:base+p.zc])
				t += p.zc
			}
		}
		p.sendCol[bp] = blk
	}
	p.recvCol = mpi.AlltoallInto(p.colComm, p.sendCol, p.recvCol)
	out := make([]complex128, xcl*p.yc2*p.n)
	for bp := 0; bp < p.pz; bp++ {
		zcp, zop := p.layZ.Count(bp), p.layZ.Offset(bp)
		blk := p.recvCol[bp]
		if len(blk) == 0 {
			continue
		}
		t := 0
		for iy := 0; iy < p.yc2; iy++ {
			for ix := 0; ix < xcl; ix++ {
				base := (ix*p.yc2+iy)*p.n + zop
				copy(out[base:base+zcp], blk[t:t+zcp])
				t += zcp
			}
		}
	}
	return out
}

// transposeCB is the inverse of transposeBC.
func (p *PencilPlan) transposeCB(cArr []complex128, xcl int) []complex128 {
	for bp := 0; bp < p.pz; bp++ {
		zcp, zop := p.layZ.Count(bp), p.layZ.Offset(bp)
		if zcp == 0 || xcl == 0 || p.yc2 == 0 {
			p.sendCol[bp] = p.sendCol[bp][:0]
			continue
		}
		blk := growC(p.sendCol[bp], p.yc2*xcl*zcp)
		t := 0
		for iy := 0; iy < p.yc2; iy++ {
			for ix := 0; ix < xcl; ix++ {
				base := (ix*p.yc2+iy)*p.n + zop
				copy(blk[t:t+zcp], cArr[base:base+zcp])
				t += zcp
			}
		}
		p.sendCol[bp] = blk
	}
	p.recvCol = mpi.AlltoallInto(p.colComm, p.sendCol, p.recvCol)
	out := make([]complex128, p.n*xcl*p.zc)
	for bp := 0; bp < p.pz; bp++ {
		ycp, yop := p.layZ.Count(bp), p.layZ.Offset(bp)
		blk := p.recvCol[bp]
		if len(blk) == 0 {
			continue
		}
		t := 0
		for iy := yop; iy < yop+ycp; iy++ {
			for ix := 0; ix < xcl; ix++ {
				base := (iy*xcl + ix) * p.zc
				copy(out[base:base+p.zc], blk[t:t+p.zc])
				t += p.zc
			}
		}
	}
	return out
}
