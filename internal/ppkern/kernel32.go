package ppkern

import "math"

// Float32 kernel family — the Phantom-GRAPE single-precision force loop
// (§II-A; Ishiyama, Nitadori & Makino 2012). The short-range force is
// evaluated entirely in float32: the tree walk emits interaction lists with
// positions *relative to the target group's center*, so every coordinate the
// kernel sees is bounded by rcut plus the group radius — tiny compared to
// the box — and float32 resolution is spent where the force lives. The PM
// part carries the long-range signal, so single precision here does not
// touch the large-scale dynamics (the GreeM argument; Ishiyama, Fukushige &
// Makino 2009).
//
// Per-target partial forces are accumulated in float32 only within a fixed
// TileJ-source tile and flushed into float64 accumulators between tiles,
// bounding the float32 summation length; the caller-visible accumulation is
// float64. The scalar float64 AccelCutoff in kernel.go is the parity oracle.

// TileJ is the j-batch tile size of the unrolled float32 kernel: partial
// sums are flushed to float64 every TileJ sources, and a tile of four SoA
// float32 streams (x, y, z, m) occupies 4 KiB — resident in L1 while it is
// reused across the 4-target micro-panel.
const TileJ = 256

// SourceF32 is a j-particle set in float32 SoA layout, positions relative
// to a reference point chosen by the caller (the group center).
type SourceF32 struct {
	X, Y, Z, M []float32
}

// Len returns the number of j-particles.
func (s *SourceF32) Len() int { return len(s.X) }

// Append adds one j-particle.
func (s *SourceF32) Append(x, y, z, m float32) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
	s.Z = append(s.Z, z)
	s.M = append(s.M, m)
}

// Reset empties the set, retaining capacity.
func (s *SourceF32) Reset() {
	s.X = s.X[:0]
	s.Y = s.Y[:0]
	s.Z = s.Z[:0]
	s.M = s.M[:0]
}

// gp3mPoly32 is gp3mPoly with float32 arithmetic: the identical eq. 3
// polynomial, valid on [0,2]; callers mask ξ ≥ 2 themselves.
func gp3mPoly32(xi float32) float32 {
	zeta := xi - 1
	if zeta < 0 {
		zeta = 0
	}
	z2 := zeta * zeta
	z6 := z2 * z2 * z2
	inner := float32(-12.0/35.0) + xi*float32(3.0/20.0)
	inner = -0.5 + xi*inner
	inner = 8.0/5.0 + xi*inner
	inner = -8.0/5.0 + xi*xi*inner
	poly := 1 + xi*xi*xi*inner
	tail := float32(3.0/35.0) + xi*(float32(18.0/35.0)+xi*float32(1.0/5.0))
	return poly - z6*tail
}

// cutoffW32 returns g_P3M(ξ)/r³ for r² = r2 (softened) in float32, with the
// ξ ≥ 2 region masked to exactly zero — branch-free in the fcmp/fand sense:
// the polynomial is still evaluated (at the clamped ξ = 2) and multiplied by
// a zero mask, so the arithmetic per interaction is constant. r2 = 0 (a
// target in its own list with zero softening) yields exactly zero, as the
// SIMD kernel's mask does.
func cutoffW32(r2, cinv float32) float32 {
	if r2 == 0 {
		return 0
	}
	rinv := Rsqrt32(r2)
	xi2 := r2 * rinv * cinv
	mask := float32(1)
	if xi2 >= 2 {
		mask = 0
		xi2 = 2
	}
	return mask * gp3mPoly32(xi2) * rinv * rinv * rinv
}

// AccelCutoffF32 is the reference scalar float32 kernel: same contract as
// AccelCutoff (targets xi/yi/zi, sources src, cutoff rcut, softening eps2,
// returns n × src.Len() interactions) but with float32 coordinates and
// arithmetic and float64 accumulation into (ax, ay, az). Coordinates are
// expected relative to the group center. Like AccelCutoff it skips ξ ≥ 2
// and exact zero separations by branch; AccelCutoffF32Fast is the
// optimized branch-free kernel.
func AccelCutoffF32(xi, yi, zi []float32, src *SourceF32, g, rcut, eps2 float32, ax, ay, az []float64) uint64 {
	cinv := 2 / rcut
	for i := range xi {
		var fx, fy, fz float64
		for j := range src.X {
			dx := src.X[j] - xi[i]
			dy := src.Y[j] - yi[i]
			dz := src.Z[j] - zi[i]
			r2 := dx*dx + dy*dy + dz*dz + eps2
			if r2 == 0 {
				continue // self-interaction with zero softening
			}
			rinv := 1 / float32(math.Sqrt(float64(r2)))
			xi2 := r2 * rinv * cinv
			if xi2 >= 2 {
				continue
			}
			w := g * src.M[j] * gp3mPoly32(xi2) * rinv * rinv * rinv
			fx += float64(w * dx)
			fy += float64(w * dy)
			fz += float64(w * dz)
		}
		ax[i] += fx
		ay[i] += fy
		az[i] += fz
	}
	return interactions(len(xi), src.Len())
}

// AccelCutoffF32Fast is the optimized float32 force loop: 4-target
// micro-panels over TileJ-sized source tiles (each tile reused across the
// panel so the j-stream stays in L1), float32 tile partials flushed to
// float64 between tiles, fast reciprocal square root (hardware or bit-trick
// seed + third-order refinement) instead of a sqrt+divide chain, and the
// ξ ≥ 2 cutoff applied as a branch-free mask so the 51-op ledger stays
// exact. On amd64 with AVX2+FMA the panel runs 8 interactions per
// instruction stream step in hand-written assembly (accel_amd64.s); the
// pure-Go panel accelCutoff4F32 is the portable fallback. A source that
// coincides with a target at eps2 = 0 (a group's own particles appear in its
// interaction list) contributes exactly zero.
//
// Note the scalar-skip parity caveat: exactly at the softened ξ = 2
// boundary the scalar kernels skip (ξ computed ≥ 2) while this kernel
// multiplies by a zero mask — identical results, different control flow.
func AccelCutoffF32Fast(xi, yi, zi []float32, src *SourceF32, g, rcut, eps2 float32, ax, ay, az []float64) uint64 {
	cinv := 2 / rcut
	n := len(xi)
	i := 0
	for ; i+4 <= n; i += 4 {
		if useAVX2 {
			accelCutoff4F32SIMD(xi[i:i+4], yi[i:i+4], zi[i:i+4], src, g, cinv, eps2, ax[i:i+4], ay[i:i+4], az[i:i+4])
		} else {
			accelCutoff4F32(xi[i:i+4], yi[i:i+4], zi[i:i+4], src, g, cinv, eps2, ax[i:i+4], ay[i:i+4], az[i:i+4])
		}
	}
	inter := interactions(i, src.Len())
	if i < n {
		inter += AccelCutoffF32(xi[i:], yi[i:], zi[i:], src, g, rcut, eps2, ax[i:], ay[i:], az[i:])
	}
	return inter
}

// accelCutoff4F32 computes cutoff forces on exactly four targets, tiling the
// source stream by TileJ. The per-source math — bit-trick rsqrt seed, Newton
// step, third-order refinement, eq. 3 polynomial, ξ ≥ 2 mask — is written
// out by hand for all four targets: as one function it costs ~180 inliner
// nodes, over twice the budget, so factoring it through cutoffW32 would put
// a function call (and a register spill) inside the hot loop. cutoffW32 is
// the readable twin the tests pin this against.
//
// The loop body is genuinely branch-free, the scalar equivalent of the SIMD
// fcmp/fand: the ξ ≥ 2 mask is the sign bit of ξ−2, AND-ed with an r² ≠ 0
// mask (the sign bit of −bits(r²)), onto the weight (exactly zero beyond the
// cutoff and at zero separation), and the ξ/ζ clamps use the min/max
// builtins, which compile to MINSS/MAXSS — with beyond-cutoff sources mixed
// into the stream, per-lane branches would mispredict constantly. Tile
// slices are re-sliced to a common length so bounds checks drop out.
func accelCutoff4F32(xi, yi, zi []float32, src *SourceF32, g, cinv, eps2 float32, ax, ay, az []float64) {
	x0, x1, x2, x3 := xi[0], xi[1], xi[2], xi[3]
	y0, y1, y2, y3 := yi[0], yi[1], yi[2], yi[3]
	z0, z1, z2, z3 := zi[0], zi[1], zi[2], zi[3]
	var fx0d, fx1d, fx2d, fx3d float64
	var fy0d, fy1d, fy2d, fy3d float64
	var fz0d, fz1d, fz2d, fz3d float64
	nj := src.Len()
	for base := 0; base < nj; base += TileJ {
		end := base + TileJ
		if end > nj {
			end = nj
		}
		sx := src.X[base:end]
		sy := src.Y[base:end][:len(sx)]
		sz := src.Z[base:end][:len(sx)]
		sm := src.M[base:end][:len(sx)]
		var fx0, fx1, fx2, fx3 float32
		var fy0, fy1, fy2, fy3 float32
		var fz0, fz1, fz2, fz3 float32
		for j := range sx {
			pjx, pjy, pjz := sx[j], sy[j], sz[j]
			gm := g * sm[j]

			dx0 := pjx - x0
			dy0 := pjy - y0
			dz0 := pjz - z0
			r20 := eps2 + dx0*dx0 + dy0*dy0 + dz0*dz0
			u0 := math.Float32frombits(0x5f375a86 - math.Float32bits(r20)>>1)
			u0 = u0 * (1.5 - 0.5*r20*u0*u0)
			h0 := 1 - r20*u0*u0
			ri0 := u0 * (1 + h0*(0.5+h0*0.375))
			q0 := r20 * ri0 * cinv
			sel0 := uint32(int32(math.Float32bits(q0-2))>>31) & uint32(-int32(math.Float32bits(r20))>>31)
			q0 = min(q0, 2)
			zt0 := max(q0-1, 0)
			z20 := zt0 * zt0
			p0 := float32(-12.0/35.0) + q0*float32(3.0/20.0)
			p0 = -0.5 + q0*p0
			p0 = 8.0/5.0 + q0*p0
			p0 = -8.0/5.0 + q0*q0*p0
			p0 = 1 + q0*q0*q0*p0
			tl0 := float32(3.0/35.0) + q0*(float32(18.0/35.0)+q0*float32(1.0/5.0))
			v0 := (p0 - z20*z20*z20*tl0) * ri0 * ri0 * ri0
			w0 := gm * math.Float32frombits(math.Float32bits(v0)&sel0)
			fx0 += w0 * dx0
			fy0 += w0 * dy0
			fz0 += w0 * dz0

			dx1 := pjx - x1
			dy1 := pjy - y1
			dz1 := pjz - z1
			r21 := eps2 + dx1*dx1 + dy1*dy1 + dz1*dz1
			u1 := math.Float32frombits(0x5f375a86 - math.Float32bits(r21)>>1)
			u1 = u1 * (1.5 - 0.5*r21*u1*u1)
			h1 := 1 - r21*u1*u1
			ri1 := u1 * (1 + h1*(0.5+h1*0.375))
			q1 := r21 * ri1 * cinv
			sel1 := uint32(int32(math.Float32bits(q1-2))>>31) & uint32(-int32(math.Float32bits(r21))>>31)
			q1 = min(q1, 2)
			zt1 := max(q1-1, 0)
			z21 := zt1 * zt1
			p1 := float32(-12.0/35.0) + q1*float32(3.0/20.0)
			p1 = -0.5 + q1*p1
			p1 = 8.0/5.0 + q1*p1
			p1 = -8.0/5.0 + q1*q1*p1
			p1 = 1 + q1*q1*q1*p1
			tl1 := float32(3.0/35.0) + q1*(float32(18.0/35.0)+q1*float32(1.0/5.0))
			v1 := (p1 - z21*z21*z21*tl1) * ri1 * ri1 * ri1
			w1 := gm * math.Float32frombits(math.Float32bits(v1)&sel1)
			fx1 += w1 * dx1
			fy1 += w1 * dy1
			fz1 += w1 * dz1

			dx2 := pjx - x2
			dy2 := pjy - y2
			dz2 := pjz - z2
			r22 := eps2 + dx2*dx2 + dy2*dy2 + dz2*dz2
			u2 := math.Float32frombits(0x5f375a86 - math.Float32bits(r22)>>1)
			u2 = u2 * (1.5 - 0.5*r22*u2*u2)
			h2 := 1 - r22*u2*u2
			ri2 := u2 * (1 + h2*(0.5+h2*0.375))
			q2 := r22 * ri2 * cinv
			sel2 := uint32(int32(math.Float32bits(q2-2))>>31) & uint32(-int32(math.Float32bits(r22))>>31)
			q2 = min(q2, 2)
			zt2 := max(q2-1, 0)
			z22 := zt2 * zt2
			p2 := float32(-12.0/35.0) + q2*float32(3.0/20.0)
			p2 = -0.5 + q2*p2
			p2 = 8.0/5.0 + q2*p2
			p2 = -8.0/5.0 + q2*q2*p2
			p2 = 1 + q2*q2*q2*p2
			tl2 := float32(3.0/35.0) + q2*(float32(18.0/35.0)+q2*float32(1.0/5.0))
			v2 := (p2 - z22*z22*z22*tl2) * ri2 * ri2 * ri2
			w2 := gm * math.Float32frombits(math.Float32bits(v2)&sel2)
			fx2 += w2 * dx2
			fy2 += w2 * dy2
			fz2 += w2 * dz2

			dx3 := pjx - x3
			dy3 := pjy - y3
			dz3 := pjz - z3
			r23 := eps2 + dx3*dx3 + dy3*dy3 + dz3*dz3
			u3 := math.Float32frombits(0x5f375a86 - math.Float32bits(r23)>>1)
			u3 = u3 * (1.5 - 0.5*r23*u3*u3)
			h3 := 1 - r23*u3*u3
			ri3 := u3 * (1 + h3*(0.5+h3*0.375))
			q3 := r23 * ri3 * cinv
			sel3 := uint32(int32(math.Float32bits(q3-2))>>31) & uint32(-int32(math.Float32bits(r23))>>31)
			q3 = min(q3, 2)
			zt3 := max(q3-1, 0)
			z23 := zt3 * zt3
			p3 := float32(-12.0/35.0) + q3*float32(3.0/20.0)
			p3 = -0.5 + q3*p3
			p3 = 8.0/5.0 + q3*p3
			p3 = -8.0/5.0 + q3*q3*p3
			p3 = 1 + q3*q3*q3*p3
			tl3 := float32(3.0/35.0) + q3*(float32(18.0/35.0)+q3*float32(1.0/5.0))
			v3 := (p3 - z23*z23*z23*tl3) * ri3 * ri3 * ri3
			w3 := gm * math.Float32frombits(math.Float32bits(v3)&sel3)
			fx3 += w3 * dx3
			fy3 += w3 * dy3
			fz3 += w3 * dz3
		}
		fx0d += float64(fx0)
		fx1d += float64(fx1)
		fx2d += float64(fx2)
		fx3d += float64(fx3)
		fy0d += float64(fy0)
		fy1d += float64(fy1)
		fy2d += float64(fy2)
		fy3d += float64(fy3)
		fz0d += float64(fz0)
		fz1d += float64(fz1)
		fz2d += float64(fz2)
		fz3d += float64(fz3)
	}
	ax[0] += fx0d
	ax[1] += fx1d
	ax[2] += fx2d
	ax[3] += fx3d
	ay[0] += fy0d
	ay[1] += fy1d
	ay[2] += fy2d
	ay[3] += fy3d
	az[0] += fz0d
	az[1] += fz1d
	az[2] += fz2d
	az[3] += fz3d
}
