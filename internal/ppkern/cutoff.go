// Package ppkern implements the short-range (particle-particle) gravity
// kernel of the TreePM force split, following §II-A of Ishiyama, Nitadori &
// Makino (SC12).
//
// The density of a point mass is split into a long-range part ρ_PM — the
// linearly decreasing S2 shape of Hockney & Eastwood with radius a = rcut/2
// (paper eq. 1) — and a short-range remainder. The resulting pairwise
// short-range force is
//
//	f_i = Σ_j G m_j (r_j - r_i)/|r_j - r_i|³ · g(2|r_j - r_i|/rcut)
//
// where g is the polynomial cutoff function of paper eq. 3, obtained by
// six-dimensional integration of the S2×S2 pair force. g(0) = 1 and
// g(ξ) = 0 for ξ ≥ 2, so the particle-particle interaction vanishes outside
// the finite radius rcut (Newton's second theorem).
//
// The package provides the production float32 kernel in the style of
// Phantom-GRAPE (4 targets × blocked sources, fast approximate inverse square
// root with a third-order refinement; AVX2+FMA assembly with a pure-Go
// fallback), the scalar float64 loop it is tested against, and the
// 51-operations-per-interaction ledger the paper uses to report Pflops.
package ppkern

// FlopsPerInteraction is the floating-point operation count per pairwise
// interaction used by the paper to compute flops: the inner loop consists of
// 17 FMA and 17 non-FMA operations per two (one SIMD) interactions, i.e.
// (17·2 + 17) = 51 flops each.
const FlopsPerInteraction = 51

// GP3M is the cutoff function of paper eq. 3 with ξ = 2r/rcut:
//
//	g(ξ) = 1 + ξ³(−8/5 + ξ²(8/5 + ξ(−1/2 + ξ(−12/35 + ξ·3/20))))
//	         − ζ⁶(3/35 + ξ(18/35 + ξ/5)),   ζ = max(0, ξ−1)
//
// for 0 ≤ ξ ≤ 2, and 0 for ξ > 2. The form has a branch at ξ = 1 expressed
// through ζ so it can be evaluated branch-free on FMA SIMD hardware; we keep
// the identical arithmetic.
func GP3M(xi float64) float64 {
	if xi >= 2 {
		return 0
	}
	return gp3mPoly(xi)
}

// gp3mPoly evaluates the eq. 3 polynomial without the ξ>2 guard. It is only
// valid on [0,2]; callers mask ξ ≥ 2 themselves (as the SIMD kernel does with
// fcmp/fand).
func gp3mPoly(xi float64) float64 {
	zeta := xi - 1
	if zeta < 0 {
		zeta = 0
	}
	z2 := zeta * zeta
	z6 := z2 * z2 * z2
	inner := -12.0/35.0 + xi*(3.0/20.0)
	inner = -0.5 + xi*inner
	inner = 8.0/5.0 + xi*inner
	inner = -8.0/5.0 + xi*xi*inner
	poly := 1 + xi*xi*xi*inner
	tail := 3.0/35.0 + xi*(18.0/35.0+xi*(1.0/5.0))
	return poly - z6*tail
}

// HLong is the long-range complement 1 − g(ξ): the fraction of the 1/r² pair
// force carried by the PM part at separation r = ξ·rcut/2. It is exposed so
// the mesh Green's function can be validated against eq. 3 directly.
func HLong(xi float64) float64 { return 1 - GP3M(xi) }
