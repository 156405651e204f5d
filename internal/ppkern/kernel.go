package ppkern

import "math"

// The kernels below operate on structure-of-arrays data: the i-particles
// (targets) and j-particles (sources) are given as separate coordinate and
// mass slices, mirroring the Phantom-GRAPE API (which is itself API-
// compatible with GRAPE-5: load a j-particle set, then evaluate forces on
// batches of i-particles).
//
// Periodicity is the caller's concern: interaction lists are built with
// minimum-image shifted coordinates, so the kernels are purely Newtonian
// with a finite cutoff.

// Source is a j-particle set in SoA layout.
type Source struct {
	X, Y, Z, M []float64
}

// Len returns the number of j-particles.
func (s *Source) Len() int { return len(s.X) }

// Append adds one j-particle.
func (s *Source) Append(x, y, z, m float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
	s.Z = append(s.Z, z)
	s.M = append(s.M, m)
}

// Reset empties the set, retaining capacity.
func (s *Source) Reset() {
	s.X = s.X[:0]
	s.Y = s.Y[:0]
	s.Z = s.Z[:0]
	s.M = s.M[:0]
}

// AccelCutoff accumulates into (ax, ay, az) the short-range accelerations on
// the n = len(xi) targets from the sources, using the eq. 2 force with the
// eq. 3 cutoff at radius rcut, Plummer softening ε² = eps2, and gravitational
// constant g. It returns the number of pairwise interactions evaluated
// (n × src.Len()), the quantity the paper multiplies by 51 to count flops.
//
// This scalar float64 loop is the package's reference oracle: the float32
// family in kernel32.go (the production kernel) is pinned against it.
func AccelCutoff(xi, yi, zi []float64, src *Source, g, rcut, eps2 float64, ax, ay, az []float64) uint64 {
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
			rinv := 1 / math.Sqrt(r2)
			xi2 := r2 * rinv * cinv // ξ = 2r/rcut with softened r
			if xi2 >= 2 {
				continue
			}
			w := g * src.M[j] * gp3mPoly(xi2) * rinv * rinv * rinv
			fx += w * dx
			fy += w * dy
			fz += w * dz
		}
		ax[i] += fx
		ay[i] += fy
		az[i] += fz
	}
	return interactions(len(xi), src.Len())
}

// interactions is the pairwise-interaction ledger entry for n targets
// against nj sources — the single place the count is defined, so the
// unrolled float32 kernel composes it from its panel and remainder
// contributions instead of recomputing it.
func interactions(n, nj int) uint64 { return uint64(n) * uint64(nj) }

// AccelPlain accumulates plain Newtonian (no cutoff) accelerations; used by
// the open-boundary tree and direct-summation baselines.
func AccelPlain(xi, yi, zi []float64, src *Source, g, eps2 float64, ax, ay, az []float64) uint64 {
	for i := range xi {
		var fx, fy, fz float64
		for j := range src.X {
			dx := src.X[j] - xi[i]
			dy := src.Y[j] - yi[i]
			dz := src.Z[j] - zi[i]
			r2 := dx*dx + dy*dy + dz*dz + eps2
			if r2 == 0 {
				continue
			}
			rinv := 1 / math.Sqrt(r2)
			w := g * src.M[j] * rinv * rinv * rinv
			fx += w * dx
			fy += w * dy
			fz += w * dz
		}
		ax[i] += fx
		ay[i] += fy
		az[i] += fz
	}
	return interactions(len(xi), src.Len())
}

// PotPlain accumulates plain Newtonian potentials Φ_i = −Σ_j G m_j/|r_ij|
// (softened); used for energy-conservation diagnostics.
func PotPlain(xi, yi, zi []float64, src *Source, g, eps2 float64, pot []float64) {
	for i := range xi {
		var p float64
		for j := range src.X {
			dx := src.X[j] - xi[i]
			dy := src.Y[j] - yi[i]
			dz := src.Z[j] - zi[i]
			r2 := dx*dx + dy*dy + dz*dz + eps2
			if r2 == 0 {
				continue
			}
			p -= g * src.M[j] / math.Sqrt(r2)
		}
		pot[i] += p
	}
}

// PotCutoffAt returns the short-range pair potential per unit (G·m) at
// separation r, i.e. φ_short(r) = −(2/rcut)·∫_ξ^2 g(u)/u² du with ξ = 2r/rcut,
// evaluated by adaptive Simpson quadrature. It is a diagnostic (energy
// bookkeeping and kernel validation), not part of the force loop.
func PotCutoffAt(r, rcut float64) float64 {
	xi := 2 * r / rcut
	if xi >= 2 {
		return 0
	}
	f := func(u float64) float64 { return gp3mPoly(u) / (u * u) }
	return -(2 / rcut) * simpsonAdaptive(f, xi, 2, 1e-12, 30)
}

func simpsonAdaptive(f func(float64) float64, a, b, tol float64, depth int) float64 {
	c := (a + b) / 2
	fa, fb, fc := f(a), f(b), f(c)
	s := (b - a) / 6 * (fa + 4*fc + fb)
	return simpsonStep(f, a, b, fa, fb, fc, s, tol, depth)
}

func simpsonStep(f func(float64) float64, a, b, fa, fb, fc, s, tol float64, depth int) float64 {
	c := (a + b) / 2
	d := (a + c) / 2
	e := (c + b) / 2
	fd, fe := f(d), f(e)
	sl := (c - a) / 6 * (fa + 4*fd + fc)
	sr := (b - c) / 6 * (fc + 4*fe + fb)
	if depth <= 0 || math.Abs(sl+sr-s) < 15*tol {
		return sl + sr + (sl+sr-s)/15
	}
	return simpsonStep(f, a, c, fa, fc, fd, sl, tol/2, depth-1) +
		simpsonStep(f, c, b, fc, fb, fe, sr, tol/2, depth-1)
}

// PotTable tabulates the short-range pair potential shape p(ξ) with
// φ_short(r) = −(G·m/r)·p(2r/rcut), p(0) = 1, p(ξ ≥ 2) = 0, so energy
// diagnostics can run at kernel speed instead of per-pair quadrature.
type PotTable struct {
	vals []float64 // p at ξ = i·dξ
	dxi  float64
}

// NewPotTable builds the table with n intervals over ξ ∈ [0, 2].
func NewPotTable(n int) *PotTable {
	t := &PotTable{vals: make([]float64, n+1), dxi: 2 / float64(n)}
	for i := 0; i <= n; i++ {
		xi := float64(i) * t.dxi
		// φ_short(r) = −(2/rcut)∫_ξ² g/u² du = −(1/r)·p(ξ) with
		// p(ξ) = ξ·∫_ξ² g(u)/u² du (rcut-independent shape).
		if xi == 0 {
			t.vals[i] = 1 // lim ξ→0 of ξ·(1/ξ − …) = 1
			continue
		}
		if xi >= 2 {
			t.vals[i] = 0
			continue
		}
		integral := simpsonAdaptive(func(u float64) float64 { return gp3mPoly(u) / (u * u) }, xi, 2, 1e-12, 30)
		t.vals[i] = xi * integral
	}
	return t
}

// P returns the interpolated shape p(ξ).
func (t *PotTable) P(xi float64) float64 {
	if xi >= 2 {
		return 0
	}
	if xi <= 0 {
		return 1
	}
	f := xi / t.dxi
	i := int(f)
	if i >= len(t.vals)-1 {
		return 0
	}
	u := f - float64(i)
	return t.vals[i]*(1-u) + t.vals[i+1]*u
}

// PotCutoff accumulates short-range potentials Φ_i += −Σ_j G·m_j·p(ξ)/r
// into pot using the table.
func PotCutoff(xi, yi, zi []float64, src *Source, tab *PotTable, g, rcut, eps2 float64, pot []float64) uint64 {
	cinv := 2 / rcut
	for i := range xi {
		var p float64
		for j := range src.X {
			dx := src.X[j] - xi[i]
			dy := src.Y[j] - yi[i]
			dz := src.Z[j] - zi[i]
			r2 := dx*dx + dy*dy + dz*dz + eps2
			if r2 == 0 {
				continue
			}
			rinv := 1 / math.Sqrt(r2)
			x2 := r2 * rinv * cinv
			if x2 >= 2 {
				continue
			}
			p -= g * src.M[j] * rinv * tab.P(x2)
		}
		pot[i] += p
	}
	return interactions(len(xi), src.Len())
}
