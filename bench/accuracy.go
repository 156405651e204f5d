package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"greem/internal/ewald"
	"greem/internal/mpi"
	"greem/internal/sim"
)

// accuracySeed fixes the force-accuracy draw. It does not follow -seed: 256
// particles put about two pairs inside rcut on the mesh-heavy workload, so
// across seeds the RMS follows the Poisson noise in that number (quartile
// distance 95 % of the median over ten seeds) and no bound could hold. On one
// draw the value repeats to the last bit, which is what a fingerprint needs.
const accuracySeed = 21

// forceRMSErr is the RMS relative force error of the workload's exact
// sim.Config on an n-particle draw from the workload's generator, against
// Ewald summation. It is a fingerprint of the force path, comparable only
// with itself: n is far too small for an absolute accuracy claim.
func forceRMSErr(w *workload, n int) (float64, error) {
	const seed = accuracySeed
	np := 2
	for np*np*np < 2*n { // a power of two, as the Zel'dovich generator needs
		np *= 2
	}
	all, err := w.generate(seed, np)
	if err != nil {
		return 0, err
	}
	pick := rand.New(rand.NewSource(seed)).Perm(len(all))[:n]
	sort.Ints(pick)
	parts := make([]sim.Particle, n)
	x, y, z, m := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i, j := range pick {
		parts[i] = all[j]
		parts[i].M, parts[i].ID = 1/float64(n), int64(i)
		x[i], y[i], z[i], m[i] = parts[i].X, parts[i].Y, parts[i].Z, parts[i].M
	}

	ax, ay, az := make([]float64, n), make([]float64, n), make([]float64, n)
	cfg := w.config()
	err = mpi.Run(ranks, func(c *mpi.Comm) {
		var mine []sim.Particle
		for j := c.Rank(); j < n; j += ranks {
			mine = append(mine, parts[j])
		}
		s, err := sim.New(c, cfg, mine)
		if err != nil {
			panic(err)
		}
		defer s.Close()
		s.ComputeForces()
		for i := 0; i < s.NumLocal(); i++ {
			id := s.ID(i) // each ID lives on one rank, so the writes are disjoint
			ax[id], ay[id], az[id] = s.AccelFor(i)
		}
	})
	if err != nil {
		return 0, err
	}

	rx, ry, rz := make([]float64, n), make([]float64, n), make([]float64, n)
	ewald.New(cfg.L, cfg.G).Accel(x, y, z, m, rx, ry, rz)
	var e2, r2 float64
	for i := range ax {
		dx, dy, dz := ax[i]-rx[i], ay[i]-ry[i], az[i]-rz[i]
		e2 += dx*dx + dy*dy + dz*dz
		r2 += rx[i]*rx[i] + ry[i]*ry[i] + rz[i]*rz[i]
	}
	rms := math.Sqrt(e2 / r2)
	if math.IsNaN(rms) || math.IsInf(rms, 0) {
		return rms, fmt.Errorf("force error is %v", rms)
	}
	return rms, nil
}

// baselineJSON is the record of this benchmark's numbers at the commit that
// defined it; the oracle reads force_rms_err from it.
//
//go:embed results/baseline.json
var baselineJSON []byte

// baselineForceErr returns the recorded force_rms_err median of a workload.
func baselineForceErr(workload string) (float64, bool) {
	var b suiteReport
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return 0, false
	}
	m, ok := b.Workloads[workload]["force_rms_err"]
	return m.Median, ok && m.Median > 0
}
