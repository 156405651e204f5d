package sim

import (
	"greem/internal/telemetry"
	"greem/internal/tree"
)

// buildSourceTrees runs the short-range source pipeline shared by computePP
// and PotentialEnergy: ghost exchange, source-set assembly (local particles
// plus received ghosts) into the Sim-owned buffers, and tree construction on
// the Sim-owned builder arenas (srcBuild/tgtBuild — zero steady-state
// allocations). It returns the source tree, the target tree over the local
// particles, and the ghost count; when no ghosts arrived the single tree
// serves both roles and the caller must traverse it periodically
// (nGhosts == 0 ⇒ forceOpts(periodic=true)), since no ghosts encode the
// wrap. Both returned trees alias their builder arenas and are valid until
// the next pass. Collective.
func (s *Sim) buildSourceTrees() (src, tgt *tree.Tree, nGhosts int) {
	opts := tree.Options{LeafCap: s.cfg.LeafCap}

	// The LET exchange walks the local tree, so the target tree is built
	// first and doubles as the walk input.
	sp := s.rec.Start(telemetry.PhasePPTreeConstr)
	lt, err := s.tgtBuild.Rebuild(s.x, s.y, s.z, s.m, opts)
	if err != nil {
		panic(err)
	}
	sp.End()
	ghosts := s.exchangeGhosts(lt)

	sp = s.rec.Start(telemetry.PhasePPLocalTree)
	nGhosts = s.assembleSources(ghosts)
	sp.End()

	sp = s.rec.Start(telemetry.PhasePPTreeConstr)
	defer sp.End()
	if src, err = s.srcBuild.Rebuild(s.srcX, s.srcY, s.srcZ, s.srcM, opts); err != nil {
		panic(err)
	}
	if nGhosts == 0 {
		return src, src, 0
	}
	return src, lt, nGhosts
}

// assembleSources fills the Sim-owned source buffers with the local
// particles followed by the received ghosts, sender by sender, and returns
// the ghost count. The buffers are reused across calls — zero steady-state
// allocations, asserted by TestAssembleSourcesAllocs — and are only read
// between here and the source tree.Build (which copies into tree order), so
// reuse is safe.
func (s *Sim) assembleSources(ghosts [][]ghost) (nGhosts int) {
	n := len(s.x)
	for _, from := range ghosts {
		nGhosts += len(from)
	}
	tot := n + nGhosts
	s.srcX = growFloats(s.srcX, tot)
	s.srcY = growFloats(s.srcY, tot)
	s.srcZ = growFloats(s.srcZ, tot)
	s.srcM = growFloats(s.srcM, tot)
	copy(s.srcX, s.x)
	copy(s.srcY, s.y)
	copy(s.srcZ, s.z)
	copy(s.srcM, s.m)
	i := n
	for _, from := range ghosts {
		for _, g := range from {
			s.srcX[i], s.srcY[i], s.srcZ[i], s.srcM[i] = g.X, g.Y, g.Z, g.M
			i++
		}
	}
	return nGhosts
}

// growFloats resizes b to length n within its capacity; when that is short it
// reallocates with headroom, because the counts it follows (local particles,
// ghosts) fluctuate from substep to substep.
func growFloats(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n, n+n/8)
	}
	return b[:n]
}
