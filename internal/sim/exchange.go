package sim

import (
	"unsafe"

	"greem/internal/domain"
	"greem/internal/mpi"
	"greem/internal/telemetry"
	"greem/internal/tree"
	"greem/internal/vec"
)

// exchangeParticles sends every local particle to the rank owning its
// position under the current geometry.
func (s *Sim) exchangeParticles() error {
	p := s.comm.Size()
	send := make([][]Particle, p)
	for i := range s.x {
		pos := vec.Wrap(vec.V3{X: s.x[i], Y: s.y[i], Z: s.z[i]}, s.cfg.L)
		dst := s.geo.Find(pos)
		send[dst] = append(send[dst], Particle{
			X: pos.X, Y: pos.Y, Z: pos.Z,
			VX: s.vx[i], VY: s.vy[i], VZ: s.vz[i],
			M: s.m[i], ID: s.id[i],
		})
	}
	recv := mpi.Alltoall(s.comm, send)
	var mine []Particle
	for _, r := range recv {
		mine = append(mine, r...)
	}
	s.setParticles(mine)
	return nil
}

// ghost is the boundary-source wire format: a source-only particle (or
// pruned node monopole) shipped to a neighbour, with its position already
// shifted to the receiver's periodic frame. Aliased to the tree package's
// LET type so the walk emits directly into the staging buffers.
type ghost = tree.LETParticle

// ghostBytes is the wire size of one ghost.
const ghostBytes = int(unsafe.Sizeof(ghost{}))

// TrafficLabelGhosts tags the ghost-exchange alltoall in the mpi traffic
// ledger (Traffic.TotalsByLabel), separating PP boundary bytes from the PM
// mesh and DD migration traffic.
const TrafficLabelGhosts = "pp/ghosts"

// bestShift returns the periodic shift k·L (k ∈ {−1,0,1}) that brings
// coordinate c closest to the interval [lo, hi], and the resulting distance.
// Canonical implementation lives with the LET walk in package tree.
func bestShift(c, lo, hi, l float64) (shift, dist float64) {
	return tree.BestShift(c, lo, hi, l)
}

// boxDistPeriodic returns the minimum periodic distance between two boxes.
func boxDistPeriodic(alo, ahi, blo, bhi vec.V3, l float64) float64 {
	return tree.BoxDistPeriodic(alo, ahi, blo, bhi, l)
}

// exchangeGhosts ships to every near rank the boundary sources lying within
// rcut of that rank's domain, shifted into its frame, and returns the sources
// received: the local tree lt is walked once per neighbour, shipping pruned
// monopoles where the opening criterion allows (GreeM's locally-essential-
// tree exchange). Under the raw-ghost oracle every local particle is scanned
// against every near rank instead and raw particles ship (lt is ignored).
// Collective; the returned slice is owned by the Sim and valid until the
// next exchange.
func (s *Sim) exchangeGhosts(lt *tree.Tree) []ghost {
	if s.oracle.rawGhosts {
		return s.exchangeGhostsRaw()
	}
	return s.exchangeGhostsLET(lt)
}

// stagedSend returns the per-destination staging buffers, truncated to
// length zero but with their capacity retained across exchanges.
func (s *Sim) stagedSend(p int) [][]ghost {
	if len(s.ghostSend) != p {
		s.ghostSend = make([][]ghost, p)
	}
	for r := range s.ghostSend {
		s.ghostSend[r] = s.ghostSend[r][:0]
	}
	return s.ghostSend
}

// exchangeGhostsRaw is the LET exchange's parity oracle: an O(n·p_near) scan
// shipping raw particles. Reached only through the oracle hook.
func (s *Sim) exchangeGhostsRaw() []ghost {
	sp := s.rec.Start(telemetry.PhasePPComm)
	defer sp.End()
	p := s.comm.Size()
	rcut := s.cfg.Rcut
	l := s.cfg.L
	send := s.stagedSend(p)
	mlo, mhi := s.bounds()
	for r := 0; r < p; r++ {
		lo, hi := s.geo.Bounds(r)
		// Quick reject: if even the closest point of my domain is beyond
		// rcut of r's domain (periodically), skip the particle loop.
		if boxDistPeriodic(mlo, mhi, lo, hi, l) > rcut {
			continue
		}
		buf := send[r]
		for i := range s.x {
			sx, dx := bestShift(s.x[i], lo.X, hi.X, l)
			sy, dy := bestShift(s.y[i], lo.Y, hi.Y, l)
			sz, dz := bestShift(s.z[i], lo.Z, hi.Z, l)
			if dx*dx+dy*dy+dz*dz > rcut*rcut {
				continue
			}
			if r == s.comm.Rank() && sx == 0 && sy == 0 && sz == 0 {
				continue // local particles are already targets, not ghosts
			}
			buf = append(buf, ghost{X: s.x[i] + sx, Y: s.y[i] + sy, Z: s.z[i] + sz, M: s.m[i]})
		}
		send[r] = buf
	}
	return s.alltoallGhosts(send)
}

// exchangeGhostsLET walks the local tree lt once per near neighbour against
// that neighbour's (periodic-shifted) domain box, emitting pruned node
// monopoles where size/dist < θ allows and leaf particles where the box is
// close. The walk never visits its own rank: the raw path ships no
// self-images either (an interior particle's best shift is always zero), so
// the two paths stay equivalent. See tree.LETCollector for the error
// contract.
func (s *Sim) exchangeGhostsLET(lt *tree.Tree) []ghost {
	sp := s.rec.Start(telemetry.PhasePPLET)
	p := s.comm.Size()
	rcut := s.cfg.Rcut
	l := s.cfg.L
	send := s.stagedSend(p)
	mlo, mhi := s.bounds()
	self := s.comm.Rank()
	var st tree.LETStats
	for r := 0; r < p; r++ {
		if r == self {
			continue
		}
		lo, hi := s.geo.Bounds(r)
		if boxDistPeriodic(mlo, mhi, lo, hi, l) > rcut {
			continue
		}
		var walk tree.LETStats
		send[r], walk = s.let.Collect(lt, lo, hi, l, rcut, s.cfg.Theta, send[r])
		st.Add(walk)
	}
	s.ctrLETMono.AddUint(st.Monopoles)
	s.ctrLETLeaf.AddUint(st.Leaves)
	s.ctrLETNodes.AddUint(st.NodesVisited)
	sp.End()

	sp = s.rec.Start(telemetry.PhasePPComm)
	defer sp.End()
	return s.alltoallGhosts(send)
}

// alltoallGhosts runs the ghost alltoall over the staged send buffers,
// flattens the receives into the Sim-owned ghost buffer, and feeds the ghost
// traffic counters. Rank 0 labels the ops in the world traffic ledger; the
// label is per-communicator (Comm.SetTrafficLabel), so PM collectives in
// flight on the duplicated comm during the overlapped step never pick it up,
// and it is safe to set here because recording happens inside rank 0's
// Alltoall call, between the collective's two barriers.
func (s *Sim) alltoallGhosts(send [][]ghost) []ghost {
	if s.comm.Rank() == 0 {
		s.comm.SetTrafficLabel(TrafficLabelGhosts)
	}
	recv := mpi.Alltoall(s.comm, send)
	if s.comm.Rank() == 0 {
		s.comm.SetTrafficLabel("")
	}
	var sent int
	for _, b := range send {
		sent += len(b)
	}
	out := s.ghostRecv[:0]
	for _, r := range recv {
		out = append(out, r...)
	}
	s.ghostRecv = out
	s.ctrGhostSent.AddUint(uint64(sent))
	s.ctrGhostRecv.AddUint(uint64(len(out)))
	s.ctrGhostBytes.AddUint(uint64(sent * ghostBytes))
	return out
}

// domainDecomposition runs the sampling method: measure cost, sample
// particles proportionally, rebuild the geometry at the root, smooth it with
// the moving average, broadcast it, and migrate particles.
func (s *Sim) domainDecomposition() error {
	spAll := s.rec.Start(telemetry.SpanDD)
	defer spAll.End()
	sp := s.rec.Start(telemetry.PhaseDDSampling)
	p := s.comm.Size()

	cost := s.lastCost
	if cost <= 0 {
		cost = float64(len(s.x) + 1)
	}
	costs := flatten(mpi.Allgather(s.comm, []float64{cost}))
	counts := make([]int, p)
	for i, c := range mpi.Allgather(s.comm, []int{len(s.x)}) {
		counts[i] = c[0]
	}
	nsamp := domain.SampleCounts(s.cfg.SampleTotal, costs, counts)[s.comm.Rank()]

	samples := make([]float64, 0, 3*nsamp)
	if len(s.x) > 0 {
		for k := 0; k < nsamp; k++ {
			i := s.rng.Intn(len(s.x))
			samples = append(samples, s.x[i], s.y[i], s.z[i])
		}
	}
	gathered := mpi.Gather(s.comm, 0, samples)

	var flatGeo []float64
	if s.comm.Rank() == 0 {
		var pts []vec.V3
		for _, g := range gathered {
			for i := 0; i+2 < len(g); i += 3 {
				pts = append(pts, vec.V3{X: g[i], Y: g[i+1], Z: g[i+2]})
			}
		}
		geo, err := domain.FromSamples(s.cfg.Grid[0], s.cfg.Grid[1], s.cfg.Grid[2], s.cfg.L, pts)
		if err != nil {
			// Not enough samples (e.g. nearly empty ranks): keep the old
			// geometry rather than fail the run.
			geo = s.geo
		}
		s.history = append(s.history, geo)
		if len(s.history) > s.cfg.SmoothSteps {
			s.history = s.history[len(s.history)-s.cfg.SmoothSteps:]
		}
		smoothed, err := domain.MovingAverage(s.history)
		if err != nil {
			smoothed = geo
		}
		flatGeo = smoothed.EncodeFlat()
	}
	flatGeo = mpi.Bcast(s.comm, 0, flatGeo)
	geo, err := domain.DecodeFlat(flatGeo)
	if err != nil {
		return err
	}
	s.geo = geo
	sp.End()

	sp = s.rec.Start(telemetry.PhaseDDExchange)
	if err := s.exchangeParticles(); err != nil {
		sp.End()
		return err
	}
	if err := s.rebuildPM(); err != nil {
		sp.End()
		return err
	}
	sp.End()
	return nil
}

func flatten(in [][]float64) []float64 {
	var out []float64
	for _, v := range in {
		out = append(out, v...)
	}
	return out
}
