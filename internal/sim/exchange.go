package sim

import (
	"fmt"
	"unsafe"

	"greem/internal/domain"
	"greem/internal/mpi"
	"greem/internal/telemetry"
	"greem/internal/tree"
	"greem/internal/vec"
)

// NonFinitePositionError reports a particle whose position was NaN or ±Inf
// when the domain decomposition went to sample or route it: a blown-up
// integration, caught before it could bend the sampled boundaries or be sent
// to an arbitrary rank by domain.Geometry.Find. Step is the index of the step
// that was in progress.
type NonFinitePositionError struct {
	Rank int
	ID   int64
	Step int
}

func (e *NonFinitePositionError) Error() string {
	return fmt.Sprintf("sim: non-finite position: particle %d on rank %d in step %d", e.ID, e.Rank, e.Step)
}

// checkFinite returns a *NonFinitePositionError if local particle i's
// position is NaN or ±Inf.
func (s *Sim) checkFinite(i int) error {
	if sum := s.x[i] + s.y[i] + s.z[i]; sum-sum != 0 { // NaN for NaN and ±Inf alike
		return &NonFinitePositionError{Rank: s.comm.Rank(), ID: s.id[i], Step: s.step}
	}
	return nil
}

// ParticleLostError reports that the ranks' particle counts no longer add up
// to the run's particle count. Every rank sees the same counts, so every
// rank returns it from the same step.
type ParticleLostError struct {
	Have, Want int64
	Step       int
}

func (e *ParticleLostError) Error() string {
	return fmt.Sprintf("sim: particle lost: ranks hold %d of %d particles in step %d", e.Have, e.Want, e.Step)
}

// exchangeParticles moves every local particle to the rank owning its
// (wrapped) position under the current geometry. Only the leavers are packed
// and shipped; the stayers close up in place. The resulting storage order is
// part of the trajectory (summation order matters bit-wise) and of the
// checkpoint: arrivals from the ranks below this one, then the stayers in
// their old order, then arrivals from the ranks above, each sender's
// particles in the order it held them. Steady state allocates nothing: the
// staging buffers and the particle arrays keep their capacity.
//
// A non-finite position fails with *NonFinitePositionError on the rank that
// holds it, before the collective; see domainDecomposition for what the
// caller owes its peers then. The Sim is unusable after an error.
func (s *Sim) exchangeParticles() error {
	p, self := s.comm.Size(), s.comm.Rank()
	if len(s.partSend) != p {
		s.partSend, s.partRecv = make([][]Particle, p), make([][]Particle, p)
	}
	send := s.partSend
	for r := range send {
		send[r] = send[r][:0]
	}
	stay := 0
	for i := range s.x {
		if err := s.checkFinite(i); err != nil {
			return err
		}
		pos := vec.Wrap(vec.V3{X: s.x[i], Y: s.y[i], Z: s.z[i]}, s.cfg.L)
		if dst := s.geo.Find(pos); dst != self {
			send[dst] = append(send[dst], Particle{
				X: pos.X, Y: pos.Y, Z: pos.Z,
				VX: s.vx[i], VY: s.vy[i], VZ: s.vz[i],
				M: s.m[i], ID: s.id[i],
			})
			continue
		}
		s.x[stay], s.y[stay], s.z[stay] = pos.X, pos.Y, pos.Z
		s.vx[stay], s.vy[stay], s.vz[stay] = s.vx[i], s.vy[i], s.vz[i]
		s.m[stay], s.id[stay] = s.m[i], s.id[i]
		stay++
	}
	s.partRecv = mpi.AlltoallInto(s.comm, send, s.partRecv)

	below, n := 0, stay
	for r, in := range s.partRecv {
		n += len(in)
		if r < self {
			below += len(in)
		}
	}
	s.x, s.y, s.z = moveTo(s.x, stay, below, n), moveTo(s.y, stay, below, n), moveTo(s.z, stay, below, n)
	s.vx, s.vy, s.vz = moveTo(s.vx, stay, below, n), moveTo(s.vy, stay, below, n), moveTo(s.vz, stay, below, n)
	s.m, s.id = moveTo(s.m, stay, below, n), moveTo(s.id, stay, below, n)
	at := 0
	for r, in := range s.partRecv {
		if r == self {
			at += stay // nothing is sent to self
		}
		for _, q := range in {
			s.x[at], s.y[at], s.z[at] = q.X, q.Y, q.Z
			s.vx[at], s.vy[at], s.vz[at] = q.VX, q.VY, q.VZ
			s.m[at], s.id[at] = q.M, q.ID
			at++
		}
	}
	s.resizeAccels()
	return nil
}

// moveTo returns b with n elements of which [at, at+k) are b's first k, the
// rest unspecified: in place when the capacity allows, otherwise into a new
// array with headroom for the count to keep fluctuating.
func moveTo[T any](b []T, k, at, n int) []T {
	if cap(b) < n {
		nb := make([]T, n, n+n/8)
		copy(nb[at:], b[:k])
		return nb
	}
	b = b[:n]
	copy(b[at:at+k], b[:k])
	return b
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
// Collective; the result holds one block per sending rank, is owned by the
// Sim and valid until the next exchange.
func (s *Sim) exchangeGhosts(lt *tree.Tree) [][]ghost {
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
func (s *Sim) exchangeGhostsRaw() [][]ghost {
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
func (s *Sim) exchangeGhostsLET(lt *tree.Tree) [][]ghost {
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

// alltoallGhosts runs the ghost alltoall from the staged send buffers
// straight into the Sim-owned per-source receive buffers, and feeds the ghost
// traffic counters. Rank 0 labels the ops in the world traffic ledger; the
// label is per-communicator (Comm.SetTrafficLabel), so PM collectives in
// flight on the duplicated comm during the overlapped step never pick it up,
// and it is safe to set here because recording happens inside rank 0's
// Alltoall call, between the collective's two barriers.
func (s *Sim) alltoallGhosts(send [][]ghost) [][]ghost {
	if s.comm.Rank() == 0 {
		s.comm.SetTrafficLabel(TrafficLabelGhosts)
	}
	s.ghostRecv = mpi.AlltoallInto(s.comm, send, s.ghostRecv)
	if s.comm.Rank() == 0 {
		s.comm.SetTrafficLabel("")
	}
	var sent, recv int
	for r := range send {
		sent += len(send[r])
		recv += len(s.ghostRecv[r])
	}
	s.ctrGhostSent.AddUint(uint64(sent))
	s.ctrGhostRecv.AddUint(uint64(recv))
	s.ctrGhostBytes.AddUint(uint64(sent * ghostBytes))
	return s.ghostRecv
}

// domainDecomposition runs the sampling method: measure cost, sample
// particles proportionally, rebuild the geometry at the root, smooth it with
// the moving average, broadcast it, migrate particles and move the PM solver
// onto the new domains. The gathered counts double as the particle
// conservation check.
//
// Errors come in two kinds. *ParticleLostError and a geometry that fails to
// decode are seen by every rank at the same point, so all ranks return
// together. *NonFinitePositionError is seen only by the rank holding the
// particle, which returns without entering the next collective: its caller
// must fail the rank (every driver panics on a Step error), so that the
// world aborts and the peers leave that collective with mpi.ErrAborted
// instead of waiting for this rank.
func (s *Sim) domainDecomposition() error {
	spAll := s.rec.Start(telemetry.SpanDD)
	defer spAll.End()
	sp := s.rec.Start(telemetry.PhaseDDSampling)

	cost := s.lastCost
	if cost <= 0 {
		cost = float64(len(s.x) + 1)
	}
	s.ddCosts = mpi.AllgatherInto(s.comm, []float64{cost}, s.ddCosts)
	s.ddCounts = mpi.AllgatherInto(s.comm, []int{len(s.x)}, s.ddCounts)
	var have int64
	for _, n := range s.ddCounts {
		have += int64(n)
	}
	if have != s.nTotal {
		sp.End()
		return &ParticleLostError{Have: have, Want: s.nTotal, Step: s.step}
	}
	nsamp := domain.SampleCounts(s.cfg.SampleTotal, s.ddCosts, s.ddCounts)[s.comm.Rank()]

	s.ddSamples = s.ddSamples[:0]
	if len(s.x) > 0 {
		for k := 0; k < nsamp; k++ {
			i := s.rng.Intn(len(s.x))
			if err := s.checkFinite(i); err != nil {
				sp.End()
				return err
			}
			s.ddSamples = append(s.ddSamples, s.x[i], s.y[i], s.z[i])
		}
	}
	gathered := mpi.Gather(s.comm, 0, s.ddSamples)

	var flatGeo []float64
	if s.comm.Rank() == 0 {
		s.ddPts = s.ddPts[:0]
		for _, g := range gathered {
			for i := 0; i+2 < len(g); i += 3 {
				s.ddPts = append(s.ddPts, vec.V3{X: g[i], Y: g[i+1], Z: g[i+2]})
			}
		}
		geo, err := domain.FromSamples(s.cfg.Grid[0], s.cfg.Grid[1], s.cfg.Grid[2], s.cfg.L, s.ddPts)
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
	sp.End()
	if err != nil {
		return err
	}
	s.geo = geo

	sp = s.rec.Start(telemetry.PhaseDDExchange)
	defer sp.End()
	if err := s.exchangeParticles(); err != nil {
		return err
	}
	s.pm.Redecompose(s.geo.Bounds)
	return nil
}
