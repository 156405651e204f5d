package sim

import (
	"fmt"

	"greem/internal/domain"
	"greem/internal/mpi"
)

// State is one rank's complete restartable simulation state: everything that
// feeds back into the trajectory. Particles are in local storage order
// (summation order matters bit-wise), Geo is the current decomposition,
// History the geometry smoothing window (only rank 0 carries one), RNG the
// sampling-PRNG state, and LastCost/LastPMCost the cost-sampling inputs.
// Telemetry is deliberately excluded: counters and timers observe the run
// but never feed back into it.
type State struct {
	Particles  []Particle
	Time       float64
	Step       uint64
	RNG        uint64
	LastCost   float64
	LastPMCost float64
	Geo        []float64   // domain.Geometry.EncodeFlat
	History    [][]float64 // smoothing window, oldest first (rank 0 only)
}

// State captures this rank's restartable state. Local, not collective; the
// checkpoint package calls it on every rank at the same step boundary.
func (s *Sim) State() State {
	st := State{
		Particles:  s.Particles(),
		Time:       s.time,
		Step:       uint64(s.step),
		RNG:        s.rng.state,
		LastCost:   s.lastCost,
		LastPMCost: s.lastPMCost,
		Geo:        s.geo.EncodeFlat(),
	}
	for _, g := range s.history {
		st.History = append(st.History, g.EncodeFlat())
	}
	return st
}

// Resume reconstructs a Sim from a per-rank State captured by State().
// Unlike New it performs no initial uniform-geometry exchange: the particles
// are installed exactly as stored (same owner rank, same local order) and the
// decomposition, smoothing history, sampling-RNG state and cost inputs are
// restored, so with Config.DeterministicCost a resumed run continues
// bit-identically to the run that wrote the state. Collective over c (the PM
// solver construction is collective); the rank count must match the one that
// wrote the state.
func Resume(c *mpi.Comm, cfg Config, st State) (*Sim, error) {
	if err := cfg.setDefaults(c.Size()); err != nil {
		return nil, err
	}
	geo, err := domain.DecodeFlat(st.Geo)
	if err != nil {
		return nil, fmt.Errorf("sim: resume geometry: %w", err)
	}
	if geo.NumDomains() != c.Size() {
		return nil, fmt.Errorf("sim: resume geometry has %d domains for %d ranks", geo.NumDomains(), c.Size())
	}
	s := newSim(c, cfg)
	s.geo = geo
	for i, h := range st.History {
		hg, err := domain.DecodeFlat(h)
		if err != nil {
			return nil, fmt.Errorf("sim: resume history entry %d: %w", i, err)
		}
		s.history = append(s.history, hg)
	}
	s.time = st.Time
	s.step = int(st.Step)
	s.rng.state = st.RNG
	s.lastCost = st.LastCost
	s.lastPMCost = st.LastPMCost
	s.setParticles(st.Particles)
	if err := s.buildPM(); err != nil {
		return nil, err
	}
	return s, nil
}
