// Package treepm composes the tree short-range force (package tree) and the
// particle-mesh long-range force (package mesh) into the serial TreePM
// solver — the core method of the paper. It also provides the P3M variant
// (direct summation short-range) that TreePM supersedes: P3M's short-range
// cost inside a clustered cutoff sphere is O(n²) versus the tree's
// O(n log n), which is the Fig. 2 comparison.
package treepm

import (
	"fmt"
	"time"

	"greem/internal/direct"
	"greem/internal/mesh"
	"greem/internal/tree"
)

// Config parameterizes a TreePM solver.
type Config struct {
	L     float64 // periodic box side
	G     float64 // gravitational constant
	NMesh int     // PM mesh size per dimension (power of two)
	// Rcut is the force-split radius; 0 selects the paper's choice
	// rcut = 3·L/NMesh (§III-A: rcut = 3/N_PM^(1/3) with L = 1).
	Rcut  float64
	Theta float64 // tree opening angle (0 ⇒ 0.5)
	// Ni is the Barnes group-size cap ⟨Ni⟩; 0 selects 100, the optimum the
	// paper reports for K computer.
	Ni   int
	Eps2 float64 // Plummer softening squared
	// LeafCap for tree construction (0 ⇒ 16).
	LeafCap int
	// SpectralPM switches PM differentiation to k-space (ablation).
	SpectralPM bool
	// NoDeconvolution disables TSC window deconvolution (ablation).
	NoDeconvolution bool
	// Workers threads the tree traversal+kernel AND every PM hot loop
	// (assignment, FFT lines, convolution, differencing, interpolation) —
	// the OpenMP-within-a-process half of the paper's hybrid parallelism.
	// The knob resolves through par.Resolve (0 ⇒ serial, par.Auto ⇒
	// GOMAXPROCS); PM results are bit-identical to serial at any worker
	// count. Call Solver.Close to release the pool.
	Workers int
}

func (c *Config) setDefaults() error {
	if c.L <= 0 || c.G <= 0 {
		return fmt.Errorf("treepm: L and G must be positive")
	}
	if c.NMesh < 2 {
		return fmt.Errorf("treepm: NMesh %d too small", c.NMesh)
	}
	if c.Rcut == 0 {
		c.Rcut = 3 * c.L / float64(c.NMesh)
	}
	if c.Theta == 0 {
		c.Theta = 0.5
	}
	if c.Ni == 0 {
		c.Ni = 100
	}
	if c.LeafCap == 0 {
		c.LeafCap = 16
	}
	return nil
}

// Solver evaluates total gravitational accelerations with the TreePM method.
type Solver struct {
	cfg    Config
	pm     *mesh.PM
	walker *tree.Walker
	build  *tree.Builder
}

// Stats reports per-component work and wall-clock for one force evaluation.
type Stats struct {
	Tree         tree.Stats
	TreeBuild    time.Duration
	TreeTraverse time.Duration // traversal + PP force together
	PMTime       time.Duration
}

// New creates a TreePM solver.
func New(cfg Config) (*Solver, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	var opts []mesh.Option
	if cfg.SpectralPM {
		opts = append(opts, mesh.WithSpectralDifferentiation())
	}
	if cfg.NoDeconvolution {
		opts = append(opts, mesh.WithoutDeconvolution())
	}
	if cfg.Workers != 0 {
		opts = append(opts, mesh.WithWorkers(cfg.Workers))
	}
	pm, err := mesh.New(cfg.NMesh, cfg.L, cfg.G, cfg.Rcut, opts...)
	if err != nil {
		return nil, err
	}
	return &Solver{cfg: cfg, pm: pm, walker: tree.NewWalker(), build: tree.NewBuilder()}, nil
}

// Close releases the PM solver's worker pool (no-op when serial).
func (s *Solver) Close() { s.pm.Close() }

// Config returns the solver's resolved configuration.
func (s *Solver) Config() Config { return s.cfg }

// Accel adds total (short + long range) accelerations into ax/ay/az.
// Positions must lie in [0, L).
func (s *Solver) Accel(x, y, z, m []float64, ax, ay, az []float64) (Stats, error) {
	var st Stats
	t0 := time.Now()
	// Builder arena: repeated force evaluations rebuild the tree without
	// allocating (the tree is valid until the next Accel call).
	tr, err := s.build.Rebuild(x, y, z, m, tree.Options{LeafCap: s.cfg.LeafCap})
	if err != nil {
		return st, err
	}
	st.TreeBuild = time.Since(t0)

	t1 := time.Now()
	st.Tree = s.walker.Accel(tr, tr, s.cfg.Ni, tree.ForceOpts{
		G: s.cfg.G, Theta: s.cfg.Theta, Eps2: s.cfg.Eps2,
		Cutoff: true, Rcut: s.cfg.Rcut, Periodic: true, L: s.cfg.L,
		Workers: s.cfg.Workers,
	}, ax, ay, az)
	st.TreeTraverse = time.Since(t1)

	t2 := time.Now()
	s.pm.Accel(x, y, z, m, ax, ay, az)
	st.PMTime = time.Since(t2)
	return st, nil
}

// AccelP3M adds total accelerations computed with the P3M method: chaining-
// mesh direct short-range summation plus the same PM long-range force.
// Returns the number of short-range pair evaluations (the O(n²)-in-clusters
// cost that Fig. 2 charts and that motivates TreePM).
func (s *Solver) AccelP3M(x, y, z, m []float64, ax, ay, az []float64) uint64 {
	n := direct.AccelCutoffCells(x, y, z, m, s.cfg.G, s.cfg.L, s.cfg.Rcut, s.cfg.Eps2, ax, ay, az)
	s.pm.Accel(x, y, z, m, ax, ay, az)
	return n
}

// PMPotential exposes the interpolated long-range potential (diagnostics).
func (s *Solver) PMPotential(x, y, z, m []float64, pot []float64) {
	s.pm.Clear()
	s.pm.AssignTSC(x, y, z, m)
	s.pm.Solve()
	s.pm.InterpolatePot(x, y, z, pot)
}
