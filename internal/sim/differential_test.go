package sim

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"greem/internal/ewald"
	"greem/internal/mpi"
	"greem/internal/pmpar"
	"greem/internal/tree"
	"greem/internal/treepm"
)

// The differential harness: the guarantees ROADMAP names for the one
// production pipeline, on every mesh layout, in two tables.
//
//	TestDifferentialTrajectories  a multi-step 8-rank run is exactly == across
//	                              Workers {1, 7}, across a mid-run State/Resume,
//	                              and against the sequential step order
//	TestDifferentialForces        forces are pinned to Ewald, and each layer's
//	                              oracle (raw ghosts, float64 walk, all three
//	                              together) moves them no more than its bound
//
// The oracles live behind Sim.oracle, which only in-package tests can set.

// diffLayouts are the paper's mesh-layout axis on 8 ranks.
var diffLayouts = []struct {
	name  string
	shape func(*Config)
}{
	{"naive", func(c *Config) {}},
	{"relay", func(c *Config) { c.Relay, c.Groups, c.NFFT = true, 2, 4 }},
	{"pencil", func(c *Config) { c.Pencil, c.PY, c.PZ = true, 2, 4 }},
}

// allOracles is the reference pipeline: every layer on its oracle.
var allOracles = oracle{rawGhosts: true, sequential: true, float64Walk: true}

// diffRun is what one 8-rank run leaves behind, indexed by particle ID, plus
// each rank's State after capStep steps and rank 0's overlap accounting.
type diffRun struct {
	px, py, pz []float64
	vx, vy, vz []float64
	ax, ay, az []float64
	states     []State
	overlap    OverlapStats
}

// runDiff runs a world of 8 ranks under cfg — fresh from parts, or resumed
// from the per-rank states when from is non-nil — with the given oracles
// switched on: nsteps full steps (capturing each rank's State before step
// capStep; capStep < 0 captures nothing), then the forces at the final
// positions.
func runDiff(t *testing.T, cfg Config, parts []Particle, from []State, or oracle, nsteps, capStep int) diffRun {
	t.Helper()
	n := len(parts)
	r := diffRun{
		px: make([]float64, n), py: make([]float64, n), pz: make([]float64, n),
		vx: make([]float64, n), vy: make([]float64, n), vz: make([]float64, n),
		ax: make([]float64, n), ay: make([]float64, n), az: make([]float64, n),
		states: make([]State, 8),
	}
	err := mpi.Run(8, func(cm *mpi.Comm) {
		var s *Sim
		var err error
		if from != nil {
			s, err = Resume(cm, cfg, from[cm.Rank()])
		} else {
			s, err = New(cm, cfg, sliceFor(parts, cm.Rank(), 8))
		}
		if err != nil {
			panic(err)
		}
		defer s.Close()
		s.oracle = or
		for k := 0; k < nsteps; k++ {
			if k == capStep {
				r.states[cm.Rank()] = s.State()
			}
			if err := s.Step(); err != nil {
				panic(err)
			}
		}
		s.ComputeForces()
		// Each particle lives on exactly one rank, so the ID-indexed writes
		// do not race.
		for i, p := range s.Particles() {
			r.px[p.ID], r.py[p.ID], r.pz[p.ID] = p.X, p.Y, p.Z
			r.vx[p.ID], r.vy[p.ID], r.vz[p.ID] = p.VX, p.VY, p.VZ
			r.ax[p.ID], r.ay[p.ID], r.az[p.ID] = s.AccelFor(i)
		}
		if cm.Rank() == 0 {
			r.overlap = s.OverlapStats()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// requireSameRun asserts two runs produced bit-identical positions,
// velocities and forces for every particle.
func requireSameRun(t *testing.T, a, b diffRun) {
	t.Helper()
	for i := range a.px {
		if a.px[i] != b.px[i] || a.py[i] != b.py[i] || a.pz[i] != b.pz[i] {
			t.Fatalf("position differs at particle %d: (%v,%v,%v) vs (%v,%v,%v)",
				i, a.px[i], a.py[i], a.pz[i], b.px[i], b.py[i], b.pz[i])
		}
		if a.vx[i] != b.vx[i] || a.vy[i] != b.vy[i] || a.vz[i] != b.vz[i] {
			t.Fatalf("velocity differs at particle %d", i)
		}
		if a.ax[i] != b.ax[i] || a.ay[i] != b.ay[i] || a.az[i] != b.az[i] {
			t.Fatalf("force differs at particle %d: (%v,%v,%v) vs (%v,%v,%v)",
				i, a.ax[i], a.ay[i], a.az[i], b.ax[i], b.ay[i], b.az[i])
		}
	}
}

func diffConfig(shape func(*Config), workers int) Config {
	cfg := baseConfig([3]int{2, 2, 2})
	cfg.DeterministicCost = true
	cfg.Workers = workers
	shape(&cfg)
	return cfg
}

// TestDifferentialTrajectories: per layout, the Workers=1 uninterrupted run
// is the baseline every other row must reproduce exactly — the worker pool
// (shared by the background PM solve and the tree walk), a State captured
// mid-run and resumed in a fresh world, and the sequential
// computePM(); computePP() order the overlapped windows replace.
func TestDifferentialTrajectories(t *testing.T) {
	parts := makeParticles(31, 240, 0.05)
	const steps, capAt = 4, 2
	for _, lay := range diffLayouts {
		t.Run(lay.name, func(t *testing.T) {
			base := runDiff(t, diffConfig(lay.shape, 1), parts, nil, oracle{}, steps, capAt)
			if base.overlap.HiddenSeconds < 0 || base.overlap.LastWindowSeconds <= 0 {
				t.Fatalf("production run recorded no overlapped window: %+v", base.overlap)
			}
			for _, tc := range []struct {
				name    string
				workers int
				resumed bool
				or      oracle
			}{
				{"fresh/workers=7", 7, false, oracle{}},
				{"resumed/workers=1", 1, true, oracle{}},
				{"resumed/workers=7", 7, true, oracle{}},
				{"sequential/workers=1", 1, false, oracle{sequential: true}},
				{"sequential/workers=7", 7, false, oracle{sequential: true}},
			} {
				t.Run(tc.name, func(t *testing.T) {
					var got diffRun
					if tc.resumed {
						got = runDiff(t, diffConfig(lay.shape, tc.workers), parts, base.states, tc.or, steps-capAt, -1)
					} else {
						got = runDiff(t, diffConfig(lay.shape, tc.workers), parts, nil, tc.or, steps, -1)
					}
					requireSameRun(t, base, got)
					if tc.or.sequential && got.overlap.LastWindowSeconds != 0 {
						t.Fatalf("sequential oracle recorded an overlapped window: %+v", got.overlap)
					}
				})
			}
		})
	}
}

// TestDifferentialForces: per layout and particle distribution, the
// production forces at fixed positions against the exact Ewald sum and
// against each layer's oracle. The bounds are the ones the per-PR parity
// tests carried: RMS 0.1 against Ewald (the facade-level tolerance), 1e-2
// between the LET and raw-ghost exchanges (the θ-error bound — LET monopoles
// pass the walk's own opening criterion against a distance lower bound), and
// 2% of the RMS error for the float32 kernel (measured at PR 7: 3.612130e-2
// vs 3.612128e-2 — its noise is buried under the θ-truncation error) and for
// the whole reference pipeline.
func TestDifferentialForces(t *testing.T) {
	for _, set := range []struct {
		name  string
		parts []Particle
	}{
		{"uniform", makeParticles(5, 200, 0)},
		{"clustered", plummerParticles(6, 200, 0.08)},
	} {
		n := len(set.parts)
		x, y, z, m := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for _, p := range set.parts {
			x[p.ID], y[p.ID], z[p.ID], m[p.ID] = p.X, p.Y, p.Z, p.M
		}
		ex, ey, ez := make([]float64, n), make([]float64, n), make([]float64, n)
		ewald.New(1, 1).Accel(x, y, z, m, ex, ey, ez)

		for _, lay := range diffLayouts {
			t.Run(set.name+"/"+lay.name, func(t *testing.T) {
				cfg := diffConfig(lay.shape, 1)
				vsEwald := func(or oracle) (diffRun, float64) {
					r := runDiff(t, cfg, set.parts, nil, or, 0, -1)
					return r, rmsDiff(r.ax, r.ay, r.az, ex, ey, ez)
				}
				prod, rmsProd := vsEwald(oracle{})
				_, rmsRef := vsEwald(allOracles)
				raw, _ := vsEwald(oracle{rawGhosts: true})
				_, rmsF64 := vsEwald(oracle{float64Walk: true})
				t.Logf("RMS vs Ewald: production %.6e, float64 walk %.6e, reference pipeline %.6e", rmsProd, rmsF64, rmsRef)

				if rmsProd > 0.1 {
					t.Errorf("production forces diverge from Ewald: RMS %v", rmsProd)
				}
				if math.Abs(rmsProd-rmsRef) > 0.02*rmsRef {
					t.Errorf("production pipeline moved the RMS force error off the reference pipeline's: %v vs %v", rmsProd, rmsRef)
				}
				if d := rmsDiff(prod.ax, prod.ay, prod.az, raw.ax, raw.ay, raw.az); d > 0.01 {
					t.Errorf("LET forces diverge from the raw-ghost oracle: RMS %v", d)
				}
				if math.Abs(rmsProd-rmsF64) > 0.02*rmsF64 {
					t.Errorf("float32 kernel moved the RMS force error: %v -> %v", rmsF64, rmsProd)
				}
			})
		}
	}
}

// TestKnobCensus pins the exported bool fields of the pipeline's option
// structs to an explicit allow-list: paper axes and ablations, plus the tree
// layer's single oracle selector, which no non-test file may set.
func TestKnobCensus(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want []string
	}{
		{Config{}, []string{"DeterministicCost", "Pencil", "Relay"}},
		{treepm.Config{}, []string{"NoDeconvolution", "SpectralPM"}},
		{pmpar.Config{}, []string{"Interleaved", "NoDeconvolve", "Pencil", "Relay"}},
		{tree.ForceOpts{}, []string{"Cutoff", "Float64Walk", "Periodic", "Quadrupole"}},
	} {
		typ := reflect.TypeOf(tc.v)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() && f.Type.Kind() == reflect.Bool {
				got = append(got, f.Name)
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v has bool fields %v, want %v: ROADMAP's \"one production pipeline\" rule — "+
				"a new switch must be a paper axis (then extend this list) or a test-only oracle behind Sim.oracle, never a pipeline option",
				typ, got, tc.want)
		}
	}
}
