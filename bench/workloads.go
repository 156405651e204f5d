package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"

	"greem/internal/cosmo"
	"greem/internal/ic"
	"greem/internal/sim"
	"greem/internal/vec"
)

const ranks = 8 // every workload runs on a 2×2×2 process grid

// workload is one seeded input set plus the sim.Config it runs under. np and
// nmesh are fields rather than constants so the smoke test can shrink every
// workload to 8³ particles while keeping its shape (FFT layout, stepper,
// cadence) intact.
type workload struct {
	name, why string
	np, nmesh int
	warm      int  // untimed steps after the cold one; ≥2 fills the 5-entry decomposition average (2 DD cycles per step)
	steps     int  // measured steps at least; the exact work counters cover exactly these
	setups    int  // timed set-ups per run, setup_s being their median; more where one is short
	cadence   int  // in-situ emission + checkpoint every cadence steps; 0 = never. 1+warm and steps are multiples of it, so a window ends on an emitting step
	static    bool // non-expanding box: the momentum blow-up guard applies

	generate func(seed int64, np int) ([]sim.Particle, error)
	shape    func(w *workload, cfg *sim.Config) // the workload's own Config fields
}

// workloads are the four final names; BENCHMARK.json and bench/README.md
// carry the same list.
func workloads() []*workload {
	return []*workload{
		{
			name: "clustered64", np: 64, nmesh: 64, warm: 3, steps: 10, setups: 3, static: true,
			why:      "deep clustered tree: walk + f32 kernel dominate, long lists, load balance matters, PM <8%",
			generate: clustered,
			shape:    func(w *workload, cfg *sim.Config) { cfg.DT = 0.005 },
		},
		{
			name: "uniform_mesh128", np: 48, nmesh: 128, warm: 3, steps: 24, setups: 3, static: true,
			why:      "mesh-heavy: slab PM, FFT and the large-message mesh all-to-all dominate, kernel ~7%",
			generate: func(seed int64, np int) ([]sim.Particle, error) { return uniform(seed, np, 0), nil },
			shape:    func(w *workload, cfg *sim.Config) { cfg.DT = 0.005 },
		},
		{
			name: "cosmo_relay64", np: 64, nmesh: 64, warm: 6, steps: 7, setups: 3, cadence: 7,
			why:      "production shape: Zel'dovich ICs, comoving stepper, relay mesh, in-situ analysis + checkpoints",
			generate: zeldovich,
			shape: func(w *workload, cfg *sim.Config) {
				model, aInit := cosmology()
				cfg.Stepper, cfg.Time, cfg.DT = model, aInit, aInit/4
				cfg.Relay, cfg.Groups, cfg.NFFT = true, 2, 4
				cfg.InSituEvery = w.cadence
			},
		},
		{
			name: "tiny_pencil16", np: 16, nmesh: 16, warm: 20, steps: 400, setups: 9, static: true,
			why:      "strong-scaling limit: ~900 messages of ~1 KB per step, pencil FFT, comm + sampling dominate",
			generate: func(seed int64, np int) ([]sim.Particle, error) { return uniform(seed, np, 0.5), nil },
			shape: func(w *workload, cfg *sim.Config) {
				cfg.DT = 0.01
				cfg.Pencil, cfg.PY, cfg.PZ = true, 2, 4
			},
		},
	}
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// config is the workload's exact sim.Config (Recorder left nil).
func (w *workload) config() sim.Config {
	cfg := productionConfig()
	cfg.NMesh = w.nmesh
	w.shape(w, &cfg)
	return cfg
}

// productionConfig is the common configuration with the production pipeline
// switched on. The four switches are set by field name so that a later PR
// which deletes them (making them the only path) still compiles this file and
// measures the same pipeline.
func productionConfig() sim.Config {
	cfg := sim.Config{
		L: 1, G: 1, Theta: 0.5, Ni: 100, Eps2: 1e-8,
		Grid: [3]int{2, 2, 2}, DeterministicCost: true,
	}
	for _, name := range []string{"Float32Kernel", "FastKernel", "LETExchange", "OverlapPMPP"} {
		setBoolIfPresent(&cfg, name)
	}
	return cfg
}

// setBoolIfPresent sets the named bool field of *cfg to true and skips a
// field the struct no longer has.
func setBoolIfPresent(cfg any, name string) {
	f := reflect.ValueOf(cfg).Elem().FieldByName(name)
	if f.IsValid() && f.Kind() == reflect.Bool && f.CanSet() {
		f.SetBool(true)
	}
}

// cosmology is the Einstein-de Sitter background of cosmo_relay64, started
// at z = 400 as in the paper.
func cosmology() (*cosmo.Model, float64) {
	return cosmo.EdS(cosmo.HubbleForBox(1, 1, 1, 1)), cosmo.ScaleFactor(400)
}

// clustered puts a quarter of the particles uniformly in the box and the rest
// in a σ = 0.02 Gaussian blob at its centre, at rest (the clusteredSet recipe
// of the root bench_test.go).
func clustered(seed int64, np int) ([]sim.Particle, error) {
	rng := rand.New(rand.NewSource(seed))
	n := np * np * np
	parts := make([]sim.Particle, n)
	for i := range parts {
		p := vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		if i%4 != 0 {
			p = vec.Wrap(vec.V3{
				X: 0.5 + 0.02*rng.NormFloat64(),
				Y: 0.5 + 0.02*rng.NormFloat64(),
				Z: 0.5 + 0.02*rng.NormFloat64(),
			}, 1)
		}
		parts[i] = sim.Particle{X: p.X, Y: p.Y, Z: p.Z, M: 1 / float64(n), ID: int64(i)}
	}
	return parts, nil
}

// uniform draws np³ uniform random positions with Gaussian velocities of
// dispersion sigmaV per axis (0 = at rest) and zero mean.
func uniform(seed int64, np int, sigmaV float64) []sim.Particle {
	rng := rand.New(rand.NewSource(seed))
	n := np * np * np
	parts := make([]sim.Particle, n)
	for i := range parts {
		parts[i] = sim.Particle{
			X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64(),
			M: 1 / float64(n), ID: int64(i),
		}
		if sigmaV > 0 {
			parts[i].VX, parts[i].VY, parts[i].VZ = sigmaV*rng.NormFloat64(), sigmaV*rng.NormFloat64(), sigmaV*rng.NormFloat64()
		}
	}
	// Equal masses: taking out the mean velocity leaves zero net momentum,
	// which the momentum guard of the oracle starts from.
	var mx, my, mz float64
	for _, p := range parts {
		mx, my, mz = mx+p.VX, my+p.VY, mz+p.VZ
	}
	for i := range parts {
		parts[i].VX -= mx / float64(n)
		parts[i].VY -= my / float64(n)
		parts[i].VZ -= mz / float64(n)
	}
	return parts
}

// zeldovich is the paper's initial condition at laptop scale: a np³ lattice
// displaced by a free-streaming-damped Gaussian field.
func zeldovich(seed int64, np int) ([]sim.Particle, error) {
	model, aInit := cosmology()
	return ic.Generate(ic.Config{
		NP: np, NGrid: np, L: 1, Seed: seed, Model: model, AInit: aInit, TotalMass: 1,
		PS: ic.NeutralinoCutoff{N: 0, Amp: 5e-5, KCut: 2 * math.Pi * float64(np) / 8},
	})
}
