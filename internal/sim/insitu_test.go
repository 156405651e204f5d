package sim

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"greem/internal/analysis"
	"greem/internal/mpi"
)

// clusteredParticles builds a Plummer-like IC: Gaussian clusters (wrapped
// into the periodic box, so halos straddle rank and box boundaries) over a
// uniform background, cold (zero velocities keep the clusters bound over a
// few steps).
func clusteredParticles(seed int64, nclust, perClust, background int) []Particle {
	rng := rand.New(rand.NewSource(seed))
	wrap := func(v float64) float64 {
		v -= math.Floor(v)
		if v >= 1 {
			v = 0
		}
		return v
	}
	var out []Particle
	add := func(x, y, z float64) {
		out = append(out, Particle{X: x, Y: y, Z: z, ID: int64(len(out))})
	}
	for c := 0; c < nclust; c++ {
		cx, cy, cz := rng.Float64(), rng.Float64(), rng.Float64()
		for i := 0; i < perClust; i++ {
			add(wrap(cx+0.02*rng.NormFloat64()), wrap(cy+0.02*rng.NormFloat64()), wrap(cz+0.02*rng.NormFloat64()))
		}
	}
	for i := 0; i < background; i++ {
		add(rng.Float64(), rng.Float64(), rng.Float64())
	}
	n := len(out)
	for i := range out {
		out[i].M = 1.0 / float64(n)
	}
	return out
}

// insituRun steps an 8-rank sim to completion and returns rank 0's last
// in-situ emission plus the gathered, ID-sorted final particle state and
// final time. With resumeAt > 0 the world is torn down mid-run via
// State/Resume to prove the emission is restart-invariant.
func insituRun(t *testing.T, cfg Config, parts []Particle, steps, resumeAt int) (*InSituResult, []Particle, float64) {
	t.Helper()
	var res *InSituResult
	var all []Particle
	var tEnd float64
	err := mpi.Run(8, func(c *mpi.Comm) {
		resume := resumeAt // per-rank copy: the ranks share this closure
		s, err := New(c, cfg, sliceFor(parts, c.Rank(), 8))
		if err != nil {
			panic(err)
		}
		for s.StepIndex() < steps {
			if resume > 0 && s.StepIndex() == resume {
				st := s.State()
				s.Close()
				if s, err = Resume(c, cfg, st); err != nil {
					panic(err)
				}
				resume = 0
			}
			if err := s.Step(); err != nil {
				panic(err)
			}
		}
		got := s.GatherAll(0)
		if c.Rank() == 0 {
			res = s.InSituProducts()
			all = got
			sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
			tEnd = s.Time()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, all, tEnd
}

// TestDistFoFParity is the sim-level parity gate: the in-situ distributed
// FoF catalog emitted at the final step must be byte-identical to the serial
// finder run post hoc on the gathered, ID-sorted particle state — on
// clustered and uniform ICs, at Workers 1 and 7 (whose trajectories are
// bit-identical), and across a mid-run State/Resume cycle.
func TestDistFoFParity(t *testing.T) {
	const steps = 4
	cfg := baseConfig([3]int{2, 2, 2})
	cfg.DeterministicCost = true
	cfg.InSituEvery = 2
	cfg.InSituFinalStep = steps
	cfg.InSituLL = 0.03
	cfg.InSituMinSize = 4
	cfg.InSituBins = -1 // this test is about the catalog
	cfg.InSituPix = -1

	for _, tc := range []struct {
		name  string
		parts []Particle
	}{
		{"clustered", clusteredParticles(3, 6, 60, 200)},
		{"uniform", makeParticles(4, 500, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var first []byte
			for _, workers := range []int{1, 7} {
				wcfg := cfg
				wcfg.Workers = workers
				res, all, tEnd := insituRun(t, wcfg, tc.parts, steps, 0)
				if res == nil || res.Catalog == nil {
					t.Fatal("no in-situ catalog emitted")
				}
				if res.Step != steps {
					t.Fatalf("last emission at step %d, want %d", res.Step, steps)
				}

				// Serial oracle on the gathered, ID-sorted state.
				n := len(all)
				x, y, z, m := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
				for i, p := range all {
					x[i], y[i], z[i], m[i] = p.X, p.Y, p.Z, p.M
				}
				groups := analysis.FoF(x, y, z, cfg.L, res.LinkLen, res.MinSize)
				halos := analysis.Catalog(x, y, z, m, cfg.L, groups)
				want, err := analysis.EncodeCatalog(analysis.CatalogFile{
					Format: 1, L: cfg.L, Time: tEnd, Step: uint64(steps),
					LinkingLength: res.LinkLen, MinSize: res.MinSize, Halos: halos,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, res.Catalog) {
					t.Fatalf("workers=%d: in-situ catalog differs from serial post-hoc:\nserial:  %s\nin-situ: %s",
						workers, want, res.Catalog)
				}
				if first == nil {
					first = res.Catalog
				} else if !bytes.Equal(first, res.Catalog) {
					t.Fatalf("workers=%d catalog differs from workers=1", workers)
				}
			}

			// Resume leg: tearing the world down at step 2 and resuming must
			// reproduce the same final catalog bit for bit.
			res, _, _ := insituRun(t, cfg, tc.parts, steps, 2)
			if res == nil || !bytes.Equal(first, res.Catalog) {
				t.Fatal("catalog after State/Resume differs from the uninterrupted run")
			}
		})
	}
}

// pkConfig parameterizes one PM layout of the P(k) parity matrix.
func pkConfig(base Config, mode string) Config {
	cfg := base
	switch mode {
	case "relay":
		cfg.Relay = true
		cfg.Groups = 2
		cfg.NFFT = 4 // groups of 4 ranks each hold 4 slabs
	case "pencil":
		cfg.Pencil = true
		cfg.PY = 2
		cfg.PZ = 2
	}
	return cfg
}

// TestInSituPkMatchesPostHoc checks the on-the-fly spectrum against the
// serial post-hoc pipeline on every distributed FFT layout: k bins and mode
// counts bitwise identical, power within 1e-12 relative per bin, and the
// canonical encodings byte-identical (both paths quantize through
// CanonicalP).
func TestInSituPkMatchesPostHoc(t *testing.T) {
	const steps = 2
	parts := makeParticles(9, 400, 0)
	base := baseConfig([3]int{2, 2, 2})
	base.DeterministicCost = true
	base.InSituEvery = steps
	base.InSituFinalStep = steps
	base.InSituLL = -1 // FoF off: this test is about the spectrum
	base.InSituPix = -1
	base.InSituBins = 16

	for _, mode := range []string{"naive", "relay", "pencil"} {
		t.Run(mode, func(t *testing.T) {
			cfg := pkConfig(base, mode)
			res, all, tEnd := insituRun(t, cfg, parts, steps, 0)
			if res == nil || res.Power == nil {
				t.Fatal("no in-situ spectrum emitted")
			}

			n := len(all)
			x, y, z, m := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
			for i, p := range all {
				x[i], y[i], z[i], m[i] = p.X, p.Y, p.Z, p.M
			}
			ks, ps, counts, err := analysis.PowerSpectrum(x, y, z, m, cfg.NMesh, cfg.L, 16)
			if err != nil {
				t.Fatal(err)
			}
			if len(ks) != len(res.Ks) {
				t.Fatalf("bin count differs: serial %d, in-situ %d", len(ks), len(res.Ks))
			}
			for i := range ks {
				if ks[i] != res.Ks[i] {
					t.Fatalf("bin %d: k differs bitwise: serial %v, in-situ %v", i, ks[i], res.Ks[i])
				}
				if counts[i] != res.Counts[i] {
					t.Fatalf("bin %d: mode count differs: serial %d, in-situ %d", i, counts[i], res.Counts[i])
				}
				if rel := math.Abs(res.Ps[i]-ps[i]) / math.Abs(ps[i]); rel > 1e-12 {
					t.Fatalf("bin %d: P differs by %.3e relative (serial %v, in-situ %v)", i, rel, ps[i], res.Ps[i])
				}
			}
			want, err := analysis.EncodePower(analysis.PowerFile{
				Format: 1, L: cfg.L, Time: tEnd, Step: uint64(steps),
				NMesh: cfg.NMesh, NBins: 16, K: ks, P: analysis.CanonicalP(ps), Count: counts,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, res.Power) {
				t.Fatalf("canonical spectrum encodings differ:\nserial:  %s\nin-situ: %s", want, res.Power)
			}
			if res.Shot != analysis.ShotNoise(cfg.L, int64(n)) {
				t.Fatalf("shot noise %v, want %v", res.Shot, analysis.ShotNoise(cfg.L, int64(n)))
			}
		})
	}
}

// TestInSituPkNoExtraAlltoall asserts the zero-extra-FFT contract on the
// traffic ledger: with only the spectrum tap enabled (FoF and projection
// off), the in-situ pass adds not a single Alltoallv byte over the identical
// run with in-situ analysis disabled — the tap rides the PM solve's own
// transposes; the bin reduction is a tree Allreduce.
func TestInSituPkNoExtraAlltoall(t *testing.T) {
	parts := makeParticles(13, 300, 0)
	run := func(insitu bool) mpi.OpTotals {
		cfg := baseConfig([3]int{2, 2, 2})
		cfg.DeterministicCost = true
		if insitu {
			cfg.InSituEvery = 1
			cfg.InSituFinalStep = 2
			cfg.InSituLL = -1 // FoF legitimately uses all-to-all; keep it out
			cfg.InSituPix = -1
		}
		var tot mpi.OpTotals
		err := mpi.Run(8, func(c *mpi.Comm) {
			s, err := New(c, cfg, sliceFor(parts, c.Rank(), 8))
			if err != nil {
				panic(err)
			}
			for s.StepIndex() < 2 {
				if err := s.Step(); err != nil {
					panic(err)
				}
			}
			c.Barrier()
			if c.Rank() == 0 {
				tot = c.Traffic().TotalsByOp()["Alltoallv"]
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return tot
	}
	off := run(false)
	on := run(true)
	if on.Bytes != off.Bytes || on.Ops != off.Ops {
		t.Fatalf("in-situ P(k) added all-to-all traffic: off %+v, on %+v", off, on)
	}
	if off.Bytes == 0 {
		t.Fatal("baseline recorded no all-to-all traffic — ledger assertion is vacuous")
	}
}
