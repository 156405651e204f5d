package pmpar

import (
	"math"
	"math/rand"
	"testing"

	"greem/internal/domain"
	"greem/internal/mesh"
	"greem/internal/mpi"
	"greem/internal/vec"
)

// makeSystem builds a random particle set and a uniform nx×ny×nz domain
// decomposition, returning per-rank particle index lists.
func makeSystem(seed int64, n int, nx, ny, nz int) (x, y, z, m []float64, geo *domain.Geometry, owner [][]int) {
	rng := rand.New(rand.NewSource(seed))
	x = make([]float64, n)
	y = make([]float64, n)
	z = make([]float64, n)
	m = make([]float64, n)
	for i := 0; i < n; i++ {
		x[i], y[i], z[i] = rng.Float64(), rng.Float64(), rng.Float64()
		m[i] = rng.Float64() + 0.5
	}
	geo = domain.Uniform(nx, ny, nz, 1.0)
	owner = make([][]int, geo.NumDomains())
	for i := 0; i < n; i++ {
		r := geo.Find(vec.V3{X: x[i], Y: y[i], Z: z[i]})
		owner[r] = append(owner[r], i)
	}
	return
}

// runParallelPM executes the distributed PM and scatters accelerations back
// into global arrays.
func runParallelPM(t *testing.T, cfg Config, x, y, z, m []float64, geo *domain.Geometry, owner [][]int) (ax, ay, az []float64) {
	t.Helper()
	n := len(x)
	ax = make([]float64, n)
	ay = make([]float64, n)
	az = make([]float64, n)
	err := mpi.Run(geo.NumDomains(), func(c *mpi.Comm) {
		lo, hi := geo.Bounds(c.Rank())
		s, err := New(c, cfg, lo, hi)
		if err != nil {
			panic(err)
		}
		ids := owner[c.Rank()]
		lx := make([]float64, len(ids))
		ly := make([]float64, len(ids))
		lz := make([]float64, len(ids))
		lm := make([]float64, len(ids))
		for k, id := range ids {
			lx[k], ly[k], lz[k], lm[k] = x[id], y[id], z[id], m[id]
		}
		lax := make([]float64, len(ids))
		lay := make([]float64, len(ids))
		laz := make([]float64, len(ids))
		s.Accel(lx, ly, lz, lm, lax, lay, laz)
		c.Barrier()
		for k, id := range ids {
			ax[id], ay[id], az[id] = lax[k], lay[k], laz[k]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return
}

func serialPM(t *testing.T, nmesh int, rcut float64, x, y, z, m []float64) (ax, ay, az []float64) {
	t.Helper()
	pm, err := mesh.New(nmesh, 1, 1, rcut)
	if err != nil {
		t.Fatal(err)
	}
	n := len(x)
	ax = make([]float64, n)
	ay = make([]float64, n)
	az = make([]float64, n)
	pm.Accel(x, y, z, m, ax, ay, az)
	return
}

func maxRelDiff(a1, a2, b1, b2, c1, c2 []float64) float64 {
	var scale float64
	for i := range a1 {
		scale = math.Max(scale, math.Abs(a1[i])+math.Abs(b1[i])+math.Abs(c1[i]))
	}
	if scale == 0 {
		scale = 1
	}
	var worst float64
	for i := range a1 {
		d := math.Abs(a1[i]-a2[i]) + math.Abs(b1[i]-b2[i]) + math.Abs(c1[i]-c2[i])
		worst = math.Max(worst, d/scale)
	}
	return worst
}

func TestNaiveMatchesSerial(t *testing.T) {
	nmesh := 16
	rcut := 3.0 / 16
	x, y, z, m, geo, owner := makeSystem(1, 300, 2, 2, 2)
	cfg := Config{N: nmesh, L: 1, G: 1, Rcut: rcut, NFFT: 4}
	ax, ay, az := runParallelPM(t, cfg, x, y, z, m, geo, owner)
	sx, sy, sz := serialPM(t, nmesh, rcut, x, y, z, m)
	if d := maxRelDiff(sx, ax, sy, ay, sz, az); d > 1e-11 {
		t.Errorf("naive parallel PM differs from serial by %v", d)
	}
}

func TestRelayMatchesSerial(t *testing.T) {
	nmesh := 16
	rcut := 3.0 / 16
	x, y, z, m, geo, owner := makeSystem(2, 300, 2, 2, 2) // p = 8
	cfg := Config{N: nmesh, L: 1, G: 1, Rcut: rcut, NFFT: 4, Relay: true, Groups: 2}
	ax, ay, az := runParallelPM(t, cfg, x, y, z, m, geo, owner)
	sx, sy, sz := serialPM(t, nmesh, rcut, x, y, z, m)
	if d := maxRelDiff(sx, ax, sy, ay, sz, az); d > 1e-11 {
		t.Errorf("relay parallel PM differs from serial by %v", d)
	}
}

func TestRelayEqualsNaive(t *testing.T) {
	nmesh := 16
	rcut := 3.0 / 16
	x, y, z, m, geo, owner := makeSystem(3, 500, 3, 2, 2) // p = 12
	axN, ayN, azN := runParallelPM(t, Config{N: nmesh, L: 1, G: 1, Rcut: rcut, NFFT: 4}, x, y, z, m, geo, owner)
	axR, ayR, azR := runParallelPM(t, Config{N: nmesh, L: 1, G: 1, Rcut: rcut, NFFT: 4, Relay: true, Groups: 3}, x, y, z, m, geo, owner)
	if d := maxRelDiff(axN, axR, ayN, ayR, azN, azR); d > 1e-11 {
		t.Errorf("relay differs from naive by %v", d)
	}
}

func TestRelaySingleGroupDegeneratesToNaive(t *testing.T) {
	nmesh := 16
	rcut := 3.0 / 16
	x, y, z, m, geo, owner := makeSystem(4, 200, 2, 2, 1)
	axN, ayN, azN := runParallelPM(t, Config{N: nmesh, L: 1, G: 1, Rcut: rcut, NFFT: 2}, x, y, z, m, geo, owner)
	axR, ayR, azR := runParallelPM(t, Config{N: nmesh, L: 1, G: 1, Rcut: rcut, NFFT: 2, Relay: true, Groups: 1}, x, y, z, m, geo, owner)
	if d := maxRelDiff(axN, axR, ayN, ayR, azN, azR); d > 1e-12 {
		t.Errorf("single-group relay differs from naive by %v", d)
	}
}

func TestFig5Configuration(t *testing.T) {
	// Paper Fig. 5: 36 processes (6×6 in 2-D), N_PM = 8³, 8 FFT processes,
	// 4 groups of 9. We decompose 6×6×1 and verify against the serial PM.
	nmesh := 8
	rcut := 3.0 / 8
	x, y, z, m, geo, owner := makeSystem(5, 600, 6, 6, 1)
	cfg := Config{N: nmesh, L: 1, G: 1, Rcut: rcut, NFFT: 8, Relay: true, Groups: 4}
	ax, ay, az := runParallelPM(t, cfg, x, y, z, m, geo, owner)
	sx, sy, sz := serialPM(t, nmesh, rcut, x, y, z, m)
	if d := maxRelDiff(sx, ax, sy, ay, sz, az); d > 1e-11 {
		t.Errorf("Fig. 5 configuration differs from serial by %v", d)
	}
}

func TestAdaptiveDomainsMatchSerial(t *testing.T) {
	// Non-uniform (sampled) domains exercise windows of unequal size and
	// wrapped ghost ranges.
	rng := rand.New(rand.NewSource(6))
	n := 400
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	m := make([]float64, n)
	pts := make([]vec.V3, n)
	for i := 0; i < n; i++ {
		// clumped distribution
		if i%2 == 0 {
			x[i], y[i], z[i] = rng.Float64(), rng.Float64(), rng.Float64()
		} else {
			p := vec.Wrap(vec.V3{X: 0.1 + 0.05*rng.NormFloat64(), Y: 0.9 + 0.05*rng.NormFloat64(), Z: 0.5 + 0.05*rng.NormFloat64()}, 1)
			x[i], y[i], z[i] = p.X, p.Y, p.Z
		}
		m[i] = 1
		pts[i] = vec.V3{X: x[i], Y: y[i], Z: z[i]}
	}
	geo, err := domain.FromSamples(2, 2, 2, 1, append([]vec.V3(nil), pts...))
	if err != nil {
		t.Fatal(err)
	}
	owner := make([][]int, geo.NumDomains())
	for i := 0; i < n; i++ {
		r := geo.Find(pts[i])
		owner[r] = append(owner[r], i)
	}
	cfg := Config{N: 16, L: 1, G: 1, Rcut: 3.0 / 16, NFFT: 4, Relay: true, Groups: 2}
	ax, ay, az := runParallelPM(t, cfg, x, y, z, m, geo, owner)
	sx, sy, sz := serialPM(t, 16, 3.0/16, x, y, z, m)
	if d := maxRelDiff(sx, ax, sy, ay, sz, az); d > 1e-11 {
		t.Errorf("adaptive-domain PM differs from serial by %v", d)
	}
}

func TestRelayReducesIncast(t *testing.T) {
	// The point of the relay mesh: the maximum number of distinct senders
	// into any single FFT process in one conversion drops from ~p to the
	// group size.
	nmesh := 16
	rcut := 3.0 / 16
	x, y, z, m, geo, owner := makeSystem(7, 800, 4, 2, 2) // p = 16
	incast := func(cfg Config) int {
		var ops []mpi.Op
		n := len(x)
		_ = n
		err := mpi.Run(geo.NumDomains(), func(c *mpi.Comm) {
			lo, hi := geo.Bounds(c.Rank())
			s, err := New(c, cfg, lo, hi)
			if err != nil {
				panic(err)
			}
			c.Traffic().Reset()
			ids := owner[c.Rank()]
			lx := make([]float64, len(ids))
			ly := make([]float64, len(ids))
			lz := make([]float64, len(ids))
			lm := make([]float64, len(ids))
			for k, id := range ids {
				lx[k], ly[k], lz[k], lm[k] = x[id], y[id], z[id], m[id]
			}
			la := make([]float64, len(ids))
			lb := make([]float64, len(ids))
			lc := make([]float64, len(ids))
			s.Accel(lx, ly, lz, lm, la, lb, lc)
			c.Barrier()
			if c.Rank() == 0 {
				ops = c.Traffic().Ops()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		// Max distinct senders to any destination within a single Alltoallv.
		worst := 0
		for _, op := range ops {
			if op.Name != "Alltoallv" {
				continue
			}
			senders := map[int]map[int]bool{}
			for _, msg := range op.Msgs {
				if senders[msg.Dst] == nil {
					senders[msg.Dst] = map[int]bool{}
				}
				senders[msg.Dst][msg.Src] = true
			}
			for _, set := range senders {
				if len(set) > worst {
					worst = len(set)
				}
			}
		}
		return worst
	}
	naive := incast(Config{N: nmesh, L: 1, G: 1, Rcut: rcut, NFFT: 4})
	relay := incast(Config{N: nmesh, L: 1, G: 1, Rcut: rcut, NFFT: 4, Relay: true, Groups: 4})
	t.Logf("max senders per destination: naive=%d relay=%d", naive, relay)
	if relay >= naive {
		t.Errorf("relay incast %d not smaller than naive %d", relay, naive)
	}
}

func TestNewValidation(t *testing.T) {
	err := mpi.Run(4, func(c *mpi.Comm) {
		lo, hi := vec.V3{}, vec.V3{X: 0.5, Y: 0.5, Z: 0.5}
		if _, err := New(c, Config{N: 16, L: 1, G: 1, Rcut: 0.2, NFFT: 5}, lo, hi); err == nil {
			panic("NFFT > p accepted")
		}
		if _, err := New(c, Config{N: 2, L: 1, G: 1, Rcut: 0.2, NFFT: 4}, lo, hi); err == nil {
			panic("NFFT > N accepted")
		}
		if _, err := New(c, Config{N: 16, L: 1, G: 1, Rcut: 0.2, NFFT: 4, Relay: true, Groups: 3}, lo, hi); err == nil {
			panic("groups smaller than NFFT accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTimingsAccumulate(t *testing.T) {
	x, y, z, m, geo, owner := makeSystem(8, 100, 2, 1, 1)
	var total Timings
	err := mpi.Run(2, func(c *mpi.Comm) {
		lo, hi := geo.Bounds(c.Rank())
		s, err := New(c, Config{N: 8, L: 1, G: 1, Rcut: 3.0 / 8, NFFT: 2}, lo, hi)
		if err != nil {
			panic(err)
		}
		ids := owner[c.Rank()]
		lx := make([]float64, len(ids))
		ly := make([]float64, len(ids))
		lz := make([]float64, len(ids))
		lm := make([]float64, len(ids))
		for k, id := range ids {
			lx[k], ly[k], lz[k], lm[k] = x[id], y[id], z[id], m[id]
		}
		la := make([]float64, len(ids))
		lb := make([]float64, len(ids))
		lc := make([]float64, len(ids))
		s.Accel(lx, ly, lz, lm, la, lb, lc)
		if c.Rank() == 0 {
			total = s.Times
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Total() <= 0 || total.Density <= 0 || total.Comm <= 0 {
		t.Errorf("timings not populated: %+v", total)
	}
}

func TestLocalMeshMassConservation(t *testing.T) {
	lm, err := NewLocalMesh(16, 1, vec.V3{X: 0.25, Y: 0.25, Z: 0.25}, vec.V3{X: 0.5, Y: 0.5, Z: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, 0.49, 0.251}
	y := []float64{0.26, 0.4, 0.3}
	z := []float64{0.45, 0.33, 0.26}
	m := []float64{1, 2, 3}
	lm.AssignTSC(x, y, z, m)
	var sum float64
	for _, v := range lm.Rho {
		sum += v
	}
	sum *= lm.H * lm.H * lm.H
	if math.Abs(sum-6) > 1e-12 {
		t.Errorf("assigned mass %v, want 6", sum)
	}
}

func TestAxisSegs(t *testing.T) {
	axisSegs := func(origin, extent, n int) []seg {
		segs, count := axisSegs(origin, extent, n)
		return segs[:count]
	}
	// In-range window: one segment.
	s := axisSegs(3, 4, 16)
	if len(s) != 1 || s[0] != (seg{g0: 3, l0: 0, n: 4}) {
		t.Errorf("in-range: %+v", s)
	}
	// Negative origin wraps into two segments.
	s = axisSegs(-2, 6, 16)
	if len(s) != 2 || s[0] != (seg{g0: 14, l0: 0, n: 2}) || s[1] != (seg{g0: 0, l0: 2, n: 4}) {
		t.Errorf("neg origin: %+v", s)
	}
	// Overflowing window wraps at the top.
	s = axisSegs(14, 5, 16)
	if len(s) != 2 || s[0] != (seg{g0: 14, l0: 0, n: 2}) || s[1] != (seg{g0: 0, l0: 2, n: 3}) {
		t.Errorf("overflow: %+v", s)
	}
	// Full axis.
	s = axisSegs(0, 16, 16)
	if len(s) != 1 || s[0] != (seg{g0: 0, l0: 0, n: 16}) {
		t.Errorf("full: %+v", s)
	}
}

func TestRelayInterleavedMatchesNaive(t *testing.T) {
	nmesh := 16
	rcut := 3.0 / 16
	x, y, z, m, geo, owner := makeSystem(9, 400, 4, 2, 2) // p = 16
	axN, ayN, azN := runParallelPM(t, Config{N: nmesh, L: 1, G: 1, Rcut: rcut, NFFT: 4}, x, y, z, m, geo, owner)
	axI, ayI, azI := runParallelPM(t, Config{N: nmesh, L: 1, G: 1, Rcut: rcut, NFFT: 4, Relay: true, Groups: 4, Interleaved: true}, x, y, z, m, geo, owner)
	if d := maxRelDiff(axN, axI, ayN, ayI, azN, azI); d > 1e-11 {
		t.Errorf("interleaved relay differs from naive by %v", d)
	}
}

func TestGroupOf(t *testing.T) {
	// Contiguous: ranks 0..5 over 2 groups → 000111; interleaved → 010101.
	wantC := []int{0, 0, 0, 1, 1, 1}
	wantI := []int{0, 1, 0, 1, 0, 1}
	for w := 0; w < 6; w++ {
		if g := groupOf(w, 6, 2, false); g != wantC[w] {
			t.Errorf("contiguous groupOf(%d) = %d, want %d", w, g, wantC[w])
		}
		if g := groupOf(w, 6, 2, true); g != wantI[w] {
			t.Errorf("interleaved groupOf(%d) = %d, want %d", w, g, wantI[w])
		}
	}
}

func TestPencilMatchesSerial(t *testing.T) {
	nmesh := 16
	rcut := 3.0 / 16
	x, y, z, m, geo, owner := makeSystem(10, 300, 2, 2, 2)
	cfg := Config{N: nmesh, L: 1, G: 1, Rcut: rcut, Pencil: true, PY: 2, PZ: 2}
	ax, ay, az := runParallelPM(t, cfg, x, y, z, m, geo, owner)
	sx, sy, sz := serialPM(t, nmesh, rcut, x, y, z, m)
	if d := maxRelDiff(sx, ax, sy, ay, sz, az); d > 1e-11 {
		t.Errorf("pencil PM differs from serial by %v", d)
	}
}

func TestPencilRelayMatchesSerial(t *testing.T) {
	// The paper's §IV combination: relay mesh + 2-D parallel FFT.
	nmesh := 16
	rcut := 3.0 / 16
	x, y, z, m, geo, owner := makeSystem(11, 400, 3, 2, 2) // p = 12
	cfg := Config{N: nmesh, L: 1, G: 1, Rcut: rcut, Pencil: true, PY: 2, PZ: 2, Relay: true, Groups: 3}
	ax, ay, az := runParallelPM(t, cfg, x, y, z, m, geo, owner)
	sx, sy, sz := serialPM(t, nmesh, rcut, x, y, z, m)
	if d := maxRelDiff(sx, ax, sy, ay, sz, az); d > 1e-11 {
		t.Errorf("pencil+relay PM differs from serial by %v", d)
	}
}

func TestPencilBreaksSlabLimit(t *testing.T) {
	// The point of §IV: more FFT processes than mesh planes. An 8³ mesh can
	// use at most 8 slab processes, but 4×4 = 16 pencil processes work.
	nmesh := 8
	rcut := 3.0 / 8
	x, y, z, m, geo, owner := makeSystem(12, 400, 4, 2, 2) // p = 16
	if _, err := NewLocalMesh(nmesh, 1, vec.V3{}, vec.V3{X: 0.25, Y: 0.5, Z: 0.5}); err != nil {
		t.Fatal(err)
	}
	slabCfg := Config{N: nmesh, L: 1, G: 1, Rcut: rcut, NFFT: 16}
	err := mpi.Run(16, func(c *mpi.Comm) {
		lo, hi := geo.Bounds(c.Rank())
		if _, err := New(c, slabCfg, lo, hi); err == nil {
			panic("slab mode accepted NFFT=16 > N=8")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: nmesh, L: 1, G: 1, Rcut: rcut, Pencil: true, PY: 4, PZ: 4}
	ax, ay, az := runParallelPM(t, cfg, x, y, z, m, geo, owner)
	sx, sy, sz := serialPM(t, nmesh, rcut, x, y, z, m)
	if d := maxRelDiff(sx, ax, sy, ay, sz, az); d > 1e-11 {
		t.Errorf("16-process pencil PM on 8³ mesh differs from serial by %v", d)
	}
}

func TestPencilValidationInSolver(t *testing.T) {
	err := mpi.Run(4, func(c *mpi.Comm) {
		lo, hi := vec.V3{}, vec.V3{X: 0.5, Y: 0.5, Z: 0.5}
		if _, err := New(c, Config{N: 16, L: 1, G: 1, Rcut: 0.2, Pencil: true, PY: 0, PZ: 2}, lo, hi); err == nil {
			panic("PY=0 accepted")
		}
		if _, err := New(c, Config{N: 16, L: 1, G: 1, Rcut: 0.2, Pencil: true, PY: 3, PZ: 2}, lo, hi); err == nil {
			panic("PY*PZ > ranks accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorkersMatchSerialPM(t *testing.T) {
	nmesh := 16
	rcut := 3.0 / 16
	x, y, z, m, geo, owner := makeSystem(13, 300, 2, 2, 1)
	a1, b1, c1 := runParallelPM(t, Config{N: nmesh, L: 1, G: 1, Rcut: rcut, NFFT: 4}, x, y, z, m, geo, owner)
	a2, b2, c2 := runParallelPM(t, Config{N: nmesh, L: 1, G: 1, Rcut: rcut, NFFT: 4, Workers: 4}, x, y, z, m, geo, owner)
	for i := range a1 {
		if a1[i] != a2[i] || b1[i] != b2[i] || c1[i] != c2[i] {
			t.Fatalf("threaded PM differs at %d", i)
		}
	}
}
