package pmpar

import (
	"testing"

	"greem/internal/mpi"
)

// TestExchangePackZeroAllocs is the regression test for the per-step
// send-buffer allocations the conversions used to make: after one warm-up
// cycle, packing density and potential must not allocate.
func TestExchangePackZeroAllocs(t *testing.T) {
	x, y, z, m, geo, owner := makeSystem(14, 200, 2, 2, 1)
	cfg := Config{N: 8, L: 1, G: 1, Rcut: 3.0 / 8, NFFT: 4}
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
		ax := make([]float64, len(ids))
		ay := make([]float64, len(ids))
		az := make([]float64, len(ids))
		s.Accel(lx, ly, lz, lm, ax, ay, az) // warm up all buffers
		if allocs := testing.AllocsPerRun(10, func() { s.packDensity() }); allocs != 0 {
			t.Errorf("rank %d: packDensity allocates %v times per run", c.Rank(), allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() { s.packPotential() }); allocs != 0 {
			t.Errorf("rank %d: packPotential allocates %v times per run", c.Rank(), allocs)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRealReducesAlltoallBytes: at the full solver level the r2c solve's FFT
// transposes must carry exactly (n/2+1)/n of a complex transform's closed-form
// byte count — four transposes (forward and inverse each go to y-slabs and
// back) of n³ complex128, of which (p−1)/p cross ranks.
// NFFT = 4 on 8 ranks isolates the transposes in the ledger: they are the
// only all-to-alls on a 4-rank communicator (the window conversions run on
// the world).
func TestRealReducesAlltoallBytes(t *testing.T) {
	const n, nfft = 16, 4
	x, y, z, m, geo, owner := makeSystem(15, 300, 2, 2, 2)
	cfg := Config{N: n, L: 1, G: 1, Rcut: 3.0 / n, NFFT: nfft}
	var transposes int64
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
		ax := make([]float64, len(ids))
		ay := make([]float64, len(ids))
		az := make([]float64, len(ids))
		c.Traffic().Reset()
		s.Accel(lx, ly, lz, lm, ax, ay, az)
		c.Barrier()
		if c.Rank() == 0 {
			for _, op := range c.Traffic().Ops() {
				if op.Name == "Alltoallv" && op.CommSize == nfft {
					for _, msg := range op.Msgs {
						transposes += int64(msg.Bytes)
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	const complexBytes = 4 * n * n * n * 16 * (nfft - 1) / nfft
	if want := int64(complexBytes * (n/2 + 1) / n); transposes != want {
		t.Errorf("r2c transposes moved %d bytes, want %d = (n/2+1)/n of the complex %d", transposes, want, complexBytes)
	}
}
