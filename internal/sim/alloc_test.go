package sim

import (
	"runtime"
	"testing"

	"greem/internal/mpi"
)

// TestWarmStepAllocBudget holds a warm 8-rank step to a bytes-per-step
// budget, so that an allocation regression in the substep path (the PM solver
// rebuilt per decomposition, particles round-tripped through fresh staging,
// collectives copying into fresh buffers — 21.5 MB per step at this size
// before they were made persistent) fails here and not only in
// `go run ./bench`. What remains, 0.1 MB, is bookkeeping: the traffic
// ledger's per-op message lists, a board per collective, the sampled
// geometry; the budget leaves room for a mesh window (0.55 MB) or the
// particle arrays creeping up to a new high-water mark inside the window.
func TestWarmStepAllocBudget(t *testing.T) {
	const (
		warm, measured = 4, 4
		budget         = 1 << 20 // bytes per step, all eight ranks together
	)
	parts := makeParticles(21, 16*16*16, 0.05)
	cfg := baseConfig([3]int{2, 2, 2})
	cfg.NMesh = 32
	cfg.DeterministicCost = true
	var perStep uint64
	err := mpi.Run(8, func(c *mpi.Comm) {
		s, err := New(c, cfg, sliceFor(parts, c.Rank(), 8))
		if err != nil {
			panic(err)
		}
		defer s.Close()
		step := func(n int) {
			for i := 0; i < n; i++ {
				if err := s.Step(); err != nil {
					panic(err)
				}
			}
		}
		step(warm)
		// Two barriers fence each reading: no rank is inside a step while
		// rank 0 reads the process-wide counter.
		var m0, m1 runtime.MemStats
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m0)
		}
		c.Barrier()
		step(measured)
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m1)
			perStep = (m1.TotalAlloc - m0.TotalAlloc) / measured
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("warm step allocates %d bytes on 8 ranks (budget %d)", perStep, budget)
	if perStep > budget {
		t.Errorf("warm step allocates %d bytes on 8 ranks, budget %d", perStep, budget)
	}
}
