package sim

import (
	"testing"

	"greem/internal/mpi"
	"greem/internal/telemetry"
)

// TestPoolTelemetryRecorded: with a parallel pool the per-phase busy
// counters must accumulate (they feed the imb(intra) column of tableone),
// and the serial run must leave them untouched.
func TestPoolTelemetryRecorded(t *testing.T) {
	for _, w := range []int{1, 3} {
		cfg := baseConfig([3]int{1, 1, 1})
		cfg.Workers = w
		parts := makeParticles(23, 120, 0.05)
		var busy float64
		err := mpi.Run(1, func(c *mpi.Comm) {
			rec := telemetry.NewRecorder(0, nil)
			cfg.Recorder = rec
			s, err := New(c, cfg, parts)
			if err != nil {
				panic(err)
			}
			defer s.Close()
			if err := s.Step(); err != nil {
				panic(err)
			}
			for _, snap := range rec.Registry().Snapshot() {
				if snap.Name == telemetry.MetricPoolBusySeconds {
					busy += snap.Value
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if w > 1 && busy <= 0 {
			t.Errorf("workers=%d: no pool busy time recorded", w)
		}
		if w == 1 && busy != 0 {
			t.Errorf("workers=%d: serial run recorded pool busy time %v", w, busy)
		}
	}
}
