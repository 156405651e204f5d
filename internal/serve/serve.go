// Package serve is the simulation service plane: it manages simulation
// runs as jobs (submit a config, run it with the existing checkpoint and
// telemetry machinery, query progress, fetch products) on behalf of the
// cmd/greemd daemon.
//
// The package composes four pieces:
//
//   - a job Manager with the lifecycle queued → running → checkpointed →
//     done/failed, whose production runner executes the distributed sim
//     in-process with checkpoints written through the content-addressed
//     store (internal/store) and restart-on-abort reusing the checkpoint
//     degradation loop;
//   - an Index — the run/catalog index behind an interface, with the
//     in-memory implementation tests and the daemon use today and a
//     database-shaped surface for later;
//   - a singleflight Flight, so thousands of clients hitting the same
//     snapshot product cost one store read plus one compute;
//   - the HTTP Server exposing runs, products, Prometheus metrics and the
//     checkpoint hash chain as a verifiable run-integrity endpoint.
package serve

import (
	"fmt"
	"time"

	"greem/internal/cosmo"
	"greem/internal/sim"
	"greem/internal/store"
	"greem/internal/telemetry"
)

// JobSpec is the client-submitted configuration of one simulation run. The
// zero value of every optional field selects a sensible default; Validate
// bounds the mandatory ones so a hostile submission cannot OOM the daemon.
type JobSpec struct {
	NP    int   `json:"np"`    // particles per dimension
	Ranks int   `json:"ranks"` // in-process ranks
	Steps int   `json:"steps"` // full PM steps
	Seed  int64 `json:"seed"`  // IC random seed

	ZStart float64 `json:"zstart,omitempty"` // 0 ⇒ 400
	ZEnd   float64 `json:"zend,omitempty"`   // 0 ⇒ 31
	Amp    float64 `json:"amp,omitempty"`    // IC amplitude; 0 ⇒ 5e-5
	NMesh  int     `json:"nmesh,omitempty"`  // PM mesh; 0 ⇒ 2·np rounded up to a power of two
	Theta  float64 `json:"theta,omitempty"`  // tree opening angle; 0 ⇒ 0.5

	Workers         int `json:"workers,omitempty"`          // intra-rank workers; 0 ⇒ serial
	CheckpointEvery int `json:"checkpoint_every,omitempty"` // steps between checkpoints; 0 ⇒ off
	CheckpointKeep  int `json:"checkpoint_keep,omitempty"`  // checkpoints retained; 0 ⇒ all
	MaxRestarts     int `json:"max_restarts,omitempty"`     // restart-on-abort budget; 0 ⇒ 2

	// InSituEvery runs the distributed in-situ analysis pass (parallel FoF
	// catalog, on-the-fly P(k), streaming surface-density projection) every
	// that many steps and at the final step; 0 ⇒ off. The final-step catalog
	// and spectrum are registered as content-addressed products, so the
	// default halos/pk products serve without gathering the particle set.
	InSituEvery int `json:"insitu_every,omitempty"`

	// FailRankAtStep is the chaos-drill knob (mirroring cmd/greem's
	// -fail-rank-at-step): kill the last rank at the start of that step,
	// once, to exercise the checkpoint degradation loop end to end.
	FailRankAtStep int `json:"fail_rank_at_step,omitempty"`
}

// Validate bounds a submitted spec. The limits are service limits, not
// physics ones: the daemon runs jobs in-process, so NP³ particles and
// NMesh³ mesh cells are this process's memory.
func (s JobSpec) Validate() error {
	if s.NP < 2 || s.NP > 128 {
		return fmt.Errorf("serve: np %d outside [2, 128]", s.NP)
	}
	if s.Ranks < 1 || s.Ranks > 64 {
		return fmt.Errorf("serve: ranks %d outside [1, 64]", s.Ranks)
	}
	if _, err := factorGrid(s.Ranks); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if s.Steps < 1 || s.Steps > 100000 {
		return fmt.Errorf("serve: steps %d outside [1, 100000]", s.Steps)
	}
	if s.NMesh != 0 && (s.NMesh < 4 || s.NMesh > 512) {
		return fmt.Errorf("serve: nmesh %d outside [4, 512]", s.NMesh)
	}
	if s.ZStart != 0 && s.ZEnd != 0 && s.ZEnd >= s.ZStart {
		return fmt.Errorf("serve: zend %g must be below zstart %g", s.ZEnd, s.ZStart)
	}
	if s.CheckpointEvery < 0 || s.MaxRestarts < 0 || s.InSituEvery < 0 || s.Workers < 0 && s.Workers != -1 {
		return fmt.Errorf("serve: negative knob in spec")
	}
	if s.FailRankAtStep > 0 && s.CheckpointEvery == 0 {
		return fmt.Errorf("serve: fail_rank_at_step needs checkpointing enabled to recover")
	}
	return nil
}

func (s JobSpec) withDefaults() JobSpec {
	if s.ZStart == 0 {
		s.ZStart = 400
	}
	if s.ZEnd == 0 {
		s.ZEnd = 31
	}
	if s.Amp == 0 {
		s.Amp = 5e-5
	}
	if s.NMesh == 0 {
		s.NMesh = nextPow2(2 * s.NP)
	}
	if s.Theta == 0 {
		s.Theta = 0.5
	}
	if s.MaxRestarts == 0 {
		s.MaxRestarts = 2
	}
	return s
}

// JobState is the lifecycle state of a job: queued → running →
// checkpointed → done/failed. "checkpointed" is running-with-a-restart-
// point: the job keeps stepping, but from here on an aborted world resumes
// instead of failing.
type JobState string

const (
	StateQueued       JobState = "queued"
	StateRunning      JobState = "running"
	StateCheckpointed JobState = "checkpointed"
	StateDone         JobState = "done"
	StateFailed       JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s == StateDone || s == StateFailed }

// JobInfo is the queryable record of one job, as stored in the Index and
// served by GET /runs/{id}.
type JobInfo struct {
	ID    string   `json:"id"`
	Spec  JobSpec  `json:"spec"`
	State JobState `json:"state"`

	Step               int     `json:"step"`        // completed steps
	TotalSteps         int     `json:"total_steps"` //
	Time               float64 `json:"time"`        // scale factor
	LastCheckpointStep int     `json:"last_checkpoint_step,omitempty"`
	Restarts           int     `json:"restarts,omitempty"` // degradation-loop resumes
	Error              string  `json:"error,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`

	// SnapshotRef is the content address of the final snapshot once the
	// run completes; every product derives from it.
	SnapshotRef store.Ref `json:"snapshot_ref,omitempty"`

	// Telemetry is the rank-0 registry snapshot pushed at the last step
	// boundary (recorders are rank-local and unsynchronized, so the live
	// registry is never read across goroutines).
	Telemetry []telemetry.MetricSnapshot `json:"telemetry,omitempty"`
}

// Store-name scheme (see DESIGN.md): everything a job persists lives under
// runs/<id>/ — checkpoints written through checkpoint.StoreFS, the final
// snapshot, and cached products keyed by their canonical parameters.
func ckptDir(id string) string      { return "runs/" + id + "/ckpt" }
func snapshotName(id string) string { return "runs/" + id + "/snapshot/final" }
func productName(id, key string) string {
	return "runs/" + id + "/products/" + key
}

// runPrefix is the name prefix the integrity endpoint re-hashes.
func runPrefix(id string) string { return "runs/" + id + "/" }

// simConfigFromSpec maps a job spec onto the simulation configuration,
// identically in the runner and the integrity auditor — the checkpoint
// manifests fingerprint this configuration, so both sides must derive it
// from the spec the same way. DeterministicCost is always on: a service
// that restarts jobs from checkpoints needs restarts to be bit-identical.
func simConfigFromSpec(spec JobSpec) (cfg sim.Config, model *cosmo.Model, aStart, aEnd float64, err error) {
	spec = spec.withDefaults()
	const l, g, totalM = 1.0, 1.0, 1.0
	grid, err := factorGrid(spec.Ranks)
	if err != nil {
		return cfg, nil, 0, 0, err
	}
	model = cosmo.EdS(cosmo.HubbleForBox(g, totalM, l, 1.0))
	aStart = cosmo.ScaleFactor(spec.ZStart)
	aEnd = cosmo.ScaleFactor(spec.ZEnd)
	cfg = sim.Config{
		L: l, G: g, NMesh: spec.NMesh, Workers: spec.Workers,
		Theta: spec.Theta, Eps2: 1e-8,
		Grid: grid, DT: (aEnd - aStart) / float64(spec.Steps),
		Stepper: model, Time: aStart, DeterministicCost: true,
	}
	if spec.InSituEvery > 0 {
		// The in-situ parameters mirror the gather-and-recompute defaults in
		// products.go exactly — same linking-length expression, same min
		// group, same bin count — so the in-situ catalog and spectrum are
		// byte-identical to what a post-hoc request would compute. (These
		// fields are not part of the checkpoint fingerprint; enabling in-situ
		// analysis does not invalidate existing checkpoints.)
		cfg.InSituEvery = spec.InSituEvery
		cfg.InSituFinalStep = spec.Steps
		cfg.InSituLL = 0.2 * l / float64(spec.NP)
		cfg.InSituMinSize = 8
		cfg.InSituBins = 16
		cfg.InSituPix = 64
	}
	return cfg, model, aStart, aEnd, nil
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// factorGrid factors p ranks into the most cubic 3-D grid, as the greem
// driver does.
func factorGrid(p int) ([3]int, error) {
	best := [3]int{}
	found := false
	for a := 1; a*a*a <= p; a++ {
		if p%a != 0 {
			continue
		}
		q := p / a
		for b := a; b*b <= q; b++ {
			if q%b == 0 {
				best = [3]int{q / b, b, a}
				found = true
			}
		}
	}
	if !found {
		return best, fmt.Errorf("cannot factor %d ranks into a grid", p)
	}
	return best, nil
}
