package checkpoint

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"greem/internal/mpi"
	"greem/internal/sim"
)

// The crash-restart determinism suite: a run killed mid-step (or mid-
// checkpoint-write) and resumed from its last valid checkpoint must land on
// exactly (==) the particle state of a run that was never interrupted.
// DeterministicCost makes the load balancer's cost inputs reproducible, so
// this holds bit for bit at any worker count.

const (
	rsRanks = 2
	rsSteps = 6
	rsEvery = 2 // checkpoint every 2 steps → ckpt_2, ckpt_4, ckpt_6
)

func restartConfig(workers int) sim.Config {
	cfg := testSimConfig()
	cfg.Workers = workers
	return cfg
}

// runToEnd runs the full rsSteps uninterrupted (no checkpointing) and
// returns the final particle set sorted by ID.
func runToEnd(t *testing.T, cfg sim.Config, parts []sim.Particle) []sim.Particle {
	t.Helper()
	var final []sim.Particle
	err := mpi.Run(rsRanks, func(c *mpi.Comm) {
		s, err := sim.New(c, cfg, sliceFor(parts, c.Rank(), rsRanks))
		if err != nil {
			panic(err)
		}
		for i := 0; i < rsSteps; i++ {
			if err := s.Step(); err != nil {
				panic(err)
			}
		}
		all := s.GatherAll(0)
		if c.Rank() == 0 {
			final = byID(all)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return final
}

// runUntilKilled runs the checkpointing loop under the given kill hook until
// the world aborts; the returned error must satisfy mpi.IsAborted.
func runUntilKilled(t *testing.T, cfg sim.Config, ckCfg Config, parts []sim.Particle, hook mpi.KillHook) {
	t.Helper()
	err := mpi.RunWithKillHook(rsRanks, hook, func(c *mpi.Comm) {
		s, err := sim.New(c, cfg, sliceFor(parts, c.Rank(), rsRanks))
		if err != nil {
			panic(err)
		}
		for s.StepIndex() < rsSteps {
			if err := s.Step(); err != nil {
				panic(err)
			}
			if s.StepIndex()%rsEvery == 0 {
				if _, err := Write(c, ckCfg, s); err != nil {
					panic(err)
				}
			}
		}
	})
	if err == nil {
		t.Fatal("interrupted run finished cleanly — kill hook never fired")
	}
	if !mpi.IsAborted(err) {
		t.Fatalf("world died of something other than the injected kill: %v", err)
	}
}

// resumeToEnd restores from the newest valid checkpoint, checks it resumed
// at wantStep, finishes the run (checkpointing as the original did), and
// returns the final particle set sorted by ID.
func resumeToEnd(t *testing.T, cfg sim.Config, ckCfg Config, wantStep int) []sim.Particle {
	t.Helper()
	var final []sim.Particle
	err := mpi.Run(rsRanks, func(c *mpi.Comm) {
		s, err := Restore(c, ckCfg)
		if err != nil {
			panic(err)
		}
		if s.StepIndex() != wantStep {
			t.Errorf("resumed at step %d, want %d", s.StepIndex(), wantStep)
		}
		for s.StepIndex() < rsSteps {
			if err := s.Step(); err != nil {
				panic(err)
			}
			if s.StepIndex()%rsEvery == 0 {
				if _, err := Write(c, ckCfg, s); err != nil {
					panic(err)
				}
			}
		}
		all := s.GatherAll(0)
		if c.Rank() == 0 {
			final = byID(all)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return final
}

func requireIdentical(t *testing.T, want, got []sim.Particle, scenario string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d particles, want %d", scenario, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: particle ID %d differs after resume:\n  uninterrupted %+v\n  resumed       %+v",
				scenario, want[i].ID, want[i], got[i])
		}
	}
}

// killRank1MidKick fires at rank 1's first velocity kick of the step after
// killStep completed steps — mid-integration, forces already applied.
func killRank1MidKick(afterSteps int) mpi.KillHook {
	var mu sync.Mutex
	steps, fired := 0, false
	return func(rank int, point string) bool {
		if rank != 1 {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		if point == "sim/step" {
			steps++
		}
		if !fired && point == "sim/kick" && steps == afterSteps+1 {
			fired = true
			return true
		}
		return false
	}
}

// killRank1AtOverlapJoin fires at rank 1's overlap-join point of the step
// after afterSteps completed steps — the PM solve is in flight on the
// duplicated communicator's background goroutine when the rank dies, so the
// abort must also unblock and drain that goroutine's collectives.
func killRank1AtOverlapJoin(afterSteps int) mpi.KillHook {
	var mu sync.Mutex
	steps, fired := 0, false
	return func(rank int, point string) bool {
		if rank != 1 {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		if point == "sim/step" {
			steps++
		}
		if !fired && point == "overlap/join" && steps == afterSteps+1 {
			fired = true
			return true
		}
		return false
	}
}

// killRank1NthShardWrite fires between rank 1's n-th checkpoint shard hitting
// the temp file and its rename — the shard is fully on disk but the
// checkpoint is not committed.
func killRank1NthShardWrite(n int) mpi.KillHook {
	var mu sync.Mutex
	writes := 0
	return func(rank int, point string) bool {
		if rank != 1 || point != "ckpt/shard-write" {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		writes++
		return writes == n
	}
}

func TestCrashRestartBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 7} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := restartConfig(workers)
			parts := makeParticles(21, 200, 0.05)
			want := runToEnd(t, cfg, parts)

			t.Run("kill-mid-kick", func(t *testing.T) {
				logf, logs := testLogf()
				ckCfg := Config{Dir: t.TempDir(), Sim: cfg, Logf: logf}
				// Rank 1 dies mid-step-5; checkpoints at steps 2 and 4 are
				// committed, so the run resumes at 4.
				runUntilKilled(t, cfg, ckCfg, parts, killRank1MidKick(4))
				got := resumeToEnd(t, cfg, ckCfg, 4)
				requireIdentical(t, want, got, "kill mid-kick")
				if err := ValidateChain(ckCfg); err != nil {
					t.Errorf("chain after resume: %v (logs: %s)", err, logs())
				}
			})

			t.Run("kill-mid-checkpoint-write", func(t *testing.T) {
				logf, logs := testLogf()
				ckCfg := Config{Dir: t.TempDir(), Sim: cfg, Logf: logf}
				// Rank 1 dies during the *second* checkpoint (step 4), after
				// writing its shard temp file but before committing it: the
				// step-4 directory must be skipped as uncommitted and the run
				// resumes from step 2.
				runUntilKilled(t, cfg, ckCfg, parts, killRank1NthShardWrite(2))
				got := resumeToEnd(t, cfg, ckCfg, 2)
				requireIdentical(t, want, got, "kill mid-checkpoint-write")
				if !strings.Contains(logs(), dirName(4)) {
					t.Errorf("partial %s should be skipped with a logged reason; logs: %s", dirName(4), logs())
				}
			})
		})
	}
}

// TestCrashRestartOverlapJoin kills rank 1 at the overlapped pipeline's join
// point — a PM solve in flight on the dup-comm background goroutine — and
// requires the resumed run to land bit-identically on the uninterrupted one:
// the in-flight solve must leave no footprint in the checkpoint contract.
func TestCrashRestartOverlapJoin(t *testing.T) {
	parts := makeParticles(23, 200, 0.05)
	cfg := restartConfig(1)
	want := runToEnd(t, cfg, parts)

	ckCfg := Config{Dir: t.TempDir(), Sim: cfg}
	// Rank 1 dies at step 5's join with the solve in flight; checkpoints at
	// steps 2 and 4 are committed, so the run resumes at 4 (and re-enters the
	// overlapped pipeline on its first resumed step).
	runUntilKilled(t, cfg, ckCfg, parts, killRank1AtOverlapJoin(4))
	got := resumeToEnd(t, cfg, ckCfg, 4)
	requireIdentical(t, want, got, "kill at overlap join")
	if err := ValidateChain(ckCfg); err != nil {
		t.Errorf("chain after resume: %v", err)
	}
}

// TestRestartAcrossWorkerCounts: a checkpoint written by a serial run resumes
// bit-identically under a threaded one — worker count is explicitly outside
// the configuration fingerprint.
func TestRestartAcrossWorkerCounts(t *testing.T) {
	parts := makeParticles(22, 200, 0.05)
	serial := restartConfig(1)
	want := runToEnd(t, serial, parts)

	ckCfg := Config{Dir: t.TempDir(), Sim: serial}
	runUntilKilled(t, serial, ckCfg, parts, killRank1MidKick(4))

	threaded := restartConfig(7)
	got := resumeToEnd(t, threaded, Config{Dir: ckCfg.Dir, Sim: threaded}, 4)
	requireIdentical(t, want, got, "serial checkpoint, threaded resume")
}
