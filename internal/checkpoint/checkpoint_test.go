package checkpoint

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"greem/internal/mpi"
	"greem/internal/sim"
)

func makeParticles(seed int64, n int, vscale float64) []sim.Particle {
	rng := rand.New(rand.NewSource(seed))
	out := make([]sim.Particle, n)
	for i := range out {
		out[i] = sim.Particle{
			X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64(),
			VX: vscale * rng.NormFloat64(), VY: vscale * rng.NormFloat64(), VZ: vscale * rng.NormFloat64(),
			M: 1.0 / float64(n), ID: int64(i),
		}
	}
	return out
}

func sliceFor(parts []sim.Particle, rank, size int) []sim.Particle {
	n := len(parts)
	return parts[rank*n/size : (rank+1)*n/size]
}

// testSimConfig is the deterministic two-rank configuration the checkpoint
// tests run under: DeterministicCost replaces wall-clock cost sampling so
// interrupted and uninterrupted runs are comparable bit for bit.
func testSimConfig() sim.Config {
	return sim.Config{
		L: 1, G: 1, NMesh: 16, Theta: 0.3, Ni: 32, Eps2: 1e-9,
		Grid: [3]int{2, 1, 1}, DT: 0.01, DeterministicCost: true,
	}
}

// testLogf returns a concurrency-safe capture of checkpoint diagnostics and
// a reader for them.
func testLogf() (func(string, ...any), func() string) {
	var mu sync.Mutex
	var sb strings.Builder
	logf := func(format string, args ...any) {
		mu.Lock()
		fmt.Fprintf(&sb, format+"\n", args...)
		mu.Unlock()
	}
	read := func() string {
		mu.Lock()
		defer mu.Unlock()
		return sb.String()
	}
	return logf, read
}

func byID(parts []sim.Particle) []sim.Particle {
	out := append([]sim.Particle(nil), parts...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func TestWriteRestoreRoundtrip(t *testing.T) {
	const ranks, steps = 2, 3
	parts := makeParticles(1, 200, 0.05)
	cfg := testSimConfig()
	dir := t.TempDir()
	logf, logs := testLogf()
	ckCfg := Config{Dir: dir, Sim: cfg, Logf: logf}

	err := mpi.Run(ranks, func(c *mpi.Comm) {
		s, err := sim.New(c, cfg, sliceFor(parts, c.Rank(), ranks))
		if err != nil {
			panic(err)
		}
		for i := 0; i < steps; i++ {
			if err := s.Step(); err != nil {
				panic(err)
			}
		}
		if _, err := Write(c, ckCfg, s); err != nil {
			panic(err)
		}

		r, err := Restore(c, ckCfg)
		if err != nil {
			panic(err)
		}
		if r.StepIndex() != steps {
			t.Errorf("restored StepIndex = %d, want %d", r.StepIndex(), steps)
		}
		if r.Time() != s.Time() {
			t.Errorf("restored Time = %v, want %v", r.Time(), s.Time())
		}
		// The restored rank must hold exactly the same particles in exactly
		// the same local order — that order is the FP summation order.
		sp, rp := s.Particles(), r.Particles()
		if len(sp) != len(rp) {
			t.Fatalf("rank %d: restored %d particles, had %d", c.Rank(), len(rp), len(sp))
		}
		for i := range sp {
			if sp[i] != rp[i] {
				t.Fatalf("rank %d: particle %d differs after restore", c.Rank(), i)
			}
		}

		// Continue both sims one step: the trajectories must stay identical
		// bit for bit (the restored sim recomputes forces from the same
		// positions, geometry and RNG state).
		if err := s.Step(); err != nil {
			panic(err)
		}
		if err := r.Step(); err != nil {
			panic(err)
		}
		sa, ra := byID(s.GatherAll(0)), byID(r.GatherAll(0))
		if c.Rank() == 0 {
			for i := range sa {
				if sa[i] != ra[i] {
					t.Fatalf("trajectories diverge at particle %d after resume: %+v vs %+v", i, sa[i], ra[i])
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("%v (logs: %s)", err, logs())
	}
	if err := ValidateChain(ckCfg); err != nil {
		t.Errorf("chain: %v", err)
	}
}

func TestRestoreWithoutCheckpoint(t *testing.T) {
	cfg := testSimConfig()
	ckCfg := Config{Dir: t.TempDir(), Sim: cfg}
	err := mpi.Run(2, func(c *mpi.Comm) {
		if _, err := Restore(c, ckCfg); !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("rank %d: err = %v, want ErrNoCheckpoint", c.Rank(), err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// writeCheckpoints steps a 2-rank sim and checkpoints every `every` steps.
func writeCheckpoints(t *testing.T, ckCfg Config, steps, every int) {
	t.Helper()
	parts := makeParticles(2, 120, 0.05)
	err := mpi.Run(2, func(c *mpi.Comm) {
		s, err := sim.New(c, ckCfg.Sim, sliceFor(parts, c.Rank(), 2))
		if err != nil {
			panic(err)
		}
		for i := 1; i <= steps; i++ {
			if err := s.Step(); err != nil {
				panic(err)
			}
			if i%every == 0 {
				if _, err := Write(c, ckCfg, s); err != nil {
					panic(err)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKeepPrunesOldCheckpoints(t *testing.T) {
	dir := t.TempDir()
	ckCfg := Config{Dir: dir, Sim: testSimConfig(), Keep: 2}
	writeCheckpoints(t, ckCfg, 4, 1) // writes steps 1..4, Keep 2
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	want := []string{dirName(3), dirName(4)}
	if len(names) != len(want) || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("after pruning: %v, want %v", names, want)
	}
	// The survivors are a contiguous chain suffix: the chain must verify.
	if err := ValidateChain(ckCfg); err != nil {
		t.Errorf("chain after pruning: %v", err)
	}
	if _, m, err := Latest(ckCfg, 2); err != nil || m.Step != 4 {
		t.Errorf("Latest after pruning: step %v, err %v", m, err)
	}
}

func TestHashChainLinksCheckpoints(t *testing.T) {
	dir := t.TempDir()
	ckCfg := Config{Dir: dir, Sim: testSimConfig()}
	writeCheckpoints(t, ckCfg, 2, 1)
	scans := scanManifests(ckCfg.withDefaults()) // newest first
	if len(scans) != 2 {
		t.Fatalf("%d checkpoints", len(scans))
	}
	if scans[1].m.PrevHash != "" {
		t.Errorf("first checkpoint PrevHash = %q, want empty", scans[1].m.PrevHash)
	}
	if want := manifestHash(scans[1].payload); scans[0].m.PrevHash != want {
		t.Errorf("second checkpoint PrevHash = %q, want %q", scans[0].m.PrevHash, want)
	}
	if err := ValidateChain(ckCfg); err != nil {
		t.Fatal(err)
	}

	// Rewrite the older manifest (valid frame, different payload): every
	// later checkpoint's link must break.
	m := scans[1].m
	m.Time += 1e-9
	frame, _, err := encodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(scans[1].dir, manifestName), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	err = ValidateChain(ckCfg)
	if err == nil {
		t.Fatal("tampered history passed chain validation")
	}
	if !strings.Contains(err.Error(), "chain broken") {
		t.Errorf("want chain-broken error, got: %v", err)
	}
}

func TestFingerprintRefusesDifferentConfig(t *testing.T) {
	dir := t.TempDir()
	ckCfg := Config{Dir: dir, Sim: testSimConfig()}
	writeCheckpoints(t, ckCfg, 1, 1)

	other := testSimConfig()
	other.Theta = 0.7 // different physics: restart would silently diverge
	logf, logs := testLogf()
	if _, _, err := Latest(Config{Dir: dir, Sim: other, Logf: logf}, 2); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("config mismatch: err = %v, want ErrNoCheckpoint", err)
	}
	if !strings.Contains(logs(), "fingerprint") {
		t.Errorf("skip reason should mention the fingerprint, got: %s", logs())
	}

	// Workers must NOT participate: results are identical at any worker
	// count, so a resume on different intra-rank parallelism is legitimate.
	workers := testSimConfig()
	workers.Workers = 7
	if _, m, err := Latest(Config{Dir: dir, Sim: workers}, 2); err != nil || m.Step != 1 {
		t.Errorf("worker-count change refused: %v", err)
	}
}

// TestPreV4FingerprintRefusedByVersion: a manifest whose fingerprint predates
// v4 (a bare hash, as every build up to PR 13 wrote — possibly integrated by
// the float64 kernel, the raw ghost scan or the sequential step) is otherwise
// intact, and must be skipped with a reason that names the fingerprint
// version rather than resumed into the production pipeline.
func TestPreV4FingerprintRefusedByVersion(t *testing.T) {
	dir := t.TempDir()
	ckCfg := Config{Dir: dir, Sim: testSimConfig()}
	writeCheckpoints(t, ckCfg, 1, 1)
	sc := scanManifests(ckCfg.withDefaults())[0]
	sc.m.ConfigHash = strings.TrimPrefix(sc.m.ConfigHash, fingerprintVersion+":")
	frame, _, err := encodeManifest(sc.m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sc.dir, manifestName), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	logf, logs := testLogf()
	if _, _, err := Latest(Config{Dir: dir, Sim: testSimConfig(), Logf: logf}, 2); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("pre-v4 manifest: err = %v, want ErrNoCheckpoint", err)
	}
	if !strings.Contains(logs(), "predates fingerprint v4") || !strings.Contains(logs(), "restart") {
		t.Errorf("skip reason should name the fingerprint version and say restart, got: %s", logs())
	}
}

func TestWrongRankCountRefused(t *testing.T) {
	dir := t.TempDir()
	ckCfg := Config{Dir: dir, Sim: testSimConfig()}
	writeCheckpoints(t, ckCfg, 1, 1)
	logf, logs := testLogf()
	if _, _, err := Latest(Config{Dir: dir, Sim: testSimConfig(), Logf: logf}, 4); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("rank-count mismatch: err = %v, want ErrNoCheckpoint", err)
	}
	if !strings.Contains(logs(), "ranks") {
		t.Errorf("skip reason should mention ranks, got: %s", logs())
	}
}

func TestTransientFailureRetried(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	fails := 2
	ffs.OnRename = func(oldpath, newpath string) error {
		if fails > 0 && strings.Contains(oldpath, "shard") {
			fails--
			return errors.New("injected transient rename failure")
		}
		return nil
	}
	logf, logs := testLogf()
	ckCfg := Config{Dir: dir, Sim: testSimConfig(), FS: ffs, Backoff: 1, Logf: logf}
	writeCheckpoints(t, ckCfg, 1, 1) // panics (fails the test) if Write errors
	if fails != 0 {
		t.Fatalf("injected failures not consumed: %d left", fails)
	}
	if !strings.Contains(logs(), "attempt") {
		t.Errorf("retries should be logged, got: %s", logs())
	}
	if _, m, err := Latest(Config{Dir: dir, Sim: testSimConfig()}, 2); err != nil || m.Step != 1 {
		t.Fatalf("checkpoint not valid after retried write: %v", err)
	}
}

func TestPersistentFailureFailsAllRanks(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	ffs.OnSync = func(path string) error {
		if strings.Contains(path, shardName(1)) {
			return errors.New("injected persistent sync failure")
		}
		return nil
	}
	parts := makeParticles(3, 80, 0)
	cfg := testSimConfig()
	ckCfg := Config{Dir: dir, Sim: cfg, FS: ffs, Retries: 1, Backoff: 1}
	var errs [2]error
	err := mpi.Run(2, func(c *mpi.Comm) {
		s, err := sim.New(c, cfg, sliceFor(parts, c.Rank(), 2))
		if err != nil {
			panic(err)
		}
		if err := s.Step(); err != nil {
			panic(err)
		}
		_, errs[c.Rank()] = Write(c, ckCfg, s)
	})
	if err != nil {
		t.Fatal(err)
	}
	// The failure was on rank 1's shard only, but the collective contract
	// says every rank must see the checkpoint as not committed.
	for rank, werr := range errs {
		if werr == nil {
			t.Errorf("rank %d: Write succeeded despite failed shard", rank)
		} else if !strings.Contains(werr.Error(), "not committed") {
			t.Errorf("rank %d: %v", rank, werr)
		}
	}
	if _, _, err := Latest(Config{Dir: dir, Sim: cfg}, 2); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("failed checkpoint should not validate: %v", err)
	}
}

func TestTornShardWriteNeverCommits(t *testing.T) {
	// A write that lands only partially (torn) must either be retried to
	// success or leave the checkpoint uncommitted — never a manifest pointing
	// at a short shard.
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	ffs.OnWrite = func(path string, written int64, p []byte) (int, error) {
		if strings.Contains(path, shardName(0)) && written == 0 && len(p) > 16 {
			return len(p) / 2, errors.New("injected torn write")
		}
		return len(p), nil
	}
	parts := makeParticles(4, 80, 0)
	cfg := testSimConfig()
	ckCfg := Config{Dir: dir, Sim: cfg, FS: ffs, Retries: 1, Backoff: 1}
	var errs [2]error
	err := mpi.Run(2, func(c *mpi.Comm) {
		s, err := sim.New(c, cfg, sliceFor(parts, c.Rank(), 2))
		if err != nil {
			panic(err)
		}
		if err := s.Step(); err != nil {
			panic(err)
		}
		_, errs[c.Rank()] = Write(c, ckCfg, s)
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, werr := range errs {
		if werr == nil {
			t.Errorf("rank %d: torn shard write committed", rank)
		}
	}
	if _, _, err := Latest(Config{Dir: dir, Sim: cfg}, 2); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("torn checkpoint should not validate: %v", err)
	}
}
