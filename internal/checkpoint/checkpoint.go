// Package checkpoint implements crash-safe, CRC-verified, per-rank-sharded
// checkpoint/restart for the distributed simulation — the operability layer
// a multi-day production run needs (the paper's trillion-body run occupies
// 82,944 nodes for days; at that scale interrupted runs are routine and the
// GreeM lineage survives them by resuming from periodic snapshots).
//
// # Layout and atomicity argument
//
// A checkpoint at step k is a directory <dir>/ckpt_<k>/ holding one particle
// shard per rank (shard_<rank>.bin — a plain verifiable snapshot file, so
// existing tooling can read it) plus a MANIFEST. Every file is written to a
// temp name and renamed into place, so no file is ever visible half-written;
// the manifest is written last, by rank 0, after every shard has been
// gathered and accounted, so the *manifest rename is the commit point*: a
// checkpoint with a valid manifest has every shard present with matching
// size and CRC32C, and a crash at any earlier moment leaves a directory
// without a (valid) manifest, which Latest skips with a logged reason.
// Manifests are hash-chained (each carries the SHA-256 of its predecessor's
// canonical bytes), so a silently rewritten or swapped-out checkpoint breaks
// the chain of every later one.
//
// # Bit-identical restart
//
// The shard plus manifest capture everything that feeds back into the
// trajectory: particles in local storage order, the decomposition and its
// smoothing history, the sampling-RNG state and the cost-sampling inputs.
// With sim.Config.DeterministicCost set, a run interrupted at step k and
// resumed from the last checkpoint produces exactly (==) the particle state
// an uninterrupted run produces; without it the cost sampling follows
// measured wall-clock (the paper's method) and restart is exact only up to
// the decomposition's timing sensitivity.
package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"greem/internal/domain"
	"greem/internal/mpi"
	"greem/internal/sim"
	"greem/internal/snapshot"
	"greem/internal/telemetry"
)

// Metric names for the checkpoint plane (per-rank registries).
const (
	// MetricBytes counts bytes committed to checkpoint files (shards on
	// every rank, the manifest on rank 0).
	MetricBytes = "greem_checkpoint_bytes_total"
	// MetricFailures counts failed write attempts (transient, retried ones
	// included), so operators can spot a flaky filesystem before it eats a
	// checkpoint window.
	MetricFailures = "greem_checkpoint_failures_total"
)

// ErrNoCheckpoint reports that the checkpoint directory holds no checkpoint
// that is fully valid for the given configuration and rank count.
var ErrNoCheckpoint = errors.New("checkpoint: no valid checkpoint found")

// castagnoli is the CRC32C table shared by shard and manifest checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Config parameterizes the checkpoint plane of one rank.
type Config struct {
	// Dir is the checkpoint root; each checkpoint is a ckpt_<step>
	// subdirectory of it.
	Dir string
	// Sim is the simulation configuration: fingerprinted into every
	// manifest (a resume under a different physics configuration is
	// refused) and the source of the shard headers' L and G. Must be the
	// same configuration on every rank, except for the per-rank Recorder.
	Sim sim.Config
	// FS abstracts the filesystem; nil ⇒ the real one. Tests inject
	// FaultFS to model torn writes and transient failures.
	FS FS
	// Retries bounds the write attempts per file (0 ⇒ 3); Backoff is the
	// initial retry delay, doubling per attempt (0 ⇒ 5ms).
	Retries int
	Backoff time.Duration
	// Keep prunes all but the newest Keep committed checkpoints after each
	// successful write (0 ⇒ keep everything). Pruning removes the oldest
	// first, so the surviving manifests remain a contiguous chain suffix.
	Keep int
	// Recorder, when non-nil, receives the ckpt/write and ckpt/verify
	// phase timers plus the byte and failure counters.
	Recorder *telemetry.Recorder
	// Logf receives skip/degrade diagnostics ("skipping ckpt_00000004:
	// shard 1: CRC mismatch"); nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.FS == nil {
		c.FS = OS
	}
	if c.Retries == 0 {
		c.Retries = 3
	}
	if c.Backoff == 0 {
		c.Backoff = 5 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

func dirName(step uint64) string { return fmt.Sprintf("ckpt_%08d", step) }
func shardName(rank int) string  { return fmt.Sprintf("shard_%04d.bin", rank) }

const manifestName = "MANIFEST"

// writeFileAtomic writes data to path via temp-file + rename, with bounded
// retry/backoff around transient failures. Between the completed temp write
// and the rename it passes the named mpi fault point, so tests can kill a
// rank at the most interesting instant: payload fully on disk, commit not
// yet visible.
func writeFileAtomic(c *mpi.Comm, cfg Config, failures *telemetry.Counter, path string, data []byte, faultPoint string) error {
	tmp := path + ".tmp"
	var err error
	for attempt := 0; attempt <= cfg.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(cfg.Backoff << min(attempt-1, 6))
		}
		err = func() error {
			f, cerr := cfg.FS.Create(tmp)
			if cerr != nil {
				return cerr
			}
			if _, werr := f.Write(data); werr != nil {
				f.Close()
				return werr
			}
			if serr := f.Sync(); serr != nil {
				f.Close()
				return serr
			}
			return f.Close()
		}()
		if err == nil {
			c.FaultPoint(faultPoint)
			err = cfg.FS.Rename(tmp, path)
			if err == nil {
				return nil
			}
		}
		cfg.FS.Remove(tmp)
		if failures != nil {
			failures.Add(1)
		}
		cfg.Logf("checkpoint: write %s attempt %d/%d failed: %v", path, attempt+1, cfg.Retries+1, err)
	}
	return fmt.Errorf("checkpoint: write %s: giving up after %d attempts: %w", path, cfg.Retries+1, err)
}

// shardWire is the per-rank accounting gathered at rank 0 for the manifest.
// Scalars only, so it crosses the in-process Gather cleanly.
type shardWire struct {
	OK         int64 // 1 = shard committed
	Bytes      int64
	CRC        uint64
	N          uint64
	RNG        uint64
	LastCost   float64
	LastPMCost float64
}

// Write commits one checkpoint of s. Collective over c: every rank
// serializes and atomically writes its shard, rank 0 gathers the per-shard
// accounting, commits the hash-chained manifest, and broadcasts the outcome,
// so either every rank returns nil and the checkpoint is fully valid on
// disk, or every rank returns the same error and the partial directory is
// ignorable garbage that Latest will skip.
func Write(c *mpi.Comm, cfg Config, s *sim.Sim) (string, error) {
	cfg = cfg.withDefaults()
	var bytesCtr, failCtr *telemetry.Counter
	if cfg.Recorder != nil {
		sp := cfg.Recorder.Start(telemetry.PhaseCkptWrite)
		defer sp.End()
		reg := cfg.Recorder.Registry()
		bytesCtr = reg.ByteCounter(MetricBytes)
		failCtr = reg.Counter(MetricFailures)
	}

	st := s.State()
	dir := filepath.Join(cfg.Dir, dirName(st.Step))
	w := shardWire{N: uint64(len(st.Particles)), RNG: st.RNG, LastCost: st.LastCost, LastPMCost: st.LastPMCost}
	var buf bytes.Buffer
	err := cfg.FS.MkdirAll(dir, 0o755)
	if err == nil {
		err = snapshot.Write(&buf, snapshot.Header{
			L: cfg.Sim.L, Time: st.Time, G: cfg.Sim.G, StepIdx: st.Step,
		}, st.Particles)
	}
	if err == nil {
		err = writeFileAtomic(c, cfg, failCtr, filepath.Join(dir, shardName(c.Rank())), buf.Bytes(), "ckpt/shard-write")
	}
	if err == nil {
		w.OK = 1
		w.Bytes = int64(buf.Len())
		w.CRC = uint64(crc32.Checksum(buf.Bytes(), castagnoli))
		if bytesCtr != nil {
			bytesCtr.AddUint(uint64(buf.Len()))
		}
	} else {
		cfg.Logf("checkpoint: rank %d shard for step %d failed: %v", c.Rank(), st.Step, err)
	}

	gathered := mpi.Gather(c, 0, []shardWire{w})
	var failMsg string
	if c.Rank() == 0 {
		failMsg = commitManifest(c, cfg, failCtr, bytesCtr, dir, st, gathered)
	}
	res := mpi.Bcast(c, 0, []byte(failMsg))
	if len(res) > 0 {
		return dir, fmt.Errorf("checkpoint: step %d not committed: %s", st.Step, string(res))
	}
	return dir, nil
}

// commitManifest is rank 0's half of Write: account every shard, link the
// hash chain, commit the manifest, prune. Returns "" on success or the
// failure reason to broadcast.
func commitManifest(c *mpi.Comm, cfg Config, failCtr, bytesCtr *telemetry.Counter, dir string, st sim.State, gathered [][]shardWire) string {
	m := &Manifest{
		Format:     manifestFormat,
		Step:       st.Step,
		Time:       st.Time,
		Ranks:      c.Size(),
		ConfigHash: Fingerprint(cfg.Sim),
		Geo:        st.Geo,
		History:    st.History,
	}
	for rank, g := range gathered {
		sw := g[0]
		if sw.OK != 1 {
			return fmt.Sprintf("rank %d shard write failed", rank)
		}
		m.Shards = append(m.Shards, Shard{
			Rank: rank, File: shardName(rank), Bytes: sw.Bytes, CRC32C: uint32(sw.CRC),
			N: sw.N, RNG: sw.RNG, LastCost: sw.LastCost, LastPMCost: sw.LastPMCost,
		})
	}
	// Chain to the newest older manifest present (parse-valid is enough to
	// link; full shard validity is a restore-time question). The scan is
	// silenced: it runs while this checkpoint's own directory is still
	// legitimately uncommitted, which is not worth a diagnostic.
	scanCfg := cfg
	scanCfg.Logf = func(string, ...any) {}
	for _, prev := range scanManifests(scanCfg) {
		if prev.m.Step < st.Step {
			m.PrevHash = manifestHash(prev.payload)
			break
		}
	}
	frame, _, err := encodeManifest(m)
	if err != nil {
		return err.Error()
	}
	if err := writeFileAtomic(c, cfg, failCtr, filepath.Join(dir, manifestName), frame, "ckpt/manifest-write"); err != nil {
		return err.Error()
	}
	if bytesCtr != nil {
		bytesCtr.AddUint(uint64(len(frame)))
	}
	prune(cfg, st.Step)
	return ""
}

// prune removes all but the newest cfg.Keep committed checkpoints (best
// effort; failures are logged, not fatal).
func prune(cfg Config, justWrote uint64) {
	if cfg.Keep <= 0 {
		return
	}
	scans := scanManifests(cfg) // newest first; includes the one just written
	for i, sc := range scans {
		if i < cfg.Keep {
			continue
		}
		if sc.m.Step >= justWrote {
			continue
		}
		if err := cfg.FS.RemoveAll(sc.dir); err != nil {
			cfg.Logf("checkpoint: pruning %s: %v", sc.dir, err)
		}
	}
}

// scanned is one checkpoint directory whose manifest parsed and
// CRC-verified; shards are not yet checked.
type scanned struct {
	dir     string
	m       *Manifest
	payload []byte
}

// scanManifests returns the parse-valid checkpoints under cfg.Dir, newest
// first. Directories with missing, torn or corrupt manifests are reported
// through cfg.Logf and skipped.
func scanManifests(cfg Config) []scanned {
	entries, err := cfg.FS.ReadDir(cfg.Dir)
	if err != nil {
		return nil
	}
	var out []scanned
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "ckpt_") {
			continue
		}
		step, err := strconv.ParseUint(strings.TrimPrefix(e.Name(), "ckpt_"), 10, 64)
		if err != nil {
			cfg.Logf("checkpoint: skipping %s: unparseable step in name", e.Name())
			continue
		}
		dir := filepath.Join(cfg.Dir, e.Name())
		b, err := cfg.FS.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			cfg.Logf("checkpoint: skipping %s: no readable manifest (uncommitted or torn): %v", e.Name(), err)
			continue
		}
		m, payload, err := decodeManifest(b)
		if err != nil {
			cfg.Logf("checkpoint: skipping %s: %v", e.Name(), err)
			continue
		}
		if m.Step != step {
			cfg.Logf("checkpoint: skipping %s: manifest claims step %d", e.Name(), m.Step)
			continue
		}
		out = append(out, scanned{dir: dir, m: m, payload: payload})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].m.Step > out[j].m.Step })
	return out
}

// readShard reads and fully verifies one shard file against its manifest
// entry: size, CRC32C, verified snapshot footer, particle count and step.
func readShard(cfg Config, dir string, m *Manifest, sh Shard) ([]sim.Particle, error) {
	path := filepath.Join(dir, sh.File)
	fi, err := cfg.FS.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", sh.Rank, err)
	}
	if fi.Size() != sh.Bytes {
		return nil, fmt.Errorf("shard %d: size %d, manifest records %d (torn write)", sh.Rank, fi.Size(), sh.Bytes)
	}
	b, err := cfg.FS.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", sh.Rank, err)
	}
	if got := crc32.Checksum(b, castagnoli); got != sh.CRC32C {
		return nil, fmt.Errorf("shard %d: CRC32C %#08x, manifest records %#08x (corrupt)", sh.Rank, got, sh.CRC32C)
	}
	hdr, parts, ver, err := snapshot.ReadSizedVerified(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", sh.Rank, err)
	}
	if ver != snapshot.Verified {
		return nil, fmt.Errorf("shard %d: %s snapshot; checkpoints require a verified footer", sh.Rank, ver)
	}
	if hdr.N != sh.N {
		return nil, fmt.Errorf("shard %d: holds %d particles, manifest records %d", sh.Rank, hdr.N, sh.N)
	}
	if hdr.StepIdx != m.Step {
		return nil, fmt.Errorf("shard %d: snapshot step %d, manifest step %d", sh.Rank, hdr.StepIdx, m.Step)
	}
	return parts, nil
}

// validate fully checks one scanned checkpoint for the given configuration
// and rank count: fingerprint, rank/shard accounting, geometry, and every
// shard's size, CRC and verified snapshot payload.
func validate(cfg Config, sc scanned, ranks int) error {
	m := sc.m
	if m.Ranks != ranks {
		return fmt.Errorf("written by %d ranks, resuming on %d", m.Ranks, ranks)
	}
	if err := checkFingerprint(m.ConfigHash, cfg.Sim); err != nil {
		return err
	}
	if len(m.Shards) != ranks {
		return fmt.Errorf("manifest lists %d shards for %d ranks", len(m.Shards), ranks)
	}
	if err := checkGeometry(m.Geo, ranks); err != nil {
		return err
	}
	for rank, sh := range m.Shards {
		if sh.Rank != rank {
			return fmt.Errorf("shard list out of order at %d (rank %d)", rank, sh.Rank)
		}
		if _, err := readShard(cfg, sc.dir, m, sh); err != nil {
			return err
		}
	}
	return nil
}

// Latest returns the newest checkpoint under cfg.Dir that is fully valid
// for this configuration and rank count, after verifying every shard.
// Invalid or partial checkpoints are skipped with a reason through cfg.Logf.
// Local (non-collective); Restore runs it on rank 0 and broadcasts the
// outcome.
func Latest(cfg Config, ranks int) (dir string, m *Manifest, err error) {
	cfg = cfg.withDefaults()
	for _, sc := range scanManifests(cfg) {
		if verr := validate(cfg, sc, ranks); verr != nil {
			cfg.Logf("checkpoint: skipping %s: %v", filepath.Base(sc.dir), verr)
			continue
		}
		return sc.dir, sc.m, nil
	}
	return "", nil, ErrNoCheckpoint
}

// LatestStep is Latest reduced to the step index, for drivers that only
// need to know whether (and where) a resume is possible.
func LatestStep(cfg Config, ranks int) (uint64, bool) {
	_, m, err := Latest(cfg, ranks)
	if err != nil {
		return 0, false
	}
	return m.Step, true
}

// ValidateChain verifies the manifest hash chain across the checkpoints
// present under cfg.Dir: every manifest's PrevHash must equal the SHA-256 of
// the next-older present manifest (pruning removes oldest-first, so the
// survivors form a contiguous chain suffix). A mismatch means history was
// rewritten or restored from the wrong lineage.
func ValidateChain(cfg Config) error {
	cfg = cfg.withDefaults()
	scans := scanManifests(cfg) // newest first
	for i := 0; i+1 < len(scans); i++ {
		newer, older := scans[i], scans[i+1]
		if want := manifestHash(older.payload); newer.m.PrevHash != want {
			return fmt.Errorf("checkpoint: chain broken: %s records prev_hash %.12s…, but %s hashes to %.12s…",
				filepath.Base(newer.dir), newer.m.PrevHash, filepath.Base(older.dir), want)
		}
	}
	return nil
}

func checkGeometry(flat []float64, ranks int) error {
	g, err := domain.DecodeFlat(flat)
	if err != nil {
		return fmt.Errorf("geometry: %w", err)
	}
	if g.NumDomains() != ranks {
		return fmt.Errorf("geometry covers %d domains for %d ranks", g.NumDomains(), ranks)
	}
	return nil
}

// Restore resumes the simulation from the newest fully valid checkpoint
// under cfg.Dir. Collective over c: rank 0 scans and validates (skipping
// corrupt or partial checkpoints with a logged reason), broadcasts the
// chosen manifest, then every rank loads and re-verifies its own shard and
// the ranks jointly rebuild the simulation via sim.Resume. Returns
// ErrNoCheckpoint on every rank when nothing valid exists.
func Restore(c *mpi.Comm, cfg Config) (*sim.Sim, error) {
	cfg = cfg.withDefaults()
	if cfg.Recorder != nil {
		sp := cfg.Recorder.Start(telemetry.PhaseCkptVerify)
		defer sp.End()
	}
	var chosen []byte
	if c.Rank() == 0 {
		if _, m, err := Latest(cfg, c.Size()); err == nil {
			frame, _, eerr := encodeManifest(m)
			if eerr == nil {
				chosen = frame
			} else {
				cfg.Logf("checkpoint: re-encoding chosen manifest: %v", eerr)
			}
		}
	}
	chosen = mpi.Bcast(c, 0, chosen)
	if len(chosen) == 0 {
		return nil, ErrNoCheckpoint
	}
	m, _, err := decodeManifest(chosen)
	var errMsg string
	var parts []sim.Particle
	if err != nil {
		errMsg = err.Error()
	} else {
		parts, err = readShard(cfg, filepath.Join(cfg.Dir, dirName(m.Step)), m, m.Shards[c.Rank()])
		if err != nil {
			errMsg = fmt.Sprintf("rank %d: %v", c.Rank(), err)
		}
	}
	// Agree on the outcome before entering sim.Resume's collectives: either
	// every rank resumes or every rank reports the same first failure.
	for rank, g := range mpi.Allgather(c, []string{errMsg}) {
		if g[0] != "" {
			return nil, fmt.Errorf("checkpoint: restore step %d (rank %d): %s", m.Step, rank, g[0])
		}
	}
	sh := m.Shards[c.Rank()]
	st := sim.State{
		Particles:  parts,
		Time:       m.Time,
		Step:       m.Step,
		RNG:        sh.RNG,
		LastCost:   sh.LastCost,
		LastPMCost: sh.LastPMCost,
		Geo:        m.Geo,
	}
	if c.Rank() == 0 {
		st.History = m.History
	}
	s, err := sim.Resume(c, cfg.Sim, st)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: resume step %d: %w", m.Step, err)
	}
	cfg.Logf("checkpoint: rank %d resumed from %s (step %d, t=%v)", c.Rank(), dirName(m.Step), m.Step, m.Time)
	return s, nil
}
