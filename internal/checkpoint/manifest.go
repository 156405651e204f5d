package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"greem/internal/sim"
)

// Manifest is the commit record of one checkpoint: a checkpoint exists iff
// its manifest is fully present and self-consistent, so the atomic rename of
// the manifest file is the commit point for the whole per-rank shard set.
// Manifests are hash-chained: each carries the SHA-256 of its predecessor's
// canonical (JSON) bytes, making silent history rewrites detectable as long
// as any later manifest survives.
type Manifest struct {
	Format     int     `json:"format"`
	Step       uint64  `json:"step"`
	Time       float64 `json:"time"`
	Ranks      int     `json:"ranks"`
	ConfigHash string  `json:"config_hash"` // Fingerprint of the sim.Config
	PrevHash   string  `json:"prev_hash"`   // SHA-256 of the previous manifest's JSON; "" for the first
	Shards     []Shard `json:"shards"`
	// Geo is the domain decomposition at the checkpointed step
	// (domain.Geometry.EncodeFlat); History is rank 0's geometry smoothing
	// window. encoding/json round-trips float64 exactly (shortest form).
	Geo     []float64   `json:"geo"`
	History [][]float64 `json:"history,omitempty"`
}

// Shard records one rank's particle file plus the scalar integrator state
// that rides in the manifest rather than the shard (the shard file itself is
// a plain verifiable snapshot, so existing tooling can read it).
type Shard struct {
	Rank       int     `json:"rank"`
	File       string  `json:"file"`
	Bytes      int64   `json:"bytes"`
	CRC32C     uint32  `json:"crc32c"`
	N          uint64  `json:"n"`
	RNG        uint64  `json:"rng"`
	LastCost   float64 `json:"last_cost"`
	LastPMCost float64 `json:"last_pm_cost"`
}

// manifestFormat is the current manifest format number.
const manifestFormat = 1

// manifestMagic frames manifest files ("GRMMANI1"): magic, uint32 payload
// length, JSON payload, uint32 CRC32C of the payload. The frame makes torn
// or bit-flipped manifests detectable without trusting the JSON parser.
var manifestMagic = [8]byte{'G', 'R', 'M', 'M', 'A', 'N', 'I', '1'}

// maxManifestBytes caps the framed length field so a corrupt header cannot
// demand an OOM-sized allocation (a manifest is a few KB of JSON plus the
// geometry planes; 64 MiB is orders of magnitude of headroom).
const maxManifestBytes = 64 << 20

// encodeManifest frames m for disk and returns (frame, payload): the payload
// bytes are what the next checkpoint's PrevHash chains over.
func encodeManifest(m *Manifest) (frame, payload []byte, err error) {
	payload, err = json.Marshal(m)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: marshal manifest: %w", err)
	}
	return FrameRecord(manifestMagic, payload), payload, nil
}

// decodeManifest parses and verifies a framed manifest file, returning the
// manifest and its canonical payload bytes (for hash chaining).
func decodeManifest(b []byte) (*Manifest, []byte, error) {
	payload, err := UnframeRecord(manifestMagic, maxManifestBytes, b)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: manifest JSON: %w", err)
	}
	if m.Format != manifestFormat {
		return nil, nil, fmt.Errorf("checkpoint: unsupported manifest format %d", m.Format)
	}
	// The payload slice aliases b; copy so callers can hold it.
	return &m, append([]byte(nil), payload...), nil
}

// manifestHash is the chain link: SHA-256 over the canonical payload bytes.
func manifestHash(payload []byte) string {
	h := sha256.Sum256(payload)
	return hex.EncodeToString(h[:])
}

// fingerprintVersion prefixes every Fingerprint, so a manifest written under
// an older field set is told apart from a mere configuration mismatch. v4
// dropped the kernel, ghost-exchange and step-order switches: sim has one
// production pipeline, and a checkpoint from an earlier build may have been
// integrated by a different kernel.
const fingerprintVersion = "v4"

// Fingerprint is the RNG-free configuration fingerprint stored in every
// manifest: it covers exactly the sim.Config fields that shape the
// trajectory, and deliberately excludes Workers (results are bit-identical
// at any worker count), Time (it advances), and the Recorder (observability
// never feeds back). A resume under a different fingerprint is refused —
// restarting a run with, say, a different opening angle would silently
// change the physics.
func Fingerprint(cfg sim.Config) string {
	s := fmt.Sprintf(
		"L=%v G=%v NMesh=%d NFFT=%d Relay=%v Groups=%d Pencil=%v PY=%d PZ=%d Rcut=%v Theta=%v Ni=%d Eps2=%v LeafCap=%d Grid=%v SampleTotal=%d SmoothSteps=%d DT=%v Substeps=%d DetCost=%v Stepper=%+v",
		cfg.L, cfg.G, cfg.NMesh, cfg.NFFT, cfg.Relay, cfg.Groups, cfg.Pencil, cfg.PY, cfg.PZ,
		cfg.Rcut, cfg.Theta, cfg.Ni, cfg.Eps2, cfg.LeafCap, cfg.Grid,
		cfg.SampleTotal, cfg.SmoothSteps, cfg.DT, cfg.Substeps, cfg.DeterministicCost, cfg.Stepper,
	)
	h := sha256.Sum256([]byte(s))
	return fingerprintVersion + ":" + hex.EncodeToString(h[:])
}

// checkFingerprint refuses a manifest whose configuration fingerprint is not
// this run's, naming the fingerprint version when that is what differs
// (hashes up to v3 carried no prefix).
func checkFingerprint(got string, cfg sim.Config) error {
	if !strings.HasPrefix(got, fingerprintVersion+":") {
		return fmt.Errorf("config fingerprint %.12s… predates fingerprint %s (written by a build that could select another kernel, ghost exchange or step order): the run must restart, not resume",
			got, fingerprintVersion)
	}
	if want := Fingerprint(cfg); got != want {
		return fmt.Errorf("config fingerprint %.15s… does not match this run's %.15s…", got, want)
	}
	return nil
}
