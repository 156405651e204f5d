package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"greem/internal/analysis"
	"greem/internal/snapshot"
	"greem/internal/store"
	"greem/internal/telemetry"
)

// gatedGet passes store calls through, except that while armed the first
// Get parks until released — so a test can hold a product computation's
// single store read open while a herd of identical requests piles up.
type gatedGet struct {
	store.Store
	mu      sync.Mutex
	armed   bool
	entered chan struct{}
	release chan struct{}
}

func (g *gatedGet) Get(ref store.Ref) ([]byte, error) {
	g.mu.Lock()
	armed := g.armed
	g.mu.Unlock()
	if armed {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.Store.Get(ref)
}

func (g *gatedGet) arm() {
	g.mu.Lock()
	g.armed = true
	g.mu.Unlock()
}

func (g *gatedGet) disarm() {
	g.mu.Lock()
	g.armed = false
	g.mu.Unlock()
}

type testDaemon struct {
	srv      *httptest.Server
	mem      *store.Mem
	counting *store.Counting
	gate     *gatedGet
	idx      *Mem
	mgr      *Manager
}

func startDaemon(t *testing.T) *testDaemon {
	t.Helper()
	mem := store.NewMem()
	gate := &gatedGet{Store: mem, entered: make(chan struct{}, 256), release: make(chan struct{})}
	counting := store.NewCounting(gate)
	idx := NewMem()
	mgr, err := NewManager(ManagerConfig{Store: counting, Index: idx, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	srv := httptest.NewServer(NewServer(ServerConfig{Manager: mgr, Index: idx, Store: counting}).Handler())
	t.Cleanup(srv.Close)
	return &testDaemon{srv: srv, mem: mem, counting: counting, gate: gate, idx: idx, mgr: mgr}
}

func (d *testDaemon) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(d.srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, body
}

func (d *testDaemon) submit(t *testing.T, spec JobSpec) JobInfo {
	t.Helper()
	b, _ := json.Marshal(spec)
	resp, err := http.Post(d.srv.URL+"/runs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST /runs: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /runs: status %d: %s", resp.StatusCode, body)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("POST /runs: decode: %v", err)
	}
	return info
}

// pollDone watches the status endpoint (the way a client would) until the
// job terminates, checking that progress is monotone along the way.
func (d *testDaemon) pollDone(t *testing.T, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	lastStep := -1
	for time.Now().Before(deadline) {
		code, body := d.get(t, "/runs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET /runs/%s: status %d: %s", id, code, body)
		}
		var job JobInfo
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatalf("GET /runs/%s: decode: %v", id, err)
		}
		if job.Step < lastStep {
			t.Fatalf("progress went backwards: %d after %d", job.Step, lastStep)
		}
		lastStep = job.Step
		if job.State.Terminal() {
			return job
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobInfo{}
}

// TestServeE2E is the acceptance path: submit a small run over HTTP, watch
// it to completion, fetch every product kind, scrape metrics, and check the
// integrity endpoint accepts the untampered run and rejects it after a
// single flipped bit in the store.
func TestServeE2E(t *testing.T) {
	d := startDaemon(t)
	spec := JobSpec{NP: 4, Ranks: 2, Steps: 3, Seed: 42, CheckpointEvery: 1}
	info := d.submit(t, spec)

	job := d.pollDone(t, info.ID)
	if job.State != StateDone {
		t.Fatalf("job state %s (error %q), want done", job.State, job.Error)
	}
	if job.Step != 3 || job.LastCheckpointStep != 3 {
		t.Fatalf("progress step=%d ckpt=%d, want 3/3", job.Step, job.LastCheckpointStep)
	}
	if job.SnapshotRef == "" || len(job.Telemetry) == 0 {
		t.Fatalf("missing snapshot ref or telemetry: ref=%q telemetry=%d", job.SnapshotRef, len(job.Telemetry))
	}

	wantN := spec.NP * spec.NP * spec.NP

	// Full snapshot: decodes, right count, IDs in canonical order.
	code, body := d.get(t, "/runs/"+info.ID+"/products/snapshot")
	if code != http.StatusOK {
		t.Fatalf("snapshot product: status %d: %s", code, body)
	}
	hdr, parts, err := snapshot.Decode(body)
	if err != nil {
		t.Fatalf("snapshot product: %v", err)
	}
	if len(parts) != wantN || hdr.StepIdx != 3 {
		t.Fatalf("snapshot: %d particles at step %d, want %d at 3", len(parts), hdr.StepIdx, wantN)
	}
	for i := 1; i < len(parts); i++ {
		if parts[i].ID <= parts[i-1].ID {
			t.Fatalf("snapshot particle IDs not ascending at %d", i)
		}
	}

	// Index slice of the snapshot.
	code, body = d.get(t, "/runs/"+info.ID+"/products/snapshot?lo=8&hi=16")
	if code != http.StatusOK {
		t.Fatalf("snapshot slice: status %d: %s", code, body)
	}
	if _, sliced, err := snapshot.Decode(body); err != nil || len(sliced) != 8 {
		t.Fatalf("snapshot slice: n=%d err=%v", len(sliced), err)
	}

	// Halo catalog: canonical JSON that round-trips.
	code, body = d.get(t, "/runs/"+info.ID+"/products/halos?b=0.2&min_size=2")
	if code != http.StatusOK {
		t.Fatalf("halos product: status %d: %s", code, body)
	}
	cat, err := analysis.DecodeCatalog(body)
	if err != nil {
		t.Fatalf("halos product: %v", err)
	}
	if cat.MinSize != 2 || cat.Step != 3 {
		t.Fatalf("halos metadata: %+v", cat)
	}

	// Power spectrum.
	code, body = d.get(t, "/runs/"+info.ID+"/products/pk?nbins=8")
	if code != http.StatusOK {
		t.Fatalf("pk product: status %d: %s", code, body)
	}
	pk, err := analysis.DecodePower(body)
	if err != nil {
		t.Fatalf("pk product: %v", err)
	}
	if pk.NBins != 8 || len(pk.K) == 0 {
		t.Fatalf("pk metadata: nbins=%d k=%d", pk.NBins, len(pk.K))
	}

	// Density projection renders a PGM.
	code, body = d.get(t, "/runs/"+info.ID+"/products/density?n=16")
	if code != http.StatusOK || !bytes.HasPrefix(body, []byte("P2")) {
		t.Fatalf("density product: status %d, prefix %q", code, body[:min(len(body), 8)])
	}

	// Identical request twice returns identical bytes (deterministic
	// encoding + content-addressed cache).
	_, again := d.get(t, "/runs/"+info.ID+"/products/halos?b=0.2&min_size=2")
	cat2, err := analysis.DecodeCatalog(again)
	if err != nil {
		t.Fatalf("halos re-fetch: %v", err)
	}
	b1, _ := analysis.EncodeCatalog(cat)
	b2, _ := analysis.EncodeCatalog(cat2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("halo catalog not reproducible across fetches")
	}

	// Product listing shows the cached keys.
	code, body = d.get(t, "/runs/"+info.ID+"/products")
	if code != http.StatusOK || !strings.Contains(string(body), "halos-b0.2-min2") {
		t.Fatalf("product list: status %d: %s", code, body)
	}

	// Metrics: server counters plus per-job sim telemetry.
	code, body = d.get(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	metrics := string(body)
	for _, want := range []string{
		"greemd_http_requests_total",
		`job="` + info.ID + `"`,
		"greem_tree_interactions_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The daemon integrates on the production pipeline: only an overlapped
	// PM‖PP window sets the critical-path gauge (hidden seconds can be 0 on a
	// 1-CPU host), and only the LET exchange walks nodes.
	for _, name := range []string{"greem_overlap_critical_path_seconds", telemetry.MetricLETNodeVisits} {
		var v float64
		for _, line := range strings.Split(metrics, "\n") {
			if strings.HasPrefix(line, name+"{") && strings.Contains(line, `job="`+info.ID+`"`) {
				v, _ = strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			}
		}
		if v <= 0 {
			t.Errorf("job metric %s = %v, want > 0", name, v)
		}
	}

	// Integrity: the untampered run verifies...
	code, body = d.get(t, "/runs/"+info.ID+"/integrity")
	if code != http.StatusOK {
		t.Fatalf("integrity: status %d: %s", code, body)
	}
	var rep IntegrityReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.BlobsVerified == 0 || len(rep.CheckpointSteps) != 3 {
		t.Fatalf("integrity report: %+v", rep)
	}

	// ...and one flipped bit in one checkpoint shard fails it.
	names, err := d.counting.List(runPrefix(info.ID))
	if err != nil {
		t.Fatal(err)
	}
	var shard store.Ref
	for _, n := range names {
		if strings.Contains(n, "shard_") {
			ref, err := d.counting.Resolve(n)
			if err != nil {
				t.Fatal(err)
			}
			shard = ref
			break
		}
	}
	if shard == "" {
		t.Fatalf("no shard blob among %v", names)
	}
	if err := d.mem.Mutate(shard, func(b []byte) { b[37] ^= 0x01 }); err != nil {
		t.Fatal(err)
	}
	code, body = d.get(t, "/runs/"+info.ID+"/integrity")
	if code != http.StatusConflict {
		t.Fatalf("integrity after tamper: status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.OK || rep.Error == "" {
		t.Fatalf("tampered report: %+v", rep)
	}

	// Unknown run and unknown product kind fail cleanly.
	if code, _ := d.get(t, "/runs/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown run: status %d", code)
	}
	if code, _ := d.get(t, "/runs/"+info.ID+"/products/tarot"); code != http.StatusBadRequest {
		t.Fatalf("unknown product kind: status %d", code)
	}
}

// TestServeBatchingSingleStoreRead holds the store's Get open and fires
// 100 identical uncached product requests: the singleflight must collapse
// them onto the leader so exactly one store read happens.
func TestServeBatchingSingleStoreRead(t *testing.T) {
	d := startDaemon(t)
	info := d.submit(t, JobSpec{NP: 4, Ranks: 2, Steps: 2, Seed: 7})
	job := d.pollDone(t, info.ID)
	if job.State != StateDone {
		t.Fatalf("job state %s (error %q)", job.State, job.Error)
	}

	const herd = 100
	base := d.counting.Gets()
	d.gate.arm()

	type result struct {
		code int
		body []byte
	}
	results := make([]result, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := d.get(t, "/runs/"+info.ID+"/products/snapshot?lo=0&hi=32")
			results[i] = result{code, body}
		}(i)
	}

	// Wait for the leader to reach the store, let the rest of the herd
	// pile up behind the singleflight, then release.
	select {
	case <-d.gate.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("no request ever reached the store")
	}
	time.Sleep(300 * time.Millisecond)
	d.gate.disarm()
	close(d.gate.release)
	wg.Wait()

	reads := d.counting.Gets() - base
	if reads != 1 {
		t.Fatalf("herd of %d caused %d store reads, want exactly 1", herd, reads)
	}
	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, r.code, r.body)
		}
		if !bytes.Equal(r.body, results[0].body) {
			t.Fatalf("request %d returned different bytes", i)
		}
	}
	if _, parts, err := snapshot.Decode(results[0].body); err != nil || len(parts) != 32 {
		t.Fatalf("shared product: n=%d err=%v", len(parts), err)
	}
}

// TestServeRestartOnAbort kills a rank mid-run and checks the job restarts
// from its checkpoint, completes, and lands on the same content address a
// clean run with the same seed produces.
func TestServeRestartOnAbort(t *testing.T) {
	d := startDaemon(t)
	spec := JobSpec{NP: 4, Ranks: 2, Steps: 3, Seed: 9, CheckpointEvery: 1}

	clean := d.pollDone(t, d.submit(t, spec).ID)
	if clean.State != StateDone {
		t.Fatalf("clean run: %s (%s)", clean.State, clean.Error)
	}

	spec.FailRankAtStep = 2
	killed := d.pollDone(t, d.submit(t, spec).ID)
	if killed.State != StateDone {
		t.Fatalf("killed run: %s (%s)", killed.State, killed.Error)
	}
	if killed.Restarts != 1 {
		t.Fatalf("killed run restarts = %d, want 1", killed.Restarts)
	}
	if killed.SnapshotRef != clean.SnapshotRef {
		t.Fatalf("restarted run diverged: %s vs clean %s", killed.SnapshotRef, clean.SnapshotRef)
	}

	// Both runs' full audit still passes — the abort left no half-written
	// garbage behind the names.
	code, body := d.get(t, "/runs/"+killed.ID+"/integrity")
	if code != http.StatusOK {
		t.Fatalf("killed-run integrity: status %d: %s", code, body)
	}
}
