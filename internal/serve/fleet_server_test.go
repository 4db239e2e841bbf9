package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/obs"
)

// TestFleetDeterminism is the fleet's output contract: on a 4-device
// server, the same input assembled as plain batch jobs, an interactive
// job, and sharded jobs (2 and 4 shards, spread across distinct devices)
// all produce FASTA byte-identical to a direct single-device core run.
func TestFleetDeterminism(t *testing.T) {
	scfg := testServerConfig(t.TempDir())
	scfg.Devices = 4
	srv, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fq, reads := testFastq(t, 7707)
	params := Params{MinOverlap: 31, Workers: 1}
	want := directFasta(t, scfg, params, reads)

	queries := []string{
		"?lmin=31&workers=1&name=batch-0",
		"?lmin=31&workers=1&name=batch-1&tenant=lab1",
		"?lmin=31&workers=1&name=rush&priority=interactive",
		"?lmin=31&workers=1&name=wide-2&shards=2",
		"?lmin=31&workers=1&name=wide-4&shards=4",
	}
	recs := make([]Record, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			recs[i] = submitJob(t, ts.URL, fq, q)
		}(i, q)
	}
	wg.Wait()

	for i := range recs {
		final := pollJob(t, ts.URL, recs[i].ID)
		if final.State != StateSucceeded {
			t.Fatalf("job %s (%s) finished %s: %s", final.ID, final.Name, final.State, final.Error)
		}
		if got := fetchResult(t, ts.URL, final.ID); !bytes.Equal(got, want) {
			t.Errorf("job %s (%s) FASTA differs from direct assembly (%d vs %d bytes)",
				final.ID, final.Name, len(got), len(want))
		}
		wantDevs := final.Params.ShardCount()
		if len(final.Devices) != wantDevs {
			t.Errorf("job %s (%s) leased devices %v, want %d", final.ID, final.Name,
				final.Devices, wantDevs)
		}
		seen := map[int]bool{}
		for _, d := range final.Devices {
			if seen[d] {
				t.Errorf("job %s leased device %d twice: %v", final.ID, d, final.Devices)
			}
			seen[d] = true
		}
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFleetKillAndRestart crashes a two-device server mid-job and
// restarts it on a fleet where the crashed attempt's lease no longer fits
// the first card: the job must resume — through its manifest — on the
// other device and still produce byte-identical output. This is the
// determinism contract under device migration.
func TestFleetKillAndRestart(t *testing.T) {
	root := t.TempDir()
	fq, reads := testFastq(t, 9903)
	params := Params{MinOverlap: 31, Workers: 1}

	scfg := testServerConfig(root)
	scfg.DeviceSpecs = []gpu.Spec{gpu.K40, gpu.K40}
	scfg.MaxConcurrent = 1
	want := directFasta(t, scfg, params, reads)

	sortCommitted := make(chan struct{})
	var once sync.Once
	scfg.StageCommitHook = func(ctx context.Context, id string, stage core.PhaseName) error {
		if stage == core.PhaseSort {
			once.Do(func() { close(sortCommitted) })
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}
	srv, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	rec := submitJob(t, ts.URL, fq, "?lmin=31&workers=1&name=migrant")
	<-sortCommitted
	srv.Kill()
	ts.Close()

	onDisk, err := srv.Store().Load(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.State != StateRunning {
		t.Fatalf("on-disk state after crash = %s, want running", onDisk.State)
	}
	if onDisk.DeviceDemandBytes <= 1 {
		t.Fatalf("job demand %d too small to build an unfitting card", onDisk.DeviceDemandBytes)
	}

	// Restart with device 0 shrunk below the job's lease: recovery must
	// place the resumed attempt on device 1.
	scfg2 := testServerConfig(root)
	scfg2.DeviceSpecs = []gpu.Spec{
		{Name: "tiny", MemBytes: onDisk.DeviceDemandBytes - 1},
		gpu.K40,
	}
	scfg2.MaxConcurrent = 1
	srv2, err := New(scfg2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	final := pollJob(t, ts2.URL, rec.ID)
	if final.State != StateSucceeded {
		t.Fatalf("recovered job finished %s: %s", final.State, final.Error)
	}
	if len(final.Devices) != 1 || final.Devices[0] != 1 {
		t.Errorf("resumed attempt ran on devices %v, want [1] (the only card that fits)", final.Devices)
	}
	if final.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2 (one per server incarnation)", final.Attempts)
	}
	if len(final.CachedStages) == 0 {
		t.Error("resumed job replayed no stages from the manifest; it re-ran cold")
	}
	if got := fetchResult(t, ts2.URL, final.ID); !bytes.Equal(got, want) {
		t.Errorf("migrated FASTA differs from direct assembly (%d vs %d bytes)", len(got), len(want))
	}
	if err := srv2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServerPreemptResume forces a running job to drain at its next stage
// commit (the operator/scheduler preemption path), and checks it requeues
// with its committed stages resumable, re-runs, and still produces
// byte-identical output.
func TestServerPreemptResume(t *testing.T) {
	scfg := testServerConfig(t.TempDir())
	scfg.MaxConcurrent = 1
	fq, reads := testFastq(t, 4411)
	params := Params{MinOverlap: 31, Workers: 1}
	want := directFasta(t, scfg, params, reads)

	reached := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	first.Store(true)
	scfg.StageCommitHook = func(ctx context.Context, id string, stage core.PhaseName) error {
		if stage == core.PhaseMap && first.CompareAndSwap(true, false) {
			close(reached)
			select {
			case <-release:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}
	srv, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rec := submitJob(t, ts.URL, fq, "?lmin=31&workers=1&name=drainee")
	<-reached
	if err := srv.Scheduler().Preempt(rec.ID); err != nil {
		t.Fatal(err)
	}
	close(release)

	final := pollJob(t, ts.URL, rec.ID)
	if final.State != StateSucceeded {
		t.Fatalf("preempted job finished %s: %s", final.State, final.Error)
	}
	if final.Preemptions != 1 {
		t.Errorf("Preemptions = %d, want 1", final.Preemptions)
	}
	if final.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2 (drained + resumed)", final.Attempts)
	}
	if len(final.CachedStages) == 0 {
		t.Error("resumed attempt replayed no stages; the drain lost the manifest")
	}
	if got := fetchResult(t, ts.URL, final.ID); !bytes.Equal(got, want) {
		t.Errorf("preempted-and-resumed FASTA differs from direct assembly (%d vs %d bytes)",
			len(got), len(want))
	}
	if got := debugMetrics(t, ts.URL).Counters["fleet.preemptions"]; got != 1 {
		t.Errorf("fleet.preemptions = %d, want 1", got)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServerFleetEndpoints checks the fleet-aware HTTP surface: /healthz
// and the job listing expose the per-device admission snapshot, and the
// fleet-shape validation errors land as 4xx.
func TestServerFleetEndpoints(t *testing.T) {
	scfg := testServerConfig(t.TempDir())
	scfg.DeviceSpecs = []gpu.Spec{gpu.K40, gpu.P100}
	srv, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var health struct {
		Status string        `json:"status"`
		Fleet  FleetSnapshot `json:"fleet"`
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Errorf("healthz status %q, want ok", health.Status)
	}
	if len(health.Fleet.Devices) != 2 {
		t.Fatalf("healthz lists %d devices, want 2", len(health.Fleet.Devices))
	}
	for i, wantCard := range []string{"K40", "P100"} {
		ds := health.Fleet.Devices[i]
		if ds.Card != wantCard || ds.CapacityBytes != scfg.DeviceSpecs[i].MemBytes {
			t.Errorf("device %d = %s/%d bytes, want %s/%d",
				i, ds.Card, ds.CapacityBytes, wantCard, scfg.DeviceSpecs[i].MemBytes)
		}
		if ds.LeasedBytes != 0 || len(ds.Running) != 0 {
			t.Errorf("idle device %d reports leases %d and running %v", i, ds.LeasedBytes, ds.Running)
		}
	}

	var listing struct {
		Jobs  []Record      `json:"jobs"`
		Fleet FleetSnapshot `json:"fleet"`
	}
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(listing.Fleet.Devices) != 2 {
		t.Errorf("job listing embeds %d fleet devices, want 2", len(listing.Fleet.Devices))
	}

	// Fleet-shape validation: bad lane and malformed shard counts 400,
	// impossible shard counts 422, sharded-incompatible knobs 400.
	post := func(query string) int {
		t.Helper()
		body := "@r1\nACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT\n+\nIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII\n"
		resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/octet-stream", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("?lmin=31&priority=urgent"); got != http.StatusBadRequest {
		t.Errorf("unknown priority: status %d, want 400", got)
	}
	for _, shards := range []string{"0", "-1", "x"} {
		if got := post("?lmin=31&shards=" + shards); got != http.StatusBadRequest {
			t.Errorf("shards=%s: status %d, want 400", shards, got)
		}
	}
	if got := post("?lmin=31&shards=3"); got != http.StatusUnprocessableEntity {
		t.Errorf("shards beyond fleet size: status %d, want 422", got)
	}
	if got := post("?lmin=31&shards=2&dedupe=true"); got != http.StatusBadRequest {
		t.Errorf("shards with dedupe: status %d, want 400", got)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestStoreSweepScratch covers the preemption/startup scratch sweep over
// both workspace layouts: sort spill directories under work/partitions
// (single-device) and work/node*/ (sharded) are removed, while sorted
// partition files, node state, and manifests survive.
func TestStoreSweepScratch(t *testing.T) {
	root := t.TempDir()
	st, err := NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{ID: "j1", State: StateQueued, Attempts: 1, SubmittedAt: time.Now().UTC()}
	if err := st.CreateJob(rec, []byte("@r\nACGT\n+\nIIII\n")); err != nil {
		t.Fatal(err)
	}
	work := st.WorkDir("j1")
	keep := []string{
		filepath.Join(work, "manifest.json"),
		filepath.Join(work, "partitions", "part_0000.bin"),
		filepath.Join(work, "node00", "partition.bin"),
		filepath.Join(work, "node01", "manifest.json"),
	}
	scratch := []string{
		filepath.Join(work, "partitions", "sort_pairs_0001"),
		filepath.Join(work, "node00", "sort_pairs_0001"),
		filepath.Join(work, "node01", "sort_suffix_0002"),
	}
	for _, f := range keep {
		if err := os.MkdirAll(filepath.Dir(f), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range scratch {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "spill.bin"), []byte("y"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if err := st.SweepScratch("j1"); err != nil {
		t.Fatal(err)
	}
	for _, d := range scratch {
		if _, err := os.Stat(d); !os.IsNotExist(err) {
			t.Errorf("scratch dir %s survived the sweep", d)
		}
	}
	for _, f := range keep {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("kept file %s lost by the sweep: %v", f, err)
		}
	}

	// The startup sweep reaches the same scratch for resumable jobs.
	redo := filepath.Join(work, "node00", "sort_pairs_0009")
	if err := os.MkdirAll(redo, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Sweep(obs.New(nil, nil, nil).Log()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(redo); !os.IsNotExist(err) {
		t.Error("startup sweep left a resumable job's sort scratch behind")
	}
}
