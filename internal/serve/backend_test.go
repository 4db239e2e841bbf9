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
	"strings"
	"testing"

	"repro/internal/core"
)

// TestSubmitGraphBackendSpmat pins that the removed spmat engine is
// refused at submit with a 400 naming its replacement, before any job
// record exists — never silently run under another engine.
func TestSubmitGraphBackendSpmat(t *testing.T) {
	srv, err := New(testServerConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fq, _ := testFastq(t, 1401)
	resp, err := http.Post(ts.URL+"/v1/jobs?lmin=31&workers=1&graph-backend=spmat",
		"application/octet-stream", bytes.NewReader(fq))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("spmat submit: status %d, want %d: %s", resp.StatusCode, http.StatusBadRequest, msg)
	}
	if !bytes.Contains(msg, []byte(core.BackendSuccinct)) {
		t.Errorf("400 body does not name %s: %s", core.BackendSuccinct, msg)
	}
	if recs, err := srv.Store().List(); err != nil || len(recs) != 0 {
		t.Errorf("rejected submit left %d job records (err %v)", len(recs), err)
	}
}

// TestSubmitGraphBackendSuccinct runs a job under the succinct engine
// over HTTP and pins its FASTA against a direct core run with the same
// backend.
func TestSubmitGraphBackendSuccinct(t *testing.T) {
	scfg := testServerConfig(t.TempDir())
	srv, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fq, reads := testFastq(t, 1403)

	cfg := core.DefaultConfig(t.TempDir())
	cfg.HostBlockPairs = scfg.HostBlockPairs
	cfg.DeviceBlockPairs = scfg.DeviceBlockPairs
	cfg.MapBatchReads = scfg.MapBatchReads
	cfg.MinOverlap = 31
	cfg.Workers = 1
	cfg.GPU = scfg.GPU
	cfg.GraphBackend = core.BackendSuccinct
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(res.ContigPath)
	if err != nil {
		t.Fatal(err)
	}

	rec := submitJob(t, ts.URL, fq, "?lmin=31&workers=1&graph-backend=succinct&name=succinct")
	if rec.Params.GraphBackend != core.BackendSuccinct {
		t.Fatalf("recorded backend = %q, want %q", rec.Params.GraphBackend, core.BackendSuccinct)
	}
	final := pollJob(t, ts.URL, rec.ID)
	if final.State != StateSucceeded {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	got := fetchResult(t, ts.URL, final.ID)
	if !bytes.Equal(got, want) {
		t.Errorf("succinct job FASTA differs from direct succinct assembly (%d vs %d bytes)",
			len(got), len(want))
	}
}

// TestSubmitHostAdmission pins the host-side admission gate: a server
// with a tiny modeled host budget rejects the job with 422 and an error
// naming the backend's maximum job size, while /healthz advertises the
// per-backend envelope.
func TestSubmitHostAdmission(t *testing.T) {
	scfg := testServerConfig(t.TempDir())
	scfg.HostMemBytes = 1 << 10
	srv, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fq, _ := testFastq(t, 1404)
	resp, err := http.Post(ts.URL+"/v1/jobs?graph-backend=succinct", "application/octet-stream", bytes.NewReader(fq))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("over-budget submit: status %d, want %d: %s",
			resp.StatusCode, http.StatusUnprocessableEntity, msg)
	}
	if !bytes.Contains(msg, []byte("host footprint")) || !bytes.Contains(msg, []byte("succinct")) {
		t.Errorf("422 body does not explain the host admission failure: %s", msg)
	}

	var health struct {
		Admission struct {
			HostMemBytes       int64          `json:"hostMemBytes"`
			ReferenceReadLen   int            `json:"referenceReadLen"`
			MaxReadsPerBackend map[string]int `json:"maxReadsPerBackend"`
		} `json:"admission"`
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	adm := health.Admission
	if adm.HostMemBytes != scfg.HostMemBytes {
		t.Errorf("advertised budget %d, want %d", adm.HostMemBytes, scfg.HostMemBytes)
	}
	if adm.ReferenceReadLen != admissionReadLen {
		t.Errorf("advertised read length %d, want %d", adm.ReferenceReadLen, admissionReadLen)
	}
	if len(adm.MaxReadsPerBackend) != len(core.Backends) {
		t.Fatalf("admission lists %d backends, want %d: %v",
			len(adm.MaxReadsPerBackend), len(core.Backends), adm.MaxReadsPerBackend)
	}
	// Denser representations admit fewer reads under the same budget.
	gr, su := adm.MaxReadsPerBackend[core.BackendGreedy], adm.MaxReadsPerBackend[core.BackendSuccinct]
	if gr < su {
		t.Errorf("admission ordering greedy=%d succinct=%d, want greedy >= succinct", gr, su)
	}
}

// TestSubmitGraphBackendValidation rejects malformed backend submissions
// before a job record is ever created; the removed engines' errors name
// succinct.
func TestSubmitGraphBackendValidation(t *testing.T) {
	scfg := testServerConfig(t.TempDir())
	srv, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fq, _ := testFastq(t, 1402)
	for _, query := range []string{
		"?graph-backend=bogus",
		"?graph-backend=spmat",
		"?fullgraph=true",
		"?fullgraph=false",
		"?graph-backend=succinct&fullgraph=true",
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/octet-stream", bytes.NewReader(fq))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: status %d, want %d", query, resp.StatusCode, http.StatusBadRequest)
		}
		if !bytes.Contains(msg, []byte(core.BackendSuccinct)) {
			t.Errorf("submit %s: 400 body does not name %s: %s", query, core.BackendSuccinct, msg)
		}
	}
}

// TestRecoveredRemovedEngineJobFails restarts a server over hand-written
// job records an older server persisted for the removed engines. Restart
// recovery must fail each with a descriptive error naming succinct — and
// persist the failure — instead of running it under another engine.
func TestRecoveredRemovedEngineJobFails(t *testing.T) {
	root := t.TempDir()
	fq, _ := testFastq(t, 1405)
	params := map[string]string{
		"j-fullgraph": `{"minOverlap": 31, "workers": 1, "fullGraph": true}`,
		"j-spmat":     `{"minOverlap": 31, "workers": 1, "graphBackend": "spmat"}`,
	}
	store, err := NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	for id, p := range params {
		dir := store.JobDir(id)
		if err := os.MkdirAll(store.WorkDir(id), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(store.InputPath(id), fq, 0o644); err != nil {
			t.Fatal(err)
		}
		rec := `{"id": "` + id + `", "state": "queued", "params": ` + p +
			`, "numReads": 1, "maxReadLen": 64, "deviceDemandBytes": 67108864,` +
			` "submittedAt": "2024-01-01T00:00:00Z", "attempts": 1}`
		if err := os.WriteFile(filepath.Join(dir, "job.json"), []byte(rec), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := New(testServerConfig(root))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for id := range params {
		final := pollJob(t, ts.URL, id)
		if final.State != StateFailed {
			t.Errorf("%s: recovered job finished %s, want failed", id, final.State)
		}
		if !strings.Contains(final.Error, core.BackendSuccinct) {
			t.Errorf("%s: error %q does not name %s", id, final.Error, core.BackendSuccinct)
		}
		if final.Result != nil {
			t.Errorf("%s: failed job carries a result", id)
		}
		onDisk, err := srv.Store().Load(id)
		if err != nil {
			t.Fatal(err)
		}
		if onDisk.State != StateFailed {
			t.Errorf("%s: on-disk state %s, want the failure persisted", id, onDisk.State)
		}
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
