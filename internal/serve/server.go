package serve

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"slices"
	"strconv"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/fastq"
	"repro/internal/gpu"
	"repro/internal/obs"
)

// Config parameterizes a job server.
type Config struct {
	// Root is the data directory (job records, inputs, workspaces).
	Root string
	// GPU is the card model jobs are costed and fingerprinted against.
	// Every job runs under this spec (with its lease as the memory bound),
	// so results and resume manifests are identical no matter which fleet
	// device admission placed the job on.
	GPU gpu.Spec
	// Devices sizes a homogeneous fleet of GPU-spec cards (default 1).
	// DeviceSpecs, when set, overrides both with an explicit — possibly
	// heterogeneous — device list.
	Devices     int
	DeviceSpecs []gpu.Spec
	// NoSteal disables work stealing between fleet devices.
	NoSteal bool
	// TenantShare caps each tenant's in-flight leased bytes at this
	// fraction of total fleet capacity (0 = no cap).
	TenantShare float64
	// QueueCap bounds the run queue (default 16); MaxConcurrent bounds
	// simultaneous runs per device (default 2).
	QueueCap      int
	MaxConcurrent int
	// Pipeline geometry shared by all jobs; zero values take the core
	// defaults. Per-job knobs live in Params.
	HostBlockPairs   int
	DeviceBlockPairs int
	MapBatchReads    int
	// MaxBodyBytes caps a submission body (default 256 MiB).
	MaxBodyBytes int64
	// HostMemBytes is the host-memory budget one job may claim under the
	// admission model (default 8 GiB). Submission is rejected with 422
	// when core.GraphHostModel for the job's size and selected graph
	// backend exceeds it; /healthz advertises the resulting per-backend
	// maximum job sizes. The budget bounds the modeled footprint — reads
	// plus graph representation — not the Go process RSS.
	HostMemBytes int64
	// RetryAfter floors the Retry-After advertised on 429 responses
	// (default 2s). Once jobs have finished, the advertised value adapts:
	// queue depth times the recent mean service time, never below this.
	RetryAfter time.Duration
	// Obs is the server's observability sink. Its metrics registry (one is
	// created if absent) carries the scheduler gauges/counters and the
	// per-job child registries the debug endpoint serves.
	Obs *obs.Observer
	// StageCommitHook, when set, fires after every stage a job commits,
	// with the job's run context; tests use it to pause a job or kill the
	// server at a precise recovery point. For sharded jobs it fires per
	// node-stage commit.
	StageCommitHook func(ctx context.Context, jobID string, stage core.PhaseName) error
	// FlightRecorderEvents enables the fleet flight recorder when
	// positive: a bounded global log of that many scheduler lifecycle
	// events (served at /debug/events and per job at
	// /v1/jobs/{id}/events), a per-job flight trace merging lifecycle and
	// pipeline spans (/v1/jobs/{id}/trace), and SLO latency histograms on
	// the metrics registry. Zero — the library default — disables all of
	// it; job output bytes and modeled costs are identical either way.
	FlightRecorderEvents int
}

// Server is the multi-tenant assembly job service: HTTP API + scheduler +
// store, sharing a fleet of bounded devices.
type Server struct {
	cfg     Config
	store   *Store
	sched   *Scheduler
	fleet   *gpu.Fleet
	mux     *http.ServeMux
	handler http.Handler
	log     *slog.Logger
	flight  *FlightRecorder
	started time.Time
}

// New opens the data directory, sweeps orphaned state from crashed runs,
// recovers persisted jobs (terminal ones become listable, interrupted
// ones re-queue and resume through their manifests), builds the device
// fleet, and starts the scheduler.
func New(cfg Config) (*Server, error) {
	if cfg.Root == "" {
		return nil, fmt.Errorf("serve: empty root directory")
	}
	if cfg.GPU.MemBytes <= 0 {
		return nil, fmt.Errorf("serve: GPU spec has no memory capacity")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 256 << 20
	}
	if cfg.HostMemBytes <= 0 {
		cfg.HostMemBytes = 8 << 30
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 2 * time.Second
	}
	if cfg.Obs == nil || cfg.Obs.Metrics() == nil {
		cfg.Obs = obs.New(cfg.Obs.Log(), cfg.Obs.Tracer(), obs.NewRegistry())
	}
	specs := cfg.DeviceSpecs
	if len(specs) == 0 {
		if cfg.Devices <= 0 {
			cfg.Devices = 1
		}
		specs = make([]gpu.Spec, cfg.Devices)
		for i := range specs {
			specs[i] = cfg.GPU
		}
	}
	fleet, err := gpu.NewFleet(specs)
	if err != nil {
		return nil, err
	}
	store, err := NewStore(cfg.Root)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		fleet:   fleet,
		log:     cfg.Obs.Log(),
		started: time.Now(),
	}
	if cfg.FlightRecorderEvents > 0 {
		s.flight = NewFlightRecorder(cfg.FlightRecorderEvents, cfg.Obs.Metrics())
	}
	tr := cfg.Obs.Tracer()
	tr.NameProcess(0, "scheduler")
	for d := 0; d < fleet.Size(); d++ {
		tr.NameProcess(int64(d)+1, fmt.Sprintf("device%02d %s", d, fleet.Device(d).Spec().Name))
	}
	s.sched, err = NewScheduler(SchedulerConfig{
		Fleet:         fleet,
		QueueCap:      cfg.QueueCap,
		MaxConcurrent: cfg.MaxConcurrent,
		NoSteal:       cfg.NoSteal,
		TenantShare:   cfg.TenantShare,
		Run:           s.runJob,
		OnTransition:  s.onTransition,
		Obs:           cfg.Obs,
		Recorder:      s.flight,
	})
	if err != nil {
		return nil, err
	}
	if _, err := store.Sweep(s.log); err != nil {
		return nil, err
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.mux = s.buildMux()
	s.handler = s.withRequestLog(s.mux)
	return s, nil
}

// recover reloads every persisted job: terminal records register for
// listing, as do interrupted ones whose record selects a removed engine,
// which fail first (see Store.CheckEngine); other submitted/queued/running
// records re-enter the queue (in
// original submission order) and resume mid-pipeline via their run
// manifests — possibly on different devices than the crashed attempt,
// which is safe because jobs are fingerprinted against the base GPU spec,
// not the fleet card they land on.
func (s *Server) recover() error {
	recs, err := s.store.List()
	if err != nil {
		return err
	}
	for _, rec := range recs {
		j := NewJob(rec)
		if !rec.State.Terminal() {
			if err := s.store.CheckEngine(rec.ID); err != nil {
				s.log.Error("failing recovered job", "job", rec.ID, "err", err)
				now := time.Now().UTC()
				j.Update(func(r *Record) { r.State, r.Error, r.FinishedAt = StateFailed, err.Error(), &now })
				s.onTransition(j)
			}
		}
		if j.Record().State.Terminal() {
			s.sched.Register(j)
			continue
		}
		s.log.Info("recovering interrupted job", "job", rec.ID, "state", rec.State,
			"attempts", rec.Attempts)
		s.sched.Recover(j)
	}
	return nil
}

// Handler returns the server's HTTP handler: the API mux wrapped in the
// request-logging middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// FlightRecorder exposes the flight recorder; nil when disabled.
func (s *Server) FlightRecorder() *FlightRecorder { return s.flight }

// Fleet exposes the device inventory (admission accounting, tests).
func (s *Server) Fleet() *gpu.Fleet { return s.fleet }

// Scheduler exposes the scheduler (metrics, tests).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Store exposes the on-disk layout (tests, tooling).
func (s *Server) Store() *Store { return s.store }

// Drain gracefully shuts the job layer down: submissions are rejected,
// running jobs are cancelled at the next device batch with their
// committed stages resumable, and every record is flushed. The HTTP
// listener is the caller's to close (http.Server.Shutdown first).
func (s *Server) Drain(ctx context.Context) error { return s.sched.Drain(ctx) }

// Kill crash-stops the job layer without persisting anything; tests use
// it to exercise the recovery path.
func (s *Server) Kill() { s.sched.Kill() }

// onTransition persists every job state change and finishes terminal
// jobs' workspace cleanup. A job handed back to the queue after running
// (preemption or drain) gets its sort scratch swept here — the scheduler
// fires this before the job can start again, and its next attempt may
// land on different devices.
func (s *Server) onTransition(j *Job) {
	rec := j.Record()
	if err := s.store.Save(rec); err != nil {
		s.log.Error("persisting job record", "job", rec.ID, "err", err)
	}
	switch {
	case rec.State.Terminal():
		if err := s.store.CleanupWorkspace(rec.ID); err != nil {
			s.log.Error("cleaning job workspace", "job", rec.ID, "err", err)
		}
	case rec.State == StateQueued && rec.Attempts > 0:
		if err := s.store.SweepScratch(rec.ID); err != nil {
			s.log.Error("sweeping job scratch", "job", rec.ID, "err", err)
		}
	}
}

// jobConfig builds the core configuration a job runs under. The job's
// device is a private handle whose capacity equals the job's lease, so a
// job can never use more device memory than admission granted it; the
// demand is persisted in the record, which keeps the config fingerprint —
// and therefore manifest resume — stable across server restarts and
// across whichever fleet device the attempt lands on.
func (s *Server) jobConfig(rec Record) core.Config {
	cfg := core.DefaultConfig(s.store.WorkDir(rec.ID))
	if s.cfg.HostBlockPairs > 0 {
		cfg.HostBlockPairs = s.cfg.HostBlockPairs
	}
	if s.cfg.DeviceBlockPairs > 0 {
		cfg.DeviceBlockPairs = s.cfg.DeviceBlockPairs
	}
	if s.cfg.MapBatchReads > 0 {
		cfg.MapBatchReads = s.cfg.MapBatchReads
	}
	cfg.MinOverlap = rec.Params.MinOverlap
	cfg.Workers = rec.Params.Workers
	cfg.DedupeReads = rec.Params.DedupeReads
	cfg.IncludeSingletons = rec.Params.IncludeSingletons
	cfg.VerifyOverlaps = rec.Params.VerifyOverlaps
	cfg.GraphBackend = rec.Params.GraphBackend
	cfg.GPU = s.cfg.GPU
	if rec.DeviceDemandBytes > 0 {
		cfg.GPU.MemBytes = rec.DeviceDemandBytes
	}
	cfg.Resume = true // a fresh workspace has no manifest; resume is a no-op there
	return cfg
}

// runJob executes one job, single-device through the core pipeline or
// sharded across its leased devices through the cluster layer. Reads come
// from the persisted input, and the job's private metrics registry is
// mounted on the server registry under a job="<id>" label for the
// lifetime of the run.
func (s *Server) runJob(ctx context.Context, j *Job) error {
	rec := j.Record()
	reads, _, err := fastq.ReadFile(s.store.InputPath(rec.ID))
	if err != nil {
		return fmt.Errorf("serve: reloading job input: %w", err)
	}

	jobReg := obs.NewRegistry()
	parent := s.cfg.Obs.Metrics()
	label := `job="` + rec.ID + `"`
	parent.AttachChild(label, jobReg)
	defer parent.DetachChild(label)
	// With the flight recorder on, the job's tracer (already carrying its
	// scheduler lifecycle spans) also collects the run's pipeline spans,
	// so /v1/jobs/{id}/trace shows both in one Perfetto view.
	jobObs := obs.New(s.log.With("job", rec.ID), j.Tracer(), jobReg)

	if rec.Params.ShardCount() > 1 {
		return s.runShardedJob(ctx, j, reads, jobObs)
	}

	cfg := s.jobConfig(rec)
	cfg.Obs = jobObs
	cfg.Progress = func(stage, event string) {
		j.Update(func(r *Record) {
			r.Stage = stage
			switch event {
			case core.ProgressDone:
				r.StagesDone = append(r.StagesDone, stage)
			case core.ProgressCached:
				r.StagesDone = append(r.StagesDone, stage)
				r.CachedStages = append(r.CachedStages, stage)
			}
		})
		if err := s.store.Save(j.Record()); err != nil {
			s.log.Error("persisting job progress", "job", rec.ID, "err", err)
		}
	}

	p, err := core.New(cfg)
	if err != nil {
		return err
	}
	p.FaultHook = func(stage core.PhaseName) error {
		s.flight.Emit(j, EventStageCommit, map[string]any{"stage": string(stage)})
		if err := s.checkPreempt(j); err != nil {
			return err
		}
		if s.cfg.StageCommitHook != nil {
			return s.cfg.StageCommitHook(ctx, rec.ID, stage)
		}
		return nil
	}
	res, err := p.AssembleContext(ctx, reads)
	if err != nil {
		return err
	}
	if err := s.store.InstallResult(rec.ID); err != nil {
		return err
	}
	j.Update(func(r *Record) {
		r.CachedStages = append([]string(nil), res.CachedStages...)
		r.Result = &ResultSummary{
			NumContigs:     res.ContigStats.NumContigs,
			TotalBases:     res.ContigStats.TotalBases,
			MaxContigLen:   res.ContigStats.MaxLen,
			N50:            res.ContigStats.N50,
			CandidateEdges: res.CandidateEdges,
			AcceptedEdges:  res.AcceptedEdges,
			WallMillis:     res.TotalWall.Milliseconds(),
			ModeledMillis:  res.TotalModeled.Milliseconds(),
		}
	})
	return nil
}

// checkPreempt turns a pending preemption request into the drain error a
// run function returns at a stage commit.
func (s *Server) checkPreempt(j *Job) error {
	select {
	case <-j.Preempted():
		return ErrPreempted
	default:
		return nil
	}
}

// runShardedJob executes a Shards>1 job through the cluster layer: one
// simulated node per shard, node i bound to a private device whose
// capacity equals the per-shard lease admission granted on fleet device
// Devices[i]. The cluster's lockstep manifests make the sharded job
// exactly as preemptible and crash-resumable as a single-device one, and
// its contig output is byte-identical to the unsharded pipeline under the
// same parameters.
func (s *Server) runShardedJob(ctx context.Context, j *Job, reads *dna.ReadSet, jobObs *obs.Observer) error {
	rec := j.Record()
	k := rec.Params.ShardCount()
	base := s.cfg.GPU
	if rec.DeviceDemandBytes > 0 {
		base.MemBytes = rec.DeviceDemandBytes
	}
	specs := make([]gpu.Spec, k)
	for i := range specs {
		specs[i] = base
	}
	jobFleet, err := gpu.NewFleet(specs)
	if err != nil {
		return err
	}

	ccfg := cluster.DefaultConfig(s.store.WorkDir(rec.ID), k)
	if s.cfg.HostBlockPairs > 0 {
		ccfg.HostBlockPairs = s.cfg.HostBlockPairs
	}
	if s.cfg.DeviceBlockPairs > 0 {
		ccfg.DeviceBlockPairs = s.cfg.DeviceBlockPairs
	}
	if s.cfg.MapBatchReads > 0 {
		ccfg.MapBatchReads = s.cfg.MapBatchReads
	}
	ccfg.MinOverlap = rec.Params.MinOverlap
	ccfg.WorkersPerNode = rec.Params.Workers
	ccfg.IncludeSingletons = rec.Params.IncludeSingletons
	ccfg.GraphBackend = rec.Params.GraphBackend
	ccfg.GPU = base
	ccfg.Fleet = jobFleet
	ccfg.Resume = true
	ccfg.Obs = jobObs

	cl, err := cluster.New(ccfg)
	if err != nil {
		return err
	}
	cl.FaultHook = func(nodeID int, stage core.PhaseName) error {
		s.flight.Emit(j, EventStageCommit, map[string]any{
			"stage": string(stage), "node": nodeID})
		if err := s.checkPreempt(j); err != nil {
			return err
		}
		if s.cfg.StageCommitHook != nil {
			return s.cfg.StageCommitHook(ctx, rec.ID, stage)
		}
		return nil
	}
	res, err := cl.AssembleContext(ctx, reads)
	if err != nil {
		return err
	}
	if err := s.store.InstallResult(rec.ID); err != nil {
		return err
	}
	j.Update(func(r *Record) {
		r.CachedStages = append([]string(nil), res.CachedStages...)
		r.Result = &ResultSummary{
			NumContigs:     res.ContigStats.NumContigs,
			TotalBases:     res.ContigStats.TotalBases,
			MaxContigLen:   res.ContigStats.MaxLen,
			N50:            res.ContigStats.N50,
			CandidateEdges: res.CandidateEdges,
			AcceptedEdges:  res.AcceptedEdges,
			WallMillis:     res.TotalWall.Milliseconds(),
			ModeledMillis:  res.TotalModeled.Milliseconds(),
		}
	})
	return nil
}

// buildMux wires the HTTP API.
func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handlePrometheus)
	mux.HandleFunc("GET /debug/metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/events", s.handleDebugEvents)
	return mux
}

// statusWriter remembers the status code a handler wrote, for the
// request log line.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// newRequestID returns a fresh random request identifier (16 hex chars).
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// withRequestLog logs one slog line per API call (method, path, status,
// duration) and tags every response with a generated X-Request-Id so a
// client report can be joined against the server log.
func (s *Server) withRequestLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := newRequestID()
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		s.log.Info("http request", "requestId", id, "method", r.Method,
			"path", r.URL.Path, "status", sw.status,
			"durMs", time.Since(start).Milliseconds())
	})
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// parseParams reads the per-job knobs from the submit query string.
func parseParams(r *http.Request) (Params, error) {
	q := r.URL.Query()
	p := Params{MinOverlap: 63, Workers: 1}
	if v := q.Get("lmin"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return p, fmt.Errorf("invalid lmin %q", v)
		}
		p.MinOverlap = n
	}
	if v := q.Get("workers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return p, fmt.Errorf("invalid workers %q", v)
		}
		p.Workers = n
	}
	if v := q.Get("shards"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return p, fmt.Errorf("invalid shards %q", v)
		}
		p.Shards = n
	}
	boolParam := func(key string, dst *bool) error {
		v := q.Get(key)
		if v == "" {
			return nil
		}
		b, err := strconv.ParseBool(v)
		if err != nil {
			return fmt.Errorf("invalid %s %q", key, v)
		}
		*dst = b
		return nil
	}
	if q.Has("fullgraph") {
		return p, fmt.Errorf("fullgraph was removed: use graph-backend=%s", core.BackendSuccinct)
	}
	for key, dst := range map[string]*bool{
		"dedupe":     &p.DedupeReads,
		"singletons": &p.IncludeSingletons,
		"verify":     &p.VerifyOverlaps,
	} {
		if err := boolParam(key, dst); err != nil {
			return p, err
		}
	}
	if v := q.Get("graph-backend"); v != "" {
		if _, err := core.ResolveBackend(v); err != nil {
			return p, err
		}
		p.GraphBackend = v
	}
	if v := q.Get("priority"); v != "" {
		if !slices.Contains(Priorities, v) {
			return p, fmt.Errorf("invalid priority %q (want one of %v)", v, Priorities)
		}
		p.Priority = v
	}
	p.Tenant = q.Get("tenant")
	if p.ShardCount() > 1 {
		if p.DedupeReads || p.VerifyOverlaps {
			return p, fmt.Errorf("shards > 1 does not support dedupe or verify")
		}
	}
	return p, nil
}

// handleSubmit accepts a FASTQ/FASTA body plus query-string knobs,
// persists the job, and queues it. Responses: 201 with the job record,
// 400 on bad input, 413 when the body exceeds the limit, 422 when the job
// can never fit on the fleet, 429 (+ adaptive Retry-After) when the run
// queue is full, 503 while draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	params, err := parseParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", s.cfg.MaxBodyBytes)
		return
	}
	reads, _, err := fastq.ReadAll(bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, "parsing reads: %v", err)
		return
	}
	if reads.NumReads() == 0 {
		writeError(w, http.StatusBadRequest, "no reads in body")
		return
	}
	if reads.MaxLen() <= params.MinOverlap {
		writeError(w, http.StatusUnprocessableEntity,
			"lmin %d is not below the longest read length %d", params.MinOverlap, reads.MaxLen())
		return
	}

	rec := Record{
		ID:          NewJobID(),
		Name:        r.URL.Query().Get("name"),
		State:       StateSubmitted,
		Params:      params,
		NumReads:    reads.NumReads(),
		MaxReadLen:  reads.MaxLen(),
		SubmittedAt: time.Now().UTC(),
	}
	rec.DeviceDemandBytes = s.jobConfig(rec).DeviceDemandBytes(reads.MaxLen())
	if fit := s.fleet.FitCount(rec.DeviceDemandBytes); fit < params.ShardCount() {
		writeError(w, http.StatusUnprocessableEntity,
			"job needs %d device(s) with %d bytes of memory, fleet has %d that large: lower workers or shards",
			params.ShardCount(), rec.DeviceDemandBytes, fit)
		return
	}
	backend, _ := core.ResolveBackend(params.GraphBackend) // validated by parseParams
	if demand := core.GraphHostModel(backend, reads.NumReads(), reads.MaxLen()); demand > s.cfg.HostMemBytes {
		writeError(w, http.StatusUnprocessableEntity,
			"job's modeled host footprint %d bytes exceeds the %d-byte budget: backend %q admits at most %d reads of length %d",
			demand, s.cfg.HostMemBytes, backend,
			core.MaxReadsForHostBudget(backend, s.cfg.HostMemBytes, reads.MaxLen()), reads.MaxLen())
		return
	}
	if err := s.store.CreateJob(rec, body); err != nil {
		writeError(w, http.StatusInternalServerError, "persisting job: %v", err)
		return
	}
	j := NewJob(rec)
	if err := s.sched.Submit(j); err != nil {
		if rmErr := s.store.Remove(rec.ID); rmErr != nil {
			s.log.Error("removing rejected job", "job", rec.ID, "err", rmErr)
		}
		switch {
		case errors.Is(err, ErrQueueFull):
			retry := s.sched.EstimateRetryAfter(s.cfg.RetryAfter)
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retry.Seconds()))))
			writeError(w, http.StatusTooManyRequests, "run queue is full, retry later")
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, "server is draining")
		default:
			writeError(w, http.StatusUnprocessableEntity, "%v", err)
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+rec.ID)
	writeJSON(w, http.StatusCreated, j.Record())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.sched.Jobs()
	recs := make([]Record, 0, len(jobs))
	for _, j := range jobs {
		recs = append(recs, j.Record())
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs":  recs,
		"fleet": s.sched.Snapshot(),
	})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.Record())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.sched.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s", id)
		return
	}
	rec := j.Record()
	if rec.State != StateSucceeded {
		writeError(w, http.StatusConflict, "job %s is %s, not succeeded", id, rec.State)
		return
	}
	f, err := os.Open(s.store.ResultPath(id))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "opening result: %v", err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "text/x-fasta")
	io.Copy(w, f)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, err := s.sched.Cancel(id)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, rec)
	case errors.Is(err, ErrJobTerminal):
		writeError(w, http.StatusConflict, "job %s is already %s", id, rec.State)
	default:
		writeError(w, http.StatusNotFound, "%v", err)
	}
}

// admissionReadLen is the reference read length /healthz quotes the
// per-backend maximum job sizes at. Submissions are still admitted
// against their actual MaxLen; this only anchors the advertised numbers.
const admissionReadLen = 150

// handleHealthz reports liveness plus the per-device admission state:
// every fleet card's capacity, leased bytes, queue, and running jobs,
// alongside the fleet-wide steal/preemption counters, the binary's
// build identity, how long the server has been up, and the host-side
// admission envelope — the modeled maximum reads each graph backend
// admits under the configured host budget.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.sched.Snapshot()
	version, revision, modified := buildinfo.Info()
	if modified {
		revision += "-modified"
	}
	maxReads := make(map[string]int, len(core.Backends))
	for _, b := range core.Backends {
		maxReads[b] = core.MaxReadsForHostBudget(b, s.cfg.HostMemBytes, admissionReadLen)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"version":       version,
		"revision":      revision,
		"uptimeSeconds": math.Round(time.Since(s.started).Seconds()),
		"queueDepth":    snap.QueueDepth,
		"jobsRunning":   snap.JobsRunning,
		"fleet":         snap,
		"admission": map[string]any{
			"hostMemBytes":       s.cfg.HostMemBytes,
			"referenceReadLen":   admissionReadLen,
			"maxReadsPerBackend": maxReads,
		},
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Obs.Metrics().Snapshot())
}

// handlePrometheus renders the metrics registry — scheduler instruments,
// SLO histograms, and any live jobs' child registries under their
// job="<id>" label — in Prometheus text exposition format 0.0.4.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentTypePrometheus)
	obs.WritePrometheus(w, s.cfg.Obs.Metrics().Snapshot())
}

// handleJobEvents serves a job's flight-recorder lifecycle history in
// emission order. With the recorder disabled the list is empty.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.sched.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s", id)
		return
	}
	rec := j.Record()
	events := rec.Events
	if events == nil {
		events = []obs.LogEvent{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"job":         id,
		"totalEvents": rec.TotalEvents,
		"dropped":     rec.TotalEvents - uint64(len(events)),
		"events":      events,
	})
}

// handleJobTrace serves the job's flight trace as Chrome trace-event
// JSON: scheduler lifecycle spans (queued gaps on the scheduler track,
// run attempts on per-device tracks) merged with the run's own pipeline
// spans. 404 while the flight recorder is disabled.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.sched.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s", id)
		return
	}
	tr := j.Tracer()
	if tr == nil {
		writeError(w, http.StatusNotFound,
			"no flight trace for job %s: flight recorder is disabled", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	tr.WriteJSON(w)
}

// handleDebugEvents serves the global scheduler audit log, newest window
// of FlightRecorderEvents entries, optionally filtered to sequence
// numbers after ?since=N. 404 while the flight recorder is disabled.
func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		writeError(w, http.StatusNotFound, "flight recorder is disabled")
		return
	}
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid since %q", v)
			return
		}
		since = n
	}
	log := s.flight.Log()
	events := log.Since(since)
	if events == nil {
		events = []obs.LogEvent{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total":   log.Total(),
		"dropped": log.Dropped(),
		"events":  events,
	})
}
