// Package serve turns the single-shot assembly pipeline into a
// multi-tenant job service: an HTTP API accepts FASTQ jobs, a sharded
// scheduler with real admission control packs them onto a fleet of
// simulated GPUs, and per-job JSON records plus the core run manifests
// make the whole thing crash-safe — a killed server restarts, re-lists
// its jobs, and resumes in-flight ones mid-pipeline, possibly on
// different devices than the crashed attempt.
//
// Admission happens at two levels, mirroring the paper's two-level memory
// model: bounded priority lanes with HTTP 429 backpressure (and an
// adaptive Retry-After) bound the host-side backlog, and device-memory
// leases (Config.DeviceDemandBytes claimed against specific fleet
// devices) bound how many jobs run concurrently — the sum of admitted
// leases can never exceed any card, so concurrent jobs never
// oversubscribe device memory. Each device runs its own dispatcher:
// idle cards steal queued work from loaded ones, interactive jobs go
// ahead of batch jobs and may preempt them (drain at the next stage
// commit, requeue resumable), tenants are capped at a share of in-flight
// fleet bytes, and a Shards=K job runs across K devices via the cluster
// layer. A job's FASTA output is byte-identical regardless of which
// devices ran it, how often it was preempted, or its shard count.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"

	"repro/internal/obs"
)

// The Params.Priority admission lanes, in descending scheduling priority.
const (
	// PriorityInteractive jobs are dispatched before any batch job and may
	// preempt running batch jobs when no device has room.
	PriorityInteractive = "interactive"
	// PriorityBatch is the default lane (also the resolution of "").
	PriorityBatch = "batch"
)

// Priorities lists the valid Params.Priority values, for API validation.
var Priorities = []string{PriorityInteractive, PriorityBatch}

// State is one point in a job's lifecycle. The transitions are:
//
//	submitted -> queued -> running -> succeeded | failed | canceled
//
// with two exceptions: a queued job may go straight to canceled, and a
// running job returns to queued when the server drains (SIGTERM) or
// crashes — its committed stages resume from the run manifest on the next
// start. succeeded/failed/canceled are terminal.
type State string

const (
	StateSubmitted State = "submitted"
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether the state ends the job's lifecycle.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// Params are the per-job assembly knobs a client may set at submit time.
// Everything else (block sizes, the modeled card) is server configuration:
// jobs share one device, so its geometry is not theirs to choose.
type Params struct {
	MinOverlap        int  `json:"minOverlap"`
	Workers           int  `json:"workers"`
	DedupeReads       bool `json:"dedupeReads,omitempty"`
	IncludeSingletons bool `json:"includeSingletons,omitempty"`
	VerifyOverlaps    bool `json:"verifyOverlaps,omitempty"`
	// GraphBackend selects the reduce/compress engine ("" or "greedy" for
	// the paper's greedy graph, or "succinct" for the string graph); see
	// core.Config.GraphBackend.
	GraphBackend string `json:"graphBackend,omitempty"`
	// Priority selects the admission lane: "" or "batch", or
	// "interactive" for jobs dispatched ahead of every batch job (and
	// allowed to preempt running batch jobs when no device has room).
	Priority string `json:"priority,omitempty"`
	// Tenant groups jobs for fairness accounting: the scheduler caps each
	// tenant's in-flight device bytes at its configured share of the
	// fleet. "" is the anonymous tenant.
	Tenant string `json:"tenant,omitempty"`
	// Shards splits the job across this many fleet devices via the
	// cluster layer (0 or 1 = single-device pipeline). Output is
	// byte-identical at every shard count.
	Shards int `json:"shards,omitempty"`
}

// Lane returns the resolved priority lane ("" means batch).
func (p Params) Lane() string {
	if p.Priority == "" {
		return PriorityBatch
	}
	return p.Priority
}

// ShardCount returns the resolved shard count (0 means 1).
func (p Params) ShardCount() int {
	if p.Shards < 1 {
		return 1
	}
	return p.Shards
}

// ResultSummary is the part of a finished run worth keeping in the job
// record; the full FASTA is fetched separately.
type ResultSummary struct {
	NumContigs     int     `json:"numContigs"`
	TotalBases     int64   `json:"totalBases"`
	MaxContigLen   int     `json:"maxContigLen"`
	N50            int     `json:"n50"`
	CandidateEdges int64   `json:"candidateEdges"`
	AcceptedEdges  int64   `json:"acceptedEdges"`
	WallMillis     int64   `json:"wallMillis"`
	ModeledMillis  int64   `json:"modeledMillis"`
	QueueWaitMs    float64 `json:"queueWaitMs"`
}

// Record is the persistent state of one job, stored as job.json in the
// job's directory and rewritten atomically on every transition. Together
// with the persisted input FASTQ and the core run manifest it is
// everything a restarted server needs to resume the job.
type Record struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	State  State  `json:"state"`
	Params Params `json:"params"`

	NumReads   int `json:"numReads"`
	MaxReadLen int `json:"maxReadLen"`
	// DeviceDemandBytes is the device-memory lease this job needs on each
	// device it runs on (core.Config.DeviceDemandBytes; a sharded job
	// leases this much on every shard's device), fixed at submit time so a
	// restarted server admits — and fingerprints — the job identically.
	DeviceDemandBytes int64 `json:"deviceDemandBytes"`
	// Devices lists the fleet device indices the job's current (or last)
	// attempt leased: one entry for an unsharded job, Shards entries for a
	// sharded one. Cleared while the job waits in a lane.
	Devices []int `json:"devices,omitempty"`
	// Preemptions counts how many times a running attempt was drained at a
	// stage commit to make room for a higher-priority job.
	Preemptions int `json:"preemptions,omitempty"`

	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`
	// Attempts counts how many times the job entered running; >1 means the
	// job was resumed after a drain or crash.
	Attempts int `json:"attempts"`

	// Stage is the pipeline stage most recently reported by the run's
	// progress callback; StagesDone lists completed stages in order, and
	// CachedStages the ones a resumed attempt replayed from the manifest.
	Stage        string   `json:"stage,omitempty"`
	StagesDone   []string `json:"stagesDone,omitempty"`
	CachedStages []string `json:"cachedStages,omitempty"`

	Error  string         `json:"error,omitempty"`
	Result *ResultSummary `json:"result,omitempty"`

	// Events is the job's flight-recorder history: every lifecycle event
	// the scheduler emitted for it (enqueue, claim, steal, drain, ...),
	// bounded at maxJobRecordEvents with the oldest evicted first.
	// TotalEvents counts every emission, so a gap is detectable. Both stay
	// empty while the recorder is disabled.
	Events      []obs.LogEvent `json:"events,omitempty"`
	TotalEvents uint64         `json:"totalEvents,omitempty"`
}

// Job is the scheduler's runtime handle on one record: the record itself
// plus the cancellation and preemption plumbing that never touches disk.
type Job struct {
	mu              sync.Mutex
	rec             Record
	cancel          context.CancelFunc // run context; set at dispatch
	cancelRequested bool
	enqueuedAt      time.Time
	// preemptCh is closed when the scheduler asks the running attempt to
	// drain at its next stage commit; replaced with a fresh channel on
	// every requeue so a resumed attempt starts unpreempted.
	preemptCh chan struct{}
	// preemptRequestedAt stamps the current attempt's drain request, for
	// the preempt-drain latency histogram; zero when none is pending.
	preemptRequestedAt time.Time
	// requeueReason records why the job most recently left a device
	// ("preempt" or "drain"), so the claim that resumes it can name the
	// gap span it just closed. Consumed at claim time.
	requeueReason string
	// tracer collects the job's flight trace (lifecycle spans from the
	// scheduler plus the run's own pipeline spans); nil unless the
	// scheduler's flight recorder is enabled.
	tracer *obs.Tracer
}

// NewJob wraps a record for scheduling.
func NewJob(rec Record) *Job { return &Job{rec: rec, preemptCh: make(chan struct{})} }

// Preempted returns a channel closed when the scheduler has asked this
// attempt to drain at its next stage commit. Run functions select on it
// at stage boundaries and return ErrPreempted to hand the device back;
// the scheduler then requeues the job with its committed stages
// resumable.
func (j *Job) Preempted() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.preemptCh
}

// requestPreempt asks the current attempt to drain. Idempotent per
// attempt. Reports whether this call delivered a new request.
func (j *Job) requestPreempt() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	select {
	case <-j.preemptCh:
		return false // already requested for this attempt
	default:
		close(j.preemptCh)
		j.preemptRequestedAt = time.Now()
		return true
	}
}

// preemptLatency returns how long ago the pending drain request was
// delivered, or 0 when none is pending.
func (j *Job) preemptLatency() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.preemptRequestedAt.IsZero() {
		return 0
	}
	return time.Since(j.preemptRequestedAt)
}

// setRequeueReason records why the job is about to leave its devices.
func (j *Job) setRequeueReason(reason string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.requeueReason = reason
}

// peekRequeueReason reads the pending requeue reason without consuming.
func (j *Job) peekRequeueReason() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.requeueReason
}

// takeRequeueReason consumes the pending requeue reason: the claim that
// resumes the job uses it once to name the gap span it closes.
func (j *Job) takeRequeueReason() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := j.requeueReason
	j.requeueReason = ""
	return r
}

// Tracer returns the job's flight trace collector; nil unless the
// scheduler's flight recorder is enabled. All Tracer methods are
// nil-safe.
func (j *Job) Tracer() *obs.Tracer {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tracer
}

// ID returns the job's identifier without cloning the whole record.
func (j *Job) ID() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.ID
}

// preemptRequested reports whether the current attempt has been asked to
// drain.
func (j *Job) preemptRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	select {
	case <-j.preemptCh:
		return true
	default:
		return false
	}
}

// resetPreempt arms a fresh preemption channel for the next attempt.
func (j *Job) resetPreempt() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.preemptRequestedAt = time.Time{}
	select {
	case <-j.preemptCh:
		j.preemptCh = make(chan struct{})
	default:
	}
}

// Record returns a consistent deep copy of the job's record.
func (j *Job) Record() Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.clone()
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.State
}

// CancelRequested reports whether a user cancellation was requested.
func (j *Job) CancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelRequested
}

// Update mutates the record under the job lock.
func (j *Job) Update(fn func(*Record)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	fn(&j.rec)
}

// clone deep-copies the record so readers never share slices or pointers
// with the scheduler's mutating goroutines.
func (r Record) clone() Record {
	c := r
	c.StagesDone = append([]string(nil), r.StagesDone...)
	c.CachedStages = append([]string(nil), r.CachedStages...)
	c.Devices = append([]int(nil), r.Devices...)
	c.Events = append([]obs.LogEvent(nil), r.Events...)
	if r.StartedAt != nil {
		t := *r.StartedAt
		c.StartedAt = &t
	}
	if r.FinishedAt != nil {
		t := *r.FinishedAt
		c.FinishedAt = &t
	}
	if r.Result != nil {
		res := *r.Result
		c.Result = &res
	}
	return c
}

// NewJobID returns a fresh random job identifier ("j" + 12 hex chars).
func NewJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return "j" + hex.EncodeToString(b[:])
}
