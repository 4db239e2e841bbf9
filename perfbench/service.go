package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	lasagna "repro"
	"repro/internal/contig"
	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/readsim"
	"repro/internal/serve"
)

// The service workload's shape. Jobs are the H.Chr14 profile, 4,515 x
// 101 bp reads: small enough that per-file and per-request fixed costs
// (76 partition creates and fsyncs, manifest commits, job-record rewrites,
// HTTP) take a large share of each job. A quarter of that size would make
// them dominate, but the file system's own speed then swings run to run by
// more than any bound the benchmark could hold.
const (
	serviceInputs  = 8
	serviceClients = 2
	// pollInterval is how long a client waits between status polls.
	pollInterval = 10 * time.Millisecond
	// flightEvents sizes the flight recorder of the traced run's server.
	flightEvents = 1024
)

// serviceBackends alternate job by job.
var serviceBackends = []string{core.BackendGreedy, core.BackendSuccinct}

// jobInput is one of the service workload's generated inputs.
type jobInput struct {
	path   string
	body   []byte
	genome dna.Seq
	reads  *dna.ReadSet
}

// service is an in-process job server listening on loopback.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan error
}

func startService(root string, traced bool) (*service, error) {
	cfg := serve.Config{Root: root, GPU: gpu.K40, Devices: 1, MaxConcurrent: 2}
	if traced {
		cfg.FlightRecorderEvents = flightEvents
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Drain(context.Background()))
	}
	s := &service{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener and every connection, waits for the serving
// goroutine, and drains the job scheduler.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if served := <-s.served; !errors.Is(served, http.ErrServerClosed) {
		err = errors.Join(err, served)
	}
	return errors.Join(err, s.srv.Drain(ctx))
}

// setupService generates the inputs and starts a server whose /healthz
// answers.
func setupService(o options, root string, hc *http.Client) ([]jobInput, *service, error) {
	inputs := make([]jobInput, serviceInputs)
	for i := range inputs {
		p := serviceProfile(o, i)
		in := &inputs[i]
		in.path = filepath.Join(root, fmt.Sprintf("input%d.fastq", i))
		var err error
		if err = os.MkdirAll(root, 0o755); err != nil {
			return nil, nil, err
		}
		if in.genome, in.reads, err = writeInput(p, in.path); err != nil {
			return nil, nil, err
		}
		if in.body, err = os.ReadFile(in.path); err != nil {
			return nil, nil, err
		}
	}
	svc, err := startService(filepath.Join(root, "server"), o.trace)
	if err != nil {
		return nil, nil, err
	}
	if _, err := httpGet(hc, svc.base+"/healthz"); err != nil {
		return nil, nil, errors.Join(err, svc.stop())
	}
	return inputs, svc, nil
}

func serviceProfile(o options, i int) readsim.Profile {
	p := readsim.HChr14.Scaled(o.scale)
	p.Seed = o.seed*serviceInputs + int64(i)
	return p
}

// jobRun is one client-side job: submit, poll to a terminal state, fetch.
type jobRun struct {
	input   int
	backend string
	submit  time.Duration // POST round trip
	latency time.Duration // submit start to terminal state observed
	fetch   time.Duration // result GET round trip
	rec     serve.Record
	fasta   []byte
	err     error
}

func (j jobRun) set() string { return fmt.Sprintf("input%d/%s", j.input, j.backend) }

// runJob submits one job and follows it to the end. A non-201 submit (a
// 429 included) is a failed job, not a retry.
func runJob(hc *http.Client, base string, in jobInput, input int, backend string) jobRun {
	r := jobRun{input: input, backend: backend}
	start := time.Now()
	resp, err := hc.Post(base+"/v1/jobs?lmin=63&workers=1&graph-backend="+backend,
		"application/octet-stream", bytes.NewReader(in.body))
	if err != nil {
		r.err = err
		return r
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.submit = time.Since(start)
	switch {
	case err != nil:
		r.err = err
		return r
	case resp.StatusCode != http.StatusCreated:
		r.err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return r
	}
	if r.err = json.Unmarshal(body, &r.rec); r.err != nil {
		return r
	}
	for !r.rec.State.Terminal() {
		time.Sleep(pollInterval)
		body, err := httpGet(hc, base+"/v1/jobs/"+r.rec.ID)
		if err == nil {
			err = json.Unmarshal(body, &r.rec)
		}
		if err != nil {
			r.err = err
			return r
		}
	}
	r.latency = time.Since(start)
	if r.rec.State != serve.StateSucceeded {
		r.err = fmt.Errorf("job %s %s: %s", r.rec.ID, r.rec.State, r.rec.Error)
		return r
	}
	fetchStart := time.Now()
	r.fasta, r.err = httpGet(hc, base+"/v1/jobs/"+r.rec.ID+"/result")
	r.fetch = time.Since(fetchStart)
	return r
}

func httpGet(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// runService is the service-smalljobs workload: a closed loop of
// serviceClients clients against one in-process server. Job k assembles
// input (k/2) mod serviceInputs with serviceBackends[k mod 2].
func runService(ctx context.Context, o options) (*runReport, error) {
	hc := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serviceClients,
		MaxIdleConnsPerHost: serviceClients,
	}}
	defer hc.CloseIdleConnections()
	var inputs []jobInput
	var svc *service
	setups := make([]float64, setupRepeats)
	for i := range setups {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return nil, err
			}
		}
		var err error
		setups[i], err = timed(func() error {
			var err error
			inputs, svc, err = setupService(o, filepath.Join(o.dir, fmt.Sprintf("setup%d", i)), hc)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("setting up the server: %w", err)
		}
	}
	jobs, elapsed := driveClients(hc, svc.base, inputs, o.seconds)
	rssMB, err := peakRSSMB()
	if err != nil {
		return nil, errors.Join(err, svc.stop())
	}

	rep := &runReport{}
	rep.props, rep.metrics = serviceProperties(o, inputs, len(jobs)), map[string]float64{}
	if o.trace {
		if err := rep.jobLayers(hc, svc.base, jobs); err != nil {
			return nil, errors.Join(err, svc.stop())
		}
	}
	if err := svc.stop(); err != nil {
		return nil, err
	}

	// Correctness checks, after the timed section: each job's FASTA must
	// match a direct assembly of the same input and parameters.
	refs, err := referenceRuns(ctx, o, inputs, jobs, rep)
	if err != nil {
		return nil, err
	}
	aligners := make([]*aligner, len(inputs))
	for i, in := range inputs {
		aligners[i] = newAligner(in.genome)
	}
	atts := make([]attempt, len(jobs))
	for i, j := range jobs {
		atts[i] = attempt{set: j.set(), err: j.err, fasta: j.fasta, genome: aligners[j.input]}
		ref := refs[j.set()]
		if ref.err != nil && j.err == nil {
			atts[i].err = fmt.Errorf("direct assembly of %s failed: %w", j.set(), ref.err)
		}
		sum := sha256.Sum256(ref.fasta)
		atts[i].want = sum[:]
	}
	// Quality is pooled over one passing job per (input, backend) set, so
	// it does not depend on how many jobs of each set the run finished:
	// the N50 of all their contigs, and contig and covered bases over all
	// their genomes.
	var runWalls, latencies, modeled []float64
	var pooled []dna.Seq
	var contigBases, coveredBases, genomeBases int64
	pooledSets := map[string]bool{}
	for i, v := range checkAttempts(atts) {
		rep.tally.add(v.failure)
		j := jobs[i]
		if j.err != nil {
			continue
		}
		runWalls = append(runWalls, j.rec.FinishedAt.Sub(*j.rec.StartedAt).Seconds())
		latencies = append(latencies, j.latency.Seconds())
		modeled = append(modeled, float64(j.rec.Result.ModeledMillis)/1e3)
		if v.failure == "" && !pooledSets[j.set()] {
			pooledSets[j.set()] = true
			pooled = append(pooled, v.contigs...)
			contigBases += v.quality.stats.TotalBases
			coveredBases += int64(v.quality.coveredBases)
			genomeBases += int64(v.quality.genomeLen)
		}
	}
	if o.trace {
		rep.metrics["trace.job_latency_p50_s"] = median(latencies)
		return rep, nil
	}
	rep.metrics = map[string]float64{
		"assembly_s":         median(runWalls),
		"modeled_s":          mean(modeled),
		"peak_rss_mb":        rssMB,
		"n50":                float64(contig.Summarize(pooled).N50),
		"contig_bases_ratio": ratio(float64(contigBases), float64(genomeBases)),
		"genome_coverage":    ratio(float64(coveredBases), float64(genomeBases)),
		"job_latency_p50_s":  median(latencies),
		"job_latency_p90_s":  quantile(latencies, 0.9),
		"jobs_per_s":         float64(len(latencies)) / elapsed.Seconds(),
		"setup_s":            median(setups),
	}
	return rep, nil
}

// driveClients runs the closed loop until the run time is spent, then
// lets every client finish its job in flight. It returns the jobs in
// submission order and the time until the last one finished.
func driveClients(hc *http.Client, base string, inputs []jobInput, d time.Duration) ([]jobRun, time.Duration) {
	var next atomic.Int64
	perClient := make([][]jobRun, serviceClients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d || len(perClient[c]) == 0 {
				k := int(next.Add(1) - 1)
				in := (k / len(serviceBackends)) % len(inputs)
				perClient[c] = append(perClient[c], runJob(hc, base, inputs[in], in, serviceBackends[k%len(serviceBackends)]))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var jobs []jobRun
	for _, js := range perClient {
		jobs = append(jobs, js...)
	}
	return jobs, elapsed
}

func serviceProperties(o options, inputs []jobInput, jobs int) properties {
	var reads, dups int
	for _, in := range inputs {
		_, d := dna.Deduplicate(in.reads)
		reads += in.reads.NumReads()
		dups += d
	}
	props := profileProperties(serviceProfile(o, 0), inputs[0].reads)
	props.Seed = o.seed
	props.Reads = reads / len(inputs)
	props.DuplicateShare = float64(dups) / float64(reads)
	props.Inputs = len(inputs)
	props.Clients = serviceClients
	props.PollIntervalMs = float64(pollInterval) / float64(time.Millisecond)
	props.Jobs = jobs
	return props
}

// referenceRuns assembles each (input, backend) pair the jobs used once,
// directly through lasagna.AssembleFileContext with the job parameters.
// In the traced run they also supply the counters and modeled seconds a
// job's trace does not carry, and the first one keeps its partitions for
// the kvio probe.
func referenceRuns(ctx context.Context, o options, inputs []jobInput, jobs []jobRun, rep *runReport) (map[string]directRun, error) {
	refs := map[string]directRun{}
	resultMetrics := map[string]map[string]float64{}
	var kept string
	for _, j := range jobs {
		set := j.set()
		if _, ok := refs[set]; ok {
			continue
		}
		cfg := lasagna.DefaultConfig("")
		cfg.Workers = 1
		cfg.MinOverlap = 63
		cfg.GraphBackend = j.backend
		ws := filepath.Join(o.dir, "ref", fmt.Sprint(len(refs)))
		keep := o.trace && kept == ""
		r := assembleDirect(ctx, cfg, inputs[j.input].path, ws, o.trace, keep)
		refs[set] = r
		if keep {
			kept = ws
			defer os.RemoveAll(ws)
		}
		if o.trace && r.err == nil {
			resultMetrics[set] = map[string]float64{}
			resultLayers(r.res, r.reg, resultMetrics[set])
		}
	}
	if !o.trace {
		return refs, nil
	}
	// Weight each reference by the number of jobs that ran its set.
	var samples []map[string]float64
	for _, j := range jobs {
		if m := resultMetrics[j.set()]; m != nil {
			samples = append(samples, m)
		}
	}
	for k, v := range meanOf(samples) {
		if _, ok := rep.metrics[k]; !ok {
			rep.metrics[k] = v
		}
	}
	if kept != "" {
		if err := kvioProbe(filepath.Join(kept, "partitions"), filepath.Join(o.dir, "kvio"), rep.metrics); err != nil {
			return nil, fmt.Errorf("kvio probe: %w", err)
		}
	}
	var scan []float64
	for _, in := range inputs {
		scan = append(scan, scanNsPerRead(in.reads))
	}
	rep.metrics["fingerprint.scan_ns_per_read"] = mean(scan)
	return refs, nil
}

// jobLayers reads every finished job's flight trace from the server and
// averages the per-layer times over the jobs; the serve.* metrics come
// from the client's own clocks and the job records.
func (rep *runReport) jobLayers(hc *http.Client, base string, jobs []jobRun) error {
	var samples []map[string]float64
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		body, err := httpGet(hc, base+"/v1/jobs/"+j.rec.ID+"/trace")
		if err != nil {
			return err
		}
		if rep.jobTrace == nil {
			rep.jobTrace = body
		}
		var tf struct {
			TraceEvents []obs.Event `json:"traceEvents"`
		}
		if err := json.Unmarshal(body, &tf); err != nil {
			return fmt.Errorf("job %s trace: %w", j.rec.ID, err)
		}
		v := viewOf(tf.TraceEvents)
		split := splitJob(v)
		m := map[string]float64{"trace.assembly_s": split.total}
		split.addTo(m)
		spanLayers(v, 1, m)
		run := j.rec.FinishedAt.Sub(*j.rec.StartedAt)
		m["serve.submit_s"] = j.submit.Seconds()
		m["serve.queue_wait_s"] = j.rec.Result.QueueWaitMs / 1e3
		m["serve.run_s"] = run.Seconds()
		m["serve.notify_lag_s"] = (j.latency - j.rec.FinishedAt.Sub(j.rec.SubmittedAt)).Seconds()
		m["serve.fetch_s"] = j.fetch.Seconds()
		samples = append(samples, m)
	}
	rep.metrics = meanOf(samples)
	return nil
}
