package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
)

// serve-eco traffic shape.
const (
	// serveCells sizes each family's synthetic design.
	serveCells = 1000
	// serveClients closed-loop clients submit at once (nproc on the
	// recorded host), and the worker runs as many placement jobs at once.
	serveClients = 2
	// serveBoots is how many times a run boots the worker before any
	// traffic, one boot every bootGap, so that the boots sample three
	// seconds of the host's I/O rather than a fraction of a second; setup_s
	// is the median, and traffic runs on the last boot. Boots taken between
	// traffic rounds instead were 1.5-2.8x slower than boots before traffic
	// in the same process and grew from run to run: they measured the
	// traffic's leftovers rather than the boot.
	serveBoots = 60
	bootGap    = 50 * time.Millisecond
	// pollEvery is the clients' status poll interval: the default of the
	// repository's fleet client, which cmd/placerload also polls at. Job
	// latency is taken from the worker's FinishedAt, so it is not quantized
	// by the poll; the wait until the client sees the job is the ledger's
	// service.observe_s.
	pollEvery = 100 * time.Millisecond
	// qualityFamilies is how many families' cold jobs dpwl is taken over,
	// and after how many families peak RSS is read: a fixed amount of work,
	// so a faster commit that completes more families in a run is not
	// scored on more designs or given more chances at a new peak.
	qualityFamilies = 16
	// jobDeadline bounds one job from submit to terminal; a cold job takes
	// about a second.
	jobDeadline = 20 * time.Second
)

// Request kinds, as submitted.
const (
	kindCold = "cold"
	kindHit  = "hit" // exact resubmit of a cold job's spec
	kindECO  = "eco" // perturbed child naming the cold job as parent
)

// span is one timed call on the process clock.
type span struct{ start, end time.Time }

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// handlerTimer wraps the worker's HTTP handler and times job submissions
// by the job ID the worker answers with.
type handlerTimer struct {
	next   http.Handler
	mu     sync.Mutex
	byID   map[string]span
	submit []float64 // ms
}

// teeWriter keeps a copy of the response body.
type teeWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (w *teeWriter) Write(b []byte) (int, error) {
	w.body.Write(b)
	return w.ResponseWriter.Write(b)
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/jobs" {
		h.next.ServeHTTP(w, r)
		return
	}
	tw := &teeWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(tw, r)
	sp := span{start, time.Now()}
	var v struct {
		ID string `json:"id"`
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.submit = append(h.submit, ms(sp.dur()))
	if json.Unmarshal(tw.body.Bytes(), &v) == nil && v.ID != "" {
		h.byID[v.ID] = sp
	}
}

// workerUnderTest is one in-process placerd worker: a cache-enabled
// manager behind the placerd JSON API on a loopback port.
type workerUnderTest struct {
	dir       string
	mgr       *service.Manager
	handler   *handlerTimer
	srv       *http.Server
	served    chan struct{} // closed when the server goroutine has ended
	url       string
	closeOnce sync.Once
}

// bootWorker starts a worker on the data directory dir, which must not
// exist yet (the worker creates it, as placerd does on a fresh -data-dir),
// and returns once its API answers a health probe, with the boot time.
func bootWorker(dir string, httpc *http.Client) (*workerUnderTest, time.Duration, error) {
	start := time.Now()
	w := &workerUnderTest{dir: dir}
	var err error
	w.mgr, err = service.OpenManager(service.Config{Workers: serveClients, DataDir: dir})
	if err != nil {
		w.close()
		return nil, 0, fmt.Errorf("worker manager: %w", err)
	}
	w.handler = &handlerTimer{next: service.NewHandler(w.mgr), byID: map[string]span{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.close()
		return nil, 0, err
	}
	w.srv = &http.Server{Handler: w.handler}
	w.served = make(chan struct{})
	go func() { defer close(w.served); w.srv.Serve(ln) }() //nolint:errcheck // returns ErrServerClosed on close
	w.url = "http://" + ln.Addr().String()
	resp, err := httpc.Get(w.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for connection reuse
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("health probe: %s", resp.Status)
		}
	}
	if err != nil {
		w.close()
		return nil, 0, err
	}
	return w, time.Since(start), nil
}

// close stops the server and the manager, waits for both, and removes the
// worker's directory.
func (w *workerUnderTest) close() {
	w.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if w.srv != nil {
			w.srv.Shutdown(ctx) //nolint:errcheck // best effort at teardown
			<-w.served
		}
		if w.mgr != nil {
			w.mgr.Shutdown(ctx) //nolint:errcheck // jobs are all terminal by now
		}
		os.RemoveAll(w.dir)
	})
}

// workerClient is one closed-loop client of the placerd JSON API.
type workerClient struct {
	base string
	http *http.Client
}

// call sends one request and decodes the job view it answers with; any
// status other than want is an error.
func (c *workerClient) call(ctx context.Context, method, path string, body []byte, want int) (service.JobView, error) {
	var v service.JobView
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return v, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return v, err
	}
	if resp.StatusCode != want {
		return v, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(b)))
	}
	err = json.Unmarshal(b, &v)
	return v, err
}

// submit posts a job spec; the worker accepts it with 202.
func (c *workerClient) submit(ctx context.Context, spec service.JobSpec) (service.JobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return service.JobView{}, err
	}
	return c.call(ctx, http.MethodPost, "/jobs", body, http.StatusAccepted)
}

// waitTerminal polls a job every pollEvery until it is terminal.
func (c *workerClient) waitTerminal(ctx context.Context, id string) (service.JobView, error) {
	t := time.NewTicker(pollEvery)
	defer t.Stop()
	for {
		v, err := c.call(ctx, http.MethodGet, "/jobs/"+id, nil, http.StatusOK)
		if err != nil || v.State.Terminal() {
			return v, err
		}
		select {
		case <-ctx.Done():
			return v, ctx.Err()
		case <-t.C:
		}
	}
}

// jobRecord is one submitted job as the client saw it.
type jobRecord struct {
	kind   string
	family int
	submit span      // the client's submit call
	seen   time.Time // the client saw the job terminal
	id     string    // the job ID the submit answered with
	view   service.JobView
	err    error
}

// traffic collects job records from the clients.
type traffic struct {
	mu       sync.Mutex
	jobs     []*jobRecord
	failures []string
}

func (t *traffic) record(j *jobRecord) {
	t.mu.Lock()
	t.jobs = append(t.jobs, j)
	t.mu.Unlock()
}

func (t *traffic) fail(format string, args ...any) {
	t.mu.Lock()
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

// familySpec is family f's cold job: a GP-only ME placement of a fresh
// synthetic design derived from the seed.
func familySpec(seed int64, f int) service.JobSpec {
	return service.JobSpec{
		Design: service.DesignSpec{Synth: &service.SynthSpec{
			Name:  fmt.Sprintf("eco-%d-%d", seed, f),
			Cells: serveCells,
			Seed:  seed*100003 + int64(f),
		}},
		Model:  "ME",
		Placer: service.PlacerSpec{Workers: 1, Seed: 1},
		Flow:   service.FlowSpec{GPOnly: true},
	}
}

// runJob submits spec and waits for it to reach a terminal state. A job
// that is not terminal within jobDeadline is recorded as failed with the
// worker's last view of it, so a lost job fails the run instead of hanging
// it.
func runJob(ctx context.Context, c *workerClient, spec service.JobSpec, kind string, family int) *jobRecord {
	ctx, cancel := context.WithTimeout(ctx, jobDeadline)
	defer cancel()
	rec := &jobRecord{kind: kind, family: family}
	rec.submit.start = time.Now()
	v, err := c.submit(ctx, spec)
	rec.submit.end = time.Now()
	if err != nil {
		rec.err = err
		return rec
	}
	rec.id = v.ID
	v, err = c.waitTerminal(ctx, v.ID)
	rec.seen = time.Now()
	rec.view = v
	switch {
	case ctx.Err() != nil:
		rec.err = fmt.Errorf("%w after %s: job %s state %q",
			ctx.Err(), rec.seen.Sub(rec.submit.start).Round(time.Millisecond), rec.id, v.State)
	case err != nil:
		rec.err = err
	}
	return rec
}

// finished reports whether the client saw the job done with a result.
func (j *jobRecord) finished() bool {
	return j.err == nil && j.view.State == service.StateDone && j.view.Result != nil && j.view.FinishedAt != nil
}

// runRound runs one job family per client, stage by stage: every client's
// cold job, then every exact resubmit, then each ECO child in turn, all
// clients in a stage at once. A family is a cold job, its exact resubmit,
// and two ECO children naming it as parent.
func runRound(ctx context.Context, clients []*workerClient, seed int64, round int, tr *traffic) {
	n := len(clients)
	specs := make([]service.JobSpec, n)
	colds := make([]*jobRecord, n)
	stage := func(run func(i, f int, c *workerClient)) {
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(i, round*n+i, c)
			}()
		}
		wg.Wait()
	}
	stage(func(i, f int, c *workerClient) {
		specs[i] = familySpec(seed, f)
		colds[i] = runJob(ctx, c, specs[i], kindCold, f)
		tr.record(colds[i])
	})
	stage(func(i, f int, c *workerClient) {
		if !colds[i].finished() {
			return
		}
		hit := runJob(ctx, c, specs[i], kindHit, f)
		tr.record(hit)
		if hit.finished() && hit.view.Result.GPWL != colds[i].view.Result.GPWL {
			tr.fail("family %d: exact resubmit GP HPWL %v differs from its cold origin's %v",
				f, hit.view.Result.GPWL, colds[i].view.Result.GPWL)
		}
	})
	for k := 1; k <= 2; k++ {
		stage(func(i, f int, c *workerClient) {
			if !colds[i].finished() {
				return
			}
			child := specs[i]
			child.Parent = colds[i].id
			child.Design.Perturb = &service.PerturbSpec{Seed: int64(2*f + k), CellFrac: 0.01}
			tr.record(runJob(ctx, c, child, kindECO, f))
		})
	}
}

// runServe runs serve-eco: boots the worker serveBoots times (setup_s),
// then drives the last one with serveClients closed-loop clients for the
// run length.
func runServe(ctx context.Context, r *report) error {
	parent, err := os.MkdirTemp("", "placebench-serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(parent)
	r.Host.DataDirFS = fsType(parent)

	transport := http.DefaultTransport.(*http.Transport).Clone()
	defer transport.CloseIdleConnections()
	httpc := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	// Write back what earlier processes left dirty (the previous run's
	// deleted data directory, a fresh build) before timing the boots: a
	// boot creates directories, and with that writeback still under way
	// the boots of a run following another ran 1.2-2.1x slower than after
	// a sync.
	syscall.Sync()
	var boots []float64
	var w *workerUnderTest
	for i := range serveBoots {
		if w != nil {
			w.close()
			time.Sleep(bootGap)
		}
		var d time.Duration
		w, d, err = bootWorker(filepath.Join(parent, fmt.Sprintf("worker-%d", i)), httpc)
		if err != nil {
			return fmt.Errorf("boot worker: %w", err)
		}
		boots = append(boots, d.Seconds())
	}
	defer w.close()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tr := &traffic{}
	// The clients run in lockstep stages (see runRound), so each job runs
	// beside a job of the same kind. Free-running clients drift in and out
	// of phase, and a job placed beside a cold placement runs measurably
	// slower than one placed beside a cache hit, which made run-to-run
	// figures depend on how the phases happened to fall.
	clients := make([]*workerClient, serveClients)
	for i := range clients {
		clients[i] = &workerClient{base: w.url, http: httpc}
	}
	start := time.Now()
	peakRSS := 0.0
	for round := 0; ctx.Err() == nil && time.Since(start).Seconds() < r.Seconds; round++ {
		runRound(ctx, clients, r.Seed, round, tr)
		if (round+1)*serveClients == qualityFamilies {
			// Read after the same work on every run (see qualityFamilies).
			peakRSS = peakRSSMB()
		}
	}
	if peakRSS == 0 {
		peakRSS = peakRSSMB() // the run ended before qualityFamilies
	}
	wall := time.Since(start)
	firstStats := w.mgr.Stats() // first read after the last job was seen done
	runtime.ReadMemStats(&m1)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = w.mgr.Shutdown(shutdownCtx)
	cancel()
	if err != nil {
		return fmt.Errorf("worker shutdown: %w", err)
	}
	drained := w.mgr.Stats()

	serveReport(r, tr, w.handler, serveSample{
		boots: boots, wall: wall, first: firstStats, drained: drained,
		peakRSS:  peakRSS,
		allocMB:  float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		gcCycles: float64(m1.NumGC - m0.NumGC),
	})
	return nil
}

// serveSample is what runServe measured outside the job records.
type serveSample struct {
	boots             []float64
	wall              time.Duration
	first, drained    service.ManagerStats
	allocMB, gcCycles float64
	peakRSS           float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serveReport checks the serve gates and fills in the metrics.
func serveReport(r *report, tr *traffic, h *handlerTimer, s serveSample) {
	var all, cold, hit, eco, flowS, dpwl, gpS, gpSetupS, gpIters []float64
	var queueMS, runMS, overheadMS []float64
	counts := map[string]int{}
	outcomes := map[string]map[string]int{kindHit: {}, kindECO: {}}
	var done []*jobRecord
	for _, j := range tr.jobs {
		r.Attempted++
		if !j.finished() {
			r.Failed++
			detail := string(j.view.State)
			if j.err != nil {
				detail = j.err.Error()
			}
			tr.failures = append(tr.failures, fmt.Sprintf("family %d %s job ended %s", j.family, j.kind, detail))
			continue
		}
		done = append(done, j)
		v := j.view
		counts[j.kind]++
		if j.kind != kindCold {
			outcomes[j.kind][v.Cache]++
		}
		// Submit until the worker finished the job; the client sees it at
		// its next poll, up to pollEvery later (service.observe_s).
		lat := ms(v.FinishedAt.Sub(j.submit.start))
		all = append(all, lat)
		switch j.kind {
		case kindCold:
			cold = append(cold, lat)
			flowS = append(flowS, v.Result.TotalSeconds)
			if j.family < qualityFamilies {
				dpwl = append(dpwl, v.Result.DPWL)
			}
			gpS = append(gpS, v.Result.GPSeconds)
			gpSetupS = append(gpSetupS, v.Result.GPSetupSeconds)
			gpIters = append(gpIters, float64(v.Result.GPIters))
		case kindHit:
			hit = append(hit, lat)
		case kindECO:
			eco = append(eco, lat)
		}
		queueMS = append(queueMS, v.QueueWait*1e3)
		runMS = append(runMS, v.RunSeconds*1e3)
		overheadMS = append(overheadMS, (v.RunSeconds-v.Result.TotalSeconds)*1e3)
	}
	r.check("every accepted job reaches done; exact resubmits are bit-identical",
		len(tr.failures) == 0, firstOf(tr.failures))

	r.Inputs["families"] = float64(counts[kindCold])
	r.Inputs["cells_per_design"] = serveCells
	r.Inputs["clients"] = serveClients
	r.Inputs["jobs"] = float64(len(tr.jobs))
	r.Inputs["boots"] = float64(len(s.boots))

	failedFrac := float64(r.Failed) / float64(max(r.Attempted, 1))
	if !r.Trace {
		r.add("setup_s", "s", s.boots)
		r.add("flow_s", "s", flowS)
		r.add("dpwl", "hpwl", dpwl)
		r.add("peak_rss_mb", "MB", []float64{s.peakRSS})
		r.add("jobs_per_s", "1/s", []float64{float64(len(all)) / s.wall.Seconds()})
		r.add("job_p50_ms", "ms", all)
		r.addTail("job_tail_ms", all)
		r.add("cold_p50_ms", "ms", cold)
		r.add("hit_p50_ms", "ms", hit)
		r.add("eco_p50_ms", "ms", eco)
		r.add("failed_frac", "ratio", []float64{failedFrac})
		return
	}

	r.addTail("job_tail_ms", all)
	r.add("cold_p50_ms", "ms", cold)
	r.add("hit_p50_ms", "ms", hit)
	r.add("eco_p50_ms", "ms", eco)
	r.add("failed_frac", "ratio", []float64{failedFrac})
	h.mu.Lock()
	r.add("service.submit_ms", "ms", h.submit)
	h.mu.Unlock()
	r.add("service.queue_wait_ms", "ms", queueMS)
	r.add("service.run_ms", "ms", runMS)
	r.add("service.overhead_ms", "ms", overheadMS)
	if n := counts[kindHit]; n > 0 {
		r.add("service.hit_ratio", "ratio", []float64{float64(outcomes[kindHit]["hit"]) / float64(n)})
	}
	if n := counts[kindECO]; n > 0 {
		r.add("service.near_hit_ratio", "ratio", []float64{float64(outcomes[kindECO]["near_hit"]) / float64(n)})
	}
	// Jobs the views show finished against what the worker's counters held
	// at the first read after the last one was seen done.
	seen := counts[kindCold] + counts[kindHit] + counts[kindECO]
	counted := s.first.CacheHits + s.first.CacheNearHits + s.first.CacheMisses
	r.add("service.stats_lag", "count", []float64{float64(int64(seen)-counted) + float64(s.first.Running)})
	r.add("ecocache.entries", "count", []float64{float64(s.drained.CacheEntries)})
	r.add("ecocache.bytes", "B", []float64{float64(s.drained.CacheBytes)})
	perJob := float64(max(len(tr.jobs), 1))
	r.add("go.alloc_mb", "MB", []float64{s.allocMB / perJob})
	r.add("go.gc_cycles", "count", []float64{s.gcCycles / perJob})
	r.add("core.gp_s", "s", gpS)
	r.add("placer.setup_s", "s", gpSetupS)
	r.add("placer.iters", "count", gpIters)

	r.Ledger = serveLedger(done, h)
	r.check("ledger reconciles with traced wall time", r.Ledger.OK, r.Ledger.Detail)
}

// serveLedger splits the summed client-observed latency of the finished
// jobs (submit until the client saw the job terminal) at the benchmark's
// own timers: the client's submit call holds the worker's submit handler;
// after the submit returns, the worker finishes the job (its FinishedAt)
// and the client sees it at a later poll. The rows sum to the wall by
// construction; the checks are that the handler lies inside the submit
// call and that the worker's own timestamps fall where the timers put
// them.
func serveLedger(jobs []*jobRecord, h *handlerTimer) *ledger {
	h.mu.Lock()
	defer h.mu.Unlock()
	var wall, handler, outside, finish, observe float64
	var submitSum, handlerOut, acceptOut, finishOut float64
	// out is how far the span [a, b] sticks out of [lo, hi], in seconds.
	out := func(a, b, lo, hi time.Time) float64 {
		return max(0, lo.Sub(a).Seconds()) + max(0, b.Sub(hi).Seconds())
	}
	for _, j := range jobs {
		v := j.view
		fin := *v.FinishedAt
		wall += j.seen.Sub(j.submit.start).Seconds()
		submitSum += j.submit.dur().Seconds()
		finish += fin.Sub(j.submit.end).Seconds()
		observe += j.seen.Sub(fin).Seconds()
		finishOut += max(0, fin.Sub(j.seen).Seconds())
		sp, ok := h.byID[j.id]
		if !ok {
			outside += j.submit.dur().Seconds()
			continue
		}
		handler += sp.dur().Seconds()
		outside += (j.submit.dur() - sp.dur()).Seconds()
		handlerOut += out(sp.start, sp.end, j.submit.start, j.submit.end)
		acceptOut += out(v.SubmittedAt, v.SubmittedAt, sp.start, sp.end)
	}
	l := &ledger{Wall: wall}
	l.Lines = []ledgerLine{
		{Name: "service.submit_s", Seconds: handler},
		{Name: "service.unattributed_s", Seconds: outside, Residual: true},
		{Name: "service.finish_s", Seconds: finish},
		{Name: "service.observe_s", Seconds: observe},
	}
	l.reconcile([]clockCheck{
		{"worker handler inside the client's submit", handlerOut, submitSum},
		{"worker SubmittedAt inside its handler", acceptOut, handler},
		{"worker FinishedAt before the client saw it", finishOut, wall},
	})
	return l
}
