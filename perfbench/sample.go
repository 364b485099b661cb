package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/lockstep"
	"repro/internal/runcache"
	"repro/internal/scenario"
)

// task is what the orchestrator hands one sample process.
type task struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`   // the run's workload seed
	K        int    `json:"k"`      // sample index within the run
	Traced   bool   `json:"traced"` // record spans and run the probes
	Dir      string `json:"dir"`    // empty scratch directory owned by this sample
	Store    string `json:"store"`  // campaign-warm: the store the cold pass filled
	Replay   string `json:"replay"` // campaign-warm traced: the filled replay store
	CLI      string `json:"cli"`    // campaign-served: the emptcpsim binary
	Spans    string `json:"spans"`  // traced: where the spans are written

	// Population overrides the seeds per cell, and Probe skips the
	// probes and event counts, for the small probe runs of
	// probeOtherLayers.
	Population int  `json:"population,omitempty"`
	Probe      bool `json:"probe,omitempty"`
}

// sample is what one sample process reports on its last stdout line.
type sample struct {
	SetupEnd  int64              `json:"setup_end"` // unix ns when the first run or experiment was dispatched
	SetupCPU  float64            `json:"setup_cpu"` // CPU seconds the workload's processes had used by then
	Wall      float64            `json:"wall"`      // timed phase, s
	CPU       float64            `json:"cpu"`       // timed phase, every process, s
	RSSMB     float64            `json:"rss_mb"`
	StoreMB   float64            `json:"store_mb"`
	Runs      float64            `json:"runs"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest"`
	Errors    []string           `json:"errors,omitempty"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

func (s *sample) fail(format string, args ...any) {
	s.Errors = append(s.Errors, fmt.Sprintf(format, args...))
}

// dispatched marks the end of set-up: the first run or experiment is
// about to be dispatched.
func (s *sample) dispatched() {
	s.SetupEnd, s.SetupCPU = time.Now().UnixNano(), selfCPU()
}

// Workload shape. A population of 200 seeds per cell derives more
// child seeds than simrng's 1,024-entry seed-state cache holds, as
// population-scale campaigns do (population 150 still mostly hits).
const (
	population  = 200
	servedShard = 50                    // runs per shard on campaign-served
	pollEvery   = 25 * time.Millisecond // campaign-served status schedule
	workerPoll  = "20ms"                // worker's idle wait between lease attempts
)

// wildSpec is the workload's campaign: the exp.WildSpec grid at 0.25
// and 16 MB with pop seeds per cell, the seed range taken from the
// workload seed.
func wildSpec(seed int64, pop, shardSize int) campaign.Spec {
	s := exp.WildSpec("s3", 0.25, pop, 1)
	s.SizesMB = []float64{0.25, 16}
	s.Seeds.Base = seed * int64(pop)
	s.ShardSize = shardSize
	return s
}

// spec is the task's campaign.
func (t task) spec(shardSize int) campaign.Spec {
	pop := population
	if t.Population > 0 {
		pop = t.Population
	}
	return wildSpec(t.Seed, pop, shardSize)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runSample executes one sample in this (fresh) process and prints its
// report.
func runSample(arg string) int {
	var t task
	if err := json.Unmarshal([]byte(arg), &t); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench sample:", err)
		return 2
	}
	var tr *tracer
	s := &sample{}
	if t.Traced {
		tr = newTracer()
		s.Layer = map[string]float64{}
	}
	runTask(t, tr, s)
	if t.Traced && len(s.Errors) == 0 {
		probeOtherLayers(t, s)
	}
	if len(s.Errors) > 0 && s.Failed == 0 {
		s.Failed = max(s.Attempted, 1)
	}
	if tr != nil && t.Spans != "" {
		if err := tr.write(t.Spans); err != nil {
			s.fail("writing spans: %v", err)
		}
	}
	b, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench sample:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// runTask runs one workload's sample, turning a panic into a failure.
func runTask(t task, tr *tracer, s *sample) {
	defer func() {
		if p := recover(); p != nil {
			s.fail("panic: %v", p)
		}
	}()
	switch t.Workload {
	case "paper-suite":
		paperSuite(t, tr, s)
	case "campaign-cold", "campaign-warm":
		campaignLocal(t, tr, s)
	case "campaign-served":
		campaignServed(t, tr, s)
	default:
		s.fail("unknown workload %q", t.Workload)
	}
}

// probeScale is the seeds per cell of the probe runs' wild grid.
const probeScale = 50

// probeOtherLayers measures the layers this workload does not call, so
// that a traced run reports a measured value for every per-layer
// metric: it runs the traced paths of the other workloads once, small
// (the suite once; the wild grid at probeScale seeds per cell, locally
// and served), and keeps each value the workload did not set itself.
func probeOtherLayers(t task, s *sample) {
	var probed []string
	for _, w := range []string{"paper-suite", "campaign-cold", "campaign-served"} {
		if w == t.Workload {
			continue
		}
		pt := task{Workload: w, Seed: t.Seed, Traced: true, Dir: filepath.Join(t.Dir, "probe-"+w),
			CLI: t.CLI, Population: probeScale, Probe: true}
		ps := &sample{Layer: map[string]float64{}}
		runTask(pt, newTracer(), ps)
		for _, e := range ps.Errors {
			s.fail("%s probe: %s", w, e)
		}
		for _, n := range ps.Notes {
			s.Notes = append(s.Notes, w+" probe: "+n)
		}
		n := 0
		for k, v := range ps.Layer {
			if _, ok := s.Layer[k]; !ok && k != coveredKey {
				s.Layer[k] = v
				n++
			}
		}
		if n > 0 {
			probed = append(probed, w)
		}
	}
	s.Notes = append(s.Notes, "layers this workload does not call were measured by small probe runs of "+strings.Join(probed, ", "))
}

// paperSuite regenerates every registered experiment at -j 1, the way
// `emptcpsim -j 1 -seed N all` does, and digests the transcript with the
// wall-time lines left out. Sample k uses seed N+k.
func paperSuite(t task, tr *tracer, s *sample) {
	seed := t.Seed + int64(t.K)
	cache := scenario.NewRunCache()
	cfg := exp.Config{BaseSeed: seed, Jobs: 1, Cache: cache}
	es := exp.All()
	s.dispatched()
	cpu0, w0 := selfCPU(), time.Now()
	var out strings.Builder
	for _, e := range es {
		s.Attempted++
		if err := renderExperiment(&out, e, cfg, tr); err != nil {
			s.Failed++
			s.fail("%v", err)
		}
	}
	s.Wall, s.CPU = time.Since(w0).Seconds(), selfCPU()-cpu0
	s.RSSMB = selfPeakRSSMB()
	s.StoreMB = float64(out.Len()) / (1 << 20)
	hits, misses, _ := cache.FlightStats()
	s.Runs = float64(hits + misses)
	s.Digest = digest([]byte(out.String()))
	if tr == nil {
		return
	}
	l := s.Layer
	spans := byName(tr.spans)
	var top int64
	for _, e := range es {
		if st := spans["exp."+e.ID]; st != nil {
			l[expMetric(e.ID)] = float64(st.self) / 1e6
		}
	}
	for _, sp := range tr.spans {
		if sp.Parent == 0 {
			top += sp.dur()
		}
	}
	if st := spans["report.render"]; st != nil {
		l["report.render_ms"] = float64(st.self) / 1e6
	}
	l["scenario.runcache_hit_share"] = ratio(float64(hits), float64(hits+misses))
	_, forkRuns := scenario.ForkStats()
	l["scenario.fork_runs"] = float64(forkRuns)
	l[coveredKey] = s.CPU * float64(top) / 1e9 / s.Wall
	if t.Probe {
		return
	}
	skipped, err := suiteCounts(seed, l)
	if err != nil {
		s.fail("%v", err)
	}
	for _, sk := range skipped {
		s.Notes = append(s.Notes, "event counts leave out "+sk)
	}
	probes(l, t.Seed, true)
}

func renderExperiment(b *strings.Builder, e *exp.Experiment, cfg exp.Config, tr *tracer) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiment %s panicked: %v", e.ID, p)
		}
	}()
	fmt.Fprintf(b, "=== %s — %s\n", e.ID, e.Title)
	fmt.Fprintf(b, "paper: %s\n\n", e.Paper)
	id := tr.begin("exp."+e.ID, 0, -1)
	o := e.Run(cfg)
	tr.end(id)
	id = tr.begin("report.render", 0, -1)
	b.WriteString(o.String())
	tr.end(id)
	b.WriteString("\n")
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// coveredKey carries, from a traced sample to the orchestrator, the CPU
// seconds that layer spans cover; it is not printed as a metric.
const coveredKey = "_covered_cpu_s"

// campaignLocal runs the cold or warm campaign through campaign.New and
// Job.Execute at -j 1 against an on-disk store: an empty one for cold,
// the one the untimed cold pass filled for warm.
func campaignLocal(t task, tr *tracer, s *sample) {
	warm := t.Workload == "campaign-warm"
	spec := t.spec(0)
	dir := filepath.Join(t.Dir, "store")
	if warm {
		dir = t.Store
	}
	sp := tr.begin("runcache.OpenStore", 0, -1)
	store, err := runcache.OpenStore(dir)
	tr.end(sp)
	if err != nil {
		s.fail("%v", err)
		return
	}
	sp = tr.begin("campaign.New", 0, -1)
	job, err := campaign.New(spec, campaign.Options{Disk: store, Jobs: 1})
	tr.end(sp)
	if err != nil {
		store.Close()
		s.fail("%v", err)
		return
	}
	lanes0, peels0 := lockstep.Stats()
	s.dispatched()
	cpu0, w0 := selfCPU(), time.Now()
	sp = tr.begin("campaign.Execute", 0, -1)
	err = job.Execute()
	tr.end(sp)
	sp = tr.begin("campaign.Result", 0, -1)
	b, ok := job.Result()
	tr.end(sp)
	s.Wall, s.CPU = time.Since(w0).Seconds(), selfCPU()-cpu0
	lanes1, peels1 := lockstep.Stats()
	p := job.Progress()
	gets, hits, _ := store.DiskStats()
	sp = tr.begin("runcache.Close", 0, -1)
	cerr := store.Close()
	tr.end(sp)
	s.RSSMB = selfPeakRSSMB()
	s.StoreMB = dirMB(dir)
	s.Runs = float64(p.RunsDone)
	s.Attempted = int(p.TotalRuns)
	s.Digest = digest(b)
	switch {
	case err != nil:
		s.fail("campaign: %v", err)
	case !ok:
		s.fail("campaign finished without a result")
	case cerr != nil:
		s.fail("closing store: %v", cerr)
	case p.RunsDone != p.TotalRuns:
		s.fail("folded %d of %d runs", p.RunsDone, p.TotalRuns)
	case !warm && p.Simulated != p.TotalRuns:
		s.fail("cold pass simulated %d of %d runs", p.Simulated, p.TotalRuns)
	case warm && (p.DiskHits != p.TotalRuns || p.Simulated != 0):
		s.fail("warm pass: %d disk hits, %d simulated, want %d and 0", p.DiskHits, p.Simulated, p.TotalRuns)
	}
	if tr == nil {
		return
	}
	l := s.Layer
	spans := byName(tr.spans)
	l["runcache.open_ms"] = float64(spans["runcache.OpenStore"].self) / 1e6
	l["campaign.new_ms"] = float64(spans["campaign.New"].self) / 1e6
	l["campaign.execute_s"] = float64(spans["campaign.Execute"].self) / 1e9
	l["campaign.result_ms"] = float64(spans["campaign.Result"].self) / 1e6
	l["runcache.close_ms"] = float64(spans["runcache.Close"].self) / 1e6
	l["runcache.hit_share"] = ratio(float64(hits), float64(gets))
	total := float64(p.TotalRuns)
	l["campaign.sim_share"] = float64(p.Simulated) / total
	l["campaign.disk_hit_share"] = float64(p.DiskHits) / total
	l["lockstep.lane_share"] = float64(lanes1-lanes0) / total
	l["lockstep.peel_share"] = ratio(float64(peels1-peels0), float64(lanes1-lanes0+peels1-peels0))
	replayDir := filepath.Join(t.Dir, "replay")
	if warm {
		replayDir = t.Replay
	}
	covered, err := replayLayers(spec, replayDir, b, tr, l)
	if err != nil {
		s.fail("%v", err)
	}
	l[coveredKey] = covered
	if !t.Probe {
		probes(l, t.Seed, false)
	}
}

// campaignServed submits the campaign to a campaign.Server folding at
// -j 1 beside one `emptcpsim worker` process, polls its status on a
// fixed schedule, and fetches the result.
func campaignServed(t task, tr *tracer, s *sample) {
	spec := t.spec(servedShard)
	coordDir, workerDir := filepath.Join(t.Dir, "coord"), filepath.Join(t.Dir, "worker")
	sp := tr.begin("runcache.OpenStore", 0, -1)
	store, err := runcache.OpenStore(coordDir)
	tr.end(sp)
	if err != nil {
		s.fail("%v", err)
		return
	}
	defer store.Close()
	srv := campaign.NewServerOpts(campaign.Options{Disk: store, Jobs: 1})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.fail("%v", err)
		return
	}
	var h http.Handler = srv.Handler()
	hs := &handlerSpans{tr: tr}
	if tr != nil {
		h = hs.wrap(h)
	}
	hsrv := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hsrv.Serve(ln)
	}()
	defer func() {
		hsrv.Close()
		<-served
	}()
	url := "http://" + ln.Addr().String()
	wk, err := startWorker(t.CLI, url, workerDir)
	if err != nil {
		s.fail("%v", err)
		return
	}
	defer wk.stop()

	wcpu0, werr := procCPU(wk.pid())
	if werr != nil {
		s.fail("%v", werr)
		return
	}
	s.dispatched()
	s.SetupCPU += wcpu0 // the worker's start-up is set-up too
	cpu0, w0 := selfCPU(), time.Now()
	client := &http.Client{Timeout: 30 * time.Second}
	cl := &servedClient{c: client, url: url, s: s}
	body, p, err := cl.drive(spec, w0)
	s.Wall = time.Since(w0).Seconds()
	wcpu1, werr := procCPU(wk.pid())
	wrss, rerr := procPeakRSSMB(wk.pid())
	s.CPU = selfCPU() - cpu0 + wcpu1 - wcpu0
	s.RSSMB = selfPeakRSSMB() + wrss
	if werr != nil || rerr != nil {
		s.fail("reading worker usage: %v %v", werr, rerr)
	}
	total := spec.TotalRuns()
	s.Attempted += int(total)
	if err != nil {
		s.fail("%v", err)
		return
	}
	s.Runs = float64(p.RunsDone)
	s.Digest = digest(body)
	if p.RunsDone != total {
		s.fail("folded %d of %d runs", p.RunsDone, total)
	}
	if werr := wk.stop(); werr != nil {
		s.fail("worker: %v", werr)
	}
	s.StoreMB = dirMB(coordDir, workerDir)
	if tr == nil {
		return
	}
	l := s.Layer
	lease, post := hs.durs("lease"), hs.durs("shard_post")
	l["campaign.lease_ms_p50"] = median(lease)
	l["campaign.shard_post_ms_p50"] = median(post)
	l["campaign.status_ms_p50"] = median(cl.latency)
	l["campaign.status_late_ms"] = median(cl.late)
	for name, xs := range map[string][]float64{
		"campaign.lease_ms_tail": lease, "campaign.shard_post_ms_tail": post, "campaign.status_ms_tail": cl.latency,
	} {
		if v, pct, ok := tail(xs); ok {
			l[name] = v
			s.Notes = append(s.Notes, fmt.Sprintf("%s is p%.2f of %d samples", name, pct, len(xs)))
		} else if len(xs) > 0 {
			l[name] = quantile(xs, 1)
			s.Notes = append(s.Notes, fmt.Sprintf("%s is the maximum of %d samples, too few for a tail", name, len(xs)))
		}
	}
	l["campaign.requests_per_krun"] = float64(hs.requests.Load()) / (float64(total) / 1000)
	l["campaign.remote_share"] = float64(p.RemoteRuns) / float64(total)
	l["campaign.shard_body_bytes"] = ratio(float64(hs.postBytes.Load()), float64(len(post)))
	var handlerNs int64
	for _, sp := range tr.spans {
		if strings.HasPrefix(sp.Name, "http.") {
			handlerNs += sp.dur()
		}
	}
	covered, err := replayLayers(spec, filepath.Join(t.Dir, "replay"), body, tr, l)
	if err != nil {
		s.fail("%v", err)
	}
	l[coveredKey] = covered + float64(handlerNs)/1e9
	if !t.Probe {
		probes(l, t.Seed, false)
	}
}

// servedClient is the benchmark's side of campaign-served: one submit,
// then status polls due every pollEvery from the submission (an open
// loop: a slow answer delays the next poll, and that delay is counted
// from when the poll was due), then the result.
type servedClient struct {
	c       *http.Client
	url     string
	s       *sample
	latency []float64 // ms from each poll's due time to its answer
	late    []float64 // ms each poll was sent after its due time
}

// request performs one benchmark-issued request, counting it into the
// sample's attempted and failed operations; ok lists the statuses that
// are not failures.
func (cl *servedClient) request(method, path string, body []byte, ok ...int) (int, []byte, error) {
	cl.s.Attempted++
	req, err := http.NewRequest(method, cl.url+path, bytes.NewReader(body))
	if err != nil {
		cl.s.Failed++
		return 0, nil, err
	}
	resp, err := cl.c.Do(req)
	if err != nil {
		cl.s.Failed++
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		cl.s.Failed++
		return resp.StatusCode, nil, err
	}
	for _, c := range ok {
		if resp.StatusCode == c {
			return resp.StatusCode, b, nil
		}
	}
	cl.s.Failed++
	return resp.StatusCode, b, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
}

func (cl *servedClient) drive(spec campaign.Spec, start time.Time) ([]byte, campaign.Progress, error) {
	var p campaign.Progress
	sb, err := json.Marshal(spec)
	if err != nil {
		return nil, p, err
	}
	_, b, err := cl.request("POST", "/campaigns", sb, http.StatusAccepted, http.StatusOK)
	if err != nil {
		return nil, p, err
	}
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, p, err
	}
	id := p.ID
	deadline := start.Add(120 * time.Second)
	due := start
	for {
		due = due.Add(pollEvery)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if time.Now().After(deadline) {
			return nil, p, fmt.Errorf("campaign %s not done after 120 s", id)
		}
		cl.late = append(cl.late, ms(time.Since(due)))
		_, b, err := cl.request("GET", "/campaigns/"+id, nil, http.StatusOK)
		if err != nil {
			continue
		}
		cl.latency = append(cl.latency, ms(time.Since(due)))
		if err := json.Unmarshal(b, &p); err != nil {
			return nil, p, err
		}
		switch p.Status {
		case campaign.StatusDone:
			for {
				code, b, err := cl.request("GET", "/campaigns/"+id+"/result", nil, http.StatusOK, http.StatusConflict)
				if err != nil || code == http.StatusOK {
					return b, p, err
				}
				time.Sleep(pollEvery)
			}
		case campaign.StatusFailed, campaign.StatusCancelled:
			return nil, p, fmt.Errorf("campaign %s %s: %s", id, p.Status, p.Error)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// handlerSpans wraps the coordinator's handler, recording one span per
// request, named by route.
type handlerSpans struct {
	tr        *tracer
	requests  atomic.Int64
	postBytes atomic.Int64
}

func (hs *handlerSpans) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hs.requests.Add(1)
		route := routeOf(r)
		if route == "shard_post" && r.ContentLength > 0 {
			hs.postBytes.Add(r.ContentLength)
		}
		id := hs.tr.begin("http."+route, 0, n)
		h.ServeHTTP(w, r)
		hs.tr.end(id)
	})
}

// durs returns the durations in ms of one route's spans.
func (hs *handlerSpans) durs(route string) []float64 {
	hs.tr.mu.Lock()
	defer hs.tr.mu.Unlock()
	var out []float64
	for _, sp := range hs.tr.spans {
		if sp.Name == "http."+route && sp.End > 0 {
			out = append(out, float64(sp.dur())/1e6)
		}
	}
	return out
}

// routeOf names the campaign API route a request hits.
func routeOf(r *http.Request) string {
	p := strings.TrimSuffix(r.URL.Path, "/")
	switch {
	case p == "/campaigns" && r.Method == http.MethodPost:
		return "submit"
	case p == "/campaigns":
		return "list"
	case strings.HasSuffix(p, "/lease"):
		return "lease"
	case strings.HasSuffix(p, "/renew"):
		return "renew"
	case strings.Contains(p, "/shards/"):
		return "shard_post"
	case strings.HasSuffix(p, "/result"):
		return "result"
	case strings.HasPrefix(p, "/campaigns/") && strings.Count(p, "/") == 2:
		return "status"
	}
	return "other"
}

// worker is one `emptcpsim worker` process.
type worker struct {
	cmd      *exec.Cmd
	drained  chan struct{}
	mu       sync.Mutex
	stderr   []string
	stopOnce sync.Once
	stopErr  error
}

// startWorker starts the worker and returns once it has opened its
// store and is polling the coordinator (its start-up line on stderr).
func startWorker(cli, url, dir string) (*worker, error) {
	cmd := exec.Command(cli, "worker", "-coordinator", url, "-cachedir", dir, "-j", "1", "-poll", workerPoll)
	// Should this sample process die without stopping the worker, the
	// kernel kills the worker too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting worker: %w", err)
	}
	w := &worker{cmd: cmd, drained: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(w.drained)
		sc := bufio.NewScanner(pipe)
		signalled := false
		for sc.Scan() {
			w.mu.Lock()
			w.stderr = append(w.stderr, sc.Text())
			w.mu.Unlock()
			if !signalled && strings.Contains(sc.Text(), "pulling from") {
				signalled = true
				close(ready)
			}
		}
		if !signalled {
			close(ready)
		}
	}()
	select {
	case <-ready:
	case <-time.After(30 * time.Second):
	}
	select {
	case <-w.drained:
		w.stop()
		return nil, fmt.Errorf("worker exited during start-up: %s", w.log())
	default:
	}
	return w, nil
}

func (w *worker) pid() int { return w.cmd.Process.Pid }

func (w *worker) log() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.Join(w.stderr, "; ")
}

// stop sends SIGTERM, which makes the worker close its store and exit,
// and waits for it; a worker that has not exited after ten seconds is
// killed. Only the first call acts.
func (w *worker) stop() error {
	w.stopOnce.Do(func() {
		w.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-w.drained:
		case <-time.After(10 * time.Second):
			w.cmd.Process.Kill()
			<-w.drained
		}
		if err := w.cmd.Wait(); err != nil {
			w.stopErr = fmt.Errorf("%v: %s", err, w.log())
		}
	})
	return w.stopErr
}
