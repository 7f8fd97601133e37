package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"napel/internal/fleet"
	"napel/internal/lifecycle"
	"napel/internal/loadgen"
	"napel/internal/napel"
	"napel/internal/obs"
	"napel/internal/serve"
	"napel/internal/workload"
)

const (
	// A run sets up again until setupBudget is spent, at least
	// minSetups and at most maxSetups times; setup_s is the median.
	setupBudget = 3 * time.Second
	minSetups   = 3
	maxSetups   = 15
	// minSamples puts at least minBeyond latencies beyond p99.
	minSamples = 100 * minBeyond
	// slices is how many serving slices the timed part has; the rates
	// are slice medians.
	slices = 20
	// latCap bounds the latencies the client keeps, preallocated so
	// that live_heap_mb does not grow with throughput.
	latCap = 1 << 17
	// profileBudget caps the profiling pass behind each base profile.
	profileBudget = 200_000
	// rewarm is how long the client sends untimed requests before each
	// serving slice: a job evicts the serving path from the caches, and
	// the first requests after it would otherwise set the tail.
	rewarm = 100 * time.Millisecond
	// directChecks is how many batches are sent through the gate again
	// after the timed part and compared item by item with the owning
	// replica's direct answer.
	directChecks = 8
)

// body is one pregenerated request body and the request behind each of
// its items.
type body struct {
	data  []byte
	items []*serve.PredictRequest
}

// result is everything one pass of a workload measured.
type result struct {
	sp     *spec
	setupS []float64
	// One entry per promoted job.
	jobS       []float64
	jobAllocMB []float64
	holdoutPct []float64
	manifests  []*lifecycle.Manifest
	submitted  int
	version    string
	rates      rates
	latencies  []float64 // ms, sorted
	liveHeapMB float64
	tally      *tally
	layers     map[string]metric
}

func (r *result) endToEnd() map[string]metric {
	p50, _, _ := percentile(r.latencies, 0.50)
	p99, _, _ := percentile(r.latencies, 0.99)
	return map[string]metric{
		"setup_s":           {median(r.setupS), "s"},
		"pred_per_s":        {r.rates.predPerSec, "pred/s"},
		"p50_ms":            {p50, "ms"},
		"p99_ms":            {p99, "ms"},
		"cpu_us_per_pred":   {r.rates.cpuUSPerPred, "us"},
		"alloc_kb_per_pred": {r.rates.allocKBPerPred, "KiB"},
		"live_heap_mb":      {r.liveHeapMB, "MiB"},
		"job_s":             {median(r.jobS), "s"},
		"job_alloc_mb":      {median(r.jobAllocMB), "MiB"},
		"holdout_mre_pct":   {median(r.holdoutPct), "%"},
	}
}

func (r *result) print(label string) {
	fmt.Printf("== %s %s\n", r.sp.name, label)
	fmt.Printf("setup_s per set-up: %.4f\n", r.setupS)
	hashes := map[string]bool{}
	for i, m := range r.manifests {
		hashes[m.DataHash] = true
		fmt.Printf("job %d: %.4f s, %.1f MiB, holdout %.4f %%, data_hash %s model_hash %s samples %d\n",
			i, r.jobS[i], r.jobAllocMB[i], r.holdoutPct[i], m.DataHash, m.ModelHash, m.Samples)
	}
	fmt.Printf("jobs: %d submitted, %d promoted, %d distinct data_hash; serving version %s\n",
		r.submitted, len(r.manifests), len(hashes), r.version)
	_, b50, _ := percentile(r.latencies, 0.50)
	_, b99, ok := percentile(r.latencies, 0.99)
	fmt.Printf("latency samples %d: %d beyond p50, %d beyond p99\n", len(r.latencies), b50, b99)
	if !ok {
		fmt.Printf("warning: p99 has fewer than %d samples beyond it\n", minBeyond)
	}
	m := r.endToEnd()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-18s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// runWorkload sets the workload up, trains its model, installs it and
// runs the timed part for budget. A non-nil rec traces the pass and
// adds the per-layer measurements to the result.
func runWorkload(ctx context.Context, sp *spec, seed uint64, budget time.Duration, rec *recorder) (*result, error) {
	res := &result{sp: sp, tally: newTally(), layers: map[string]metric{}}
	var (
		e     *env
		spent time.Duration
	)
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(sp, seed, rec); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		res.setupS = append(res.setupS, d.Seconds())
	}
	defer e.close()

	if _, err := e.runJob(e.serving, res); err != nil {
		return nil, fmt.Errorf("%w (%s)", err, res.tally)
	}
	if len(res.manifests) == 0 {
		return nil, fmt.Errorf("the first job promoted no model (%s)", res.tally)
	}
	if err := e.install(ctx, res); err != nil {
		return nil, fmt.Errorf("installing the promoted model: %w", err)
	}
	for i := range e.bodies {
		_, resps, reason := e.post(ctx, warmUpOp+uint64(i), e.bodies[i].data)
		res.tally.op(e.verify(&e.bodies[i], resps, reason))
	}
	before, err := e.scrapeServers()
	if err != nil {
		return nil, err
	}
	if err := e.timed(ctx, budget, res); err != nil {
		return nil, err
	}
	after, err := e.scrapeServers()
	if err != nil {
		return nil, err
	}
	if e.gate != nil {
		e.compareDirect(ctx, res)
	}
	if rec != nil {
		if err := e.measureLayers(ctx, res, before, after); err != nil {
			return nil, fmt.Errorf("measuring layers: %w", err)
		}
	}
	return res, nil
}

// Op indices outside the timed schedule, so their trace ids differ.
const (
	warmUpOp = 1 << 40
	directOp = 1 << 41
	rewarmOp = 1 << 42
)

// trainer is a job manager over a store of its own, running until it
// is closed.
type trainer struct {
	dir   string
	store *lifecycle.Store
	mgr   *lifecycle.Manager
	stop  context.CancelFunc
	end   chan struct{}
}

// startTrainer opens a fresh store under a new directory in parent and
// starts a manager over it.
func startTrainer(parent string) (*trainer, error) {
	dir, err := os.MkdirTemp(parent, "trainer-")
	if err != nil {
		return nil, err
	}
	t := &trainer{dir: dir}
	if t.store, err = lifecycle.OpenStore(filepath.Join(dir, "store")); err == nil {
		t.mgr, err = lifecycle.NewManager(lifecycle.ManagerConfig{
			Store: t.store, JobsDir: filepath.Join(dir, "jobs"), TraceRing: 4096,
			// napel-traind's default checkpoint interval.
			CheckpointEvery: 2 * time.Second,
		})
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	t.stop, t.end = stop, make(chan struct{})
	go func() {
		t.mgr.Run(ctx)
		close(t.end)
	}()
	return t, nil
}

// close stops the manager, waits for it and removes the store.
func (t *trainer) close() {
	t.stop()
	<-t.end
	os.RemoveAll(t.dir)
}

// env is one set-up: a job manager over a fresh store, whose first
// promoted model is served; the request bodies; and the serving tier
// the clients send to.
type env struct {
	sp   *spec
	seed uint64
	rec  *recorder
	dir  string
	// serving trains the served model; the servers read its store.
	serving *trainer
	// jobSeries sums the program series of every job's manager.
	jobSeries obs.Snapshot

	bodies   []body
	servers  []*serve.Server
	https    []*http.Server
	gate     *fleet.Gate
	replicas []string // fixed replica URLs, so the ring is the same every run
	target   string
	client   *http.Client // the workload's clients, to the front tier
	upstream *http.Client // the gate's, and the direct checks', to replicas

	// The model installed in the servers, as the prober loaded it.
	prober  *loadgen.ModelProber
	pred    *napel.Predictor
	version string
}

func setUp(sp *spec, seed uint64, rec *recorder) (*env, error) {
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{sp: sp, seed: seed, rec: rec, dir: dir, jobSeries: obs.Snapshot{}}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	if e.serving, err = startTrainer(dir); err != nil {
		return nil, err
	}
	if e.bodies, err = buildBodies(sp, seed); err != nil {
		return nil, err
	}

	// Replicas listen on loopback ports the kernel picks, but are named
	// by fixed URLs that a custom dialer maps to those ports: the ring
	// places keys by URL, so placement is the same in every run.
	addrs := map[string]string{}
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		real, ok := addrs[addr]
		if !ok {
			return nil, fmt.Errorf("no listener named %s", addr)
		}
		var d net.Dialer
		return d.DialContext(ctx, network, real)
	}
	e.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{DialContext: dial, MaxIdleConnsPerHost: 64}}
	e.upstream = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{DialContext: dial, MaxIdleConnsPerHost: 64}}
	listen := func(host string, h http.Handler) error {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs[host+":80"] = ln.Addr().String()
		hs := &http.Server{Handler: h}
		e.https = append(e.https, hs)
		go hs.Serve(ln)
		return nil
	}

	name, parent := "serve.server", ""
	if sp.replicas > 0 {
		name, parent = "fleet.replica", "fleet.gate"
	}
	for i := 0; i < max(sp.replicas, 1); i++ {
		s, err := serve.New(serve.Config{
			ModelPaths:   map[string]string{serve.DefaultModelName: e.serving.store.CurrentModelPath()},
			LazyLoad:     true,
			CacheEntries: sp.cacheEntries,
		})
		if err != nil {
			return nil, err
		}
		host := fmt.Sprintf("replica-%d", i)
		if err := listen(host, rec.wrap(name, parent, s.Handler())); err != nil {
			return nil, err
		}
		e.servers = append(e.servers, s)
		e.replicas = append(e.replicas, "http://"+host)
	}
	e.target = e.replicas[0]
	if sp.replicas > 0 {
		if e.gate, err = fleet.New(fleet.Config{Replicas: e.replicas, HedgeAfter: -1, Client: e.upstream}); err != nil {
			return nil, err
		}
		if err := listen("gate", rec.wrap("fleet.gate", "", e.gate.Handler())); err != nil {
			return nil, err
		}
		e.target = "http://gate"
	}
	ok = true
	return e, nil
}

// buildBodies profiles each base kernel's test input and synthesizes
// the request variants from it. Every body exists before the timed
// part starts.
func buildBodies(sp *spec, seed uint64) ([]body, error) {
	var out []body
	for bi, name := range sp.bases {
		k, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		in := workload.Scale(k, workload.TestInput(k), 16, 1)
		prof, err := napel.ProfileKernel(k, in, profileBudget)
		if err != nil {
			return nil, fmt.Errorf("profiling %s: %w", name, err)
		}
		base := serve.PredictRequest{Profile: serve.NewWireProfile(prof)}
		mix := loadgen.Mix{Predict: 1}
		if sp.batch > 1 {
			mix = loadgen.Mix{Batch: 1}
		}
		gen, err := loadgen.NewGenerator(loadgen.SynthConfig{
			Seed: seed*uint64(len(sp.bases)) + uint64(bi), Keyspace: sp.variants, BatchSize: sp.batch, Base: &base,
		}, mix)
		if err != nil {
			return nil, err
		}
		for v := 0; v < sp.variants; v++ {
			if sp.batch > 1 {
				b := body{data: gen.Body(loadgen.Op{Kind: loadgen.KindBatch, Variant: v})}
				for _, x := range gen.BatchVariants(v) {
					b.items = append(b.items, gen.Request(x))
				}
				out = append(out, b)
				continue
			}
			out = append(out, body{
				data:  gen.Body(loadgen.Op{Kind: loadgen.KindPredict, Variant: v}),
				items: []*serve.PredictRequest{gen.Request(v)},
			})
		}
	}
	return out, nil
}

func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, hs := range e.https {
		hs.Shutdown(ctx)
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
		e.upstream.CloseIdleConnections()
	}
	if e.serving != nil {
		e.serving.close()
	}
	os.RemoveAll(e.dir)
}

// freshJob runs the workload's job on a trainer of its own, so that
// every job does the same work: none has an incumbent model to beat.
// With one, identical jobs are gated against each other, and the
// collection defect recorded in NOTES.md makes them score differently.
func (e *env) freshJob(res *result) (time.Duration, error) {
	t, err := startTrainer(e.dir)
	if err != nil {
		return 0, err
	}
	defer t.close()
	return e.runJob(t, res)
}

// runJob submits the workload's job to t and waits until it ends. A
// promoted job adds its time from Submit, its heap allocations and its
// manifest to res; any other end counts as a failed operation. It
// returns how long the job took.
func (e *env) runJob(t *trainer, res *result) (time.Duration, error) {
	// Every job starts from a collected heap.
	runtime.GC()
	res.submitted++
	a0, t0 := heapAllocBytes(), time.Now()
	j, err := t.mgr.Submit(e.sp.job)
	if err != nil {
		res.tally.op("job_submit")
		return 0, fmt.Errorf("submitting the job: %w", err)
	}
	for !j.State.Terminal() {
		time.Sleep(2 * time.Millisecond)
		j, _ = t.mgr.Get(j.ID)
	}
	d, a1 := time.Since(t0), heapAllocBytes()
	if err := e.addJobSeries(t); err != nil {
		return d, err
	}
	if j.State != lifecycle.StatePromoted {
		res.tally.op("job_" + string(j.State))
		fmt.Printf("job %s ended %s: %s\n", j.ID, j.State, j.Error)
		return d, nil
	}
	man, err := t.store.GetManifest(j.ManifestID)
	if err != nil {
		return d, err
	}
	if man.Metrics == nil {
		return d, errors.New("promoted manifest has no holdout metrics")
	}
	res.tally.op("")
	res.jobS = append(res.jobS, d.Seconds())
	res.jobAllocMB = append(res.jobAllocMB, float64(a1-a0)/(1<<20))
	res.holdoutPct = append(res.holdoutPct, 100*man.Metrics.Combined())
	res.manifests = append(res.manifests, man)
	return d, nil
}

// install loads the promoted model into every server, as a follow poll
// would, and points the prober at the same file.
func (e *env) install(ctx context.Context, res *result) error {
	for _, s := range e.servers {
		if _, err := s.Registry().Reload(); err != nil {
			return err
		}
	}
	path := e.serving.store.CurrentModelPath()
	var err error
	if e.pred, err = napel.LoadPredictorFile(path); err != nil {
		return err
	}
	// A nonzero train time would give the same model a new version, and
	// with it new ring placement and cache keys, in every run.
	if e.pred.TrainTime != 0 {
		res.tally.op("model_train_time")
	}
	if e.prober, err = loadgen.NewModelProber(path); err != nil {
		return err
	}
	e.version = e.prober.Version()
	res.version = e.version
	if e.gate != nil {
		e.gate.CheckReplicas(ctx)
		if !e.gate.Ready() {
			return errors.New("gate has no ready replica")
		}
	}
	return nil
}

// post sends one body and decodes the answer. A non-empty reason is why
// the operation failed.
func (e *env) post(ctx context.Context, i uint64, data []byte) (lat time.Duration, resps []serve.PredictResponse, reason string) {
	traceID, spanID := traceIdentity(e.seed, i)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.target+"/v1/predict", bytes.NewReader(data))
	if err != nil {
		return 0, nil, "request"
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceParentHeader, obs.FormatTraceParent(traceID, spanID))
	t0 := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		return time.Since(t0), nil, transportReason(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat = time.Since(t0)
	if e.rec != nil {
		e.rec.add(span{Name: "client", Op: fmt.Sprintf("%016x", traceID), ID: fmt.Sprintf("%016x", spanID)}, t0, t0.Add(lat))
	}
	if err != nil {
		return lat, nil, transportReason(err)
	}
	if resp.StatusCode != http.StatusOK {
		return lat, nil, fmt.Sprintf("http_%d", resp.StatusCode)
	}
	if len(data) > 0 && data[0] == '[' {
		err = json.Unmarshal(out, &resps)
	} else {
		resps = make([]serve.PredictResponse, 1)
		err = json.Unmarshal(out, &resps[0])
	}
	if err != nil {
		return lat, nil, "decode"
	}
	return lat, resps, ""
}

// answered is how many predictions an operation on b answered
// correctly: every item of a batch counts, a failed operation none.
func answered(b *body, reason string) int {
	if reason != "" {
		return 0
	}
	return len(b.items)
}

func transportReason(err error) string {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return "timeout"
	}
	return "transport"
}

// verify checks every answer of b against the promoted model and
// returns why the operation failed, or "".
func (e *env) verify(b *body, resps []serve.PredictResponse, reason string) string {
	if reason != "" {
		return reason
	}
	if len(resps) != len(b.items) {
		return "item_count"
	}
	for j := range resps {
		r := &resps[j]
		switch {
		case r.Error != "":
			return "item_error"
		case r.Degraded:
			return "degraded"
		}
		checked, err := e.prober.Check(b.items[j], r)
		if err != nil {
			return "probe_mismatch"
		}
		if !checked {
			return "foreign_version"
		}
	}
	return ""
}

// timed runs the timed part for budget: slices of closed-loop serving
// with the workload's job submitted again between them, so that the job
// times and the serving rates each sample the whole run rather than one
// stretch of it. The jobs get jobShare of the budget and the client the
// rest. Slices are added, to at most twice as many, until minSamples
// requests completed. Each of these jobs runs on a fresh store; the
// servers and the prober keep the model installed before.
func (e *env) timed(ctx context.Context, budget time.Duration, res *result) error {
	jobBudget := time.Duration(e.sp.jobShare * float64(budget))
	slice := (budget - jobBudget) / slices
	lats, t := make([]float64, 0, latCap), newTally()
	var (
		ivs     []servingSlice
		preds   int64
		op      uint64
		warm    uint64
		jobTime time.Duration
	)
	read := func() counters {
		return counters{at: time.Now(), preds: preds, cpu: cpuTime(), allocBytes: heapAllocBytes()}
	}
	steal0, total0, stealOK := hostSteal()
	for k := 0; k < slices || (k < 2*slices && op < minSamples); k++ {
		// The jobs keep up with their share of the planned time so far.
		for k < slices && jobTime < jobBudget*time.Duration(k+1)/slices {
			d, err := e.freshJob(res)
			if err != nil {
				return err
			}
			jobTime += d
		}
		// Each slice starts from a collected heap, so no job garbage is
		// collected on the client's time, and from warm caches.
		runtime.GC()
		for end := time.Now().Add(rewarm); time.Now().Before(end); warm++ {
			b := &e.bodies[pick(e.seed, rewarmOp+warm, len(e.bodies))]
			_, resps, reason := e.post(ctx, rewarmOp+warm, b.data)
			t.op(e.verify(b, resps, reason))
		}
		from := read()
		for end := from.at.Add(slice); time.Now().Before(end); op++ {
			b := &e.bodies[pick(e.seed, op, len(e.bodies))]
			d, resps, reason := e.post(ctx, op, b.data)
			reason = e.verify(b, resps, reason)
			t.op(reason)
			preds += int64(answered(b, reason))
			if len(lats) < latCap {
				lats = append(lats, float64(d)/float64(time.Millisecond))
			}
		}
		ivs = append(ivs, servingSlice{from, read()})
	}
	if steal1, total1, ok := hostSteal(); ok && stealOK && total1 > total0 {
		fmt.Printf("host steal: %.1f%% of the machine's CPU time during the timed part\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	// Two collections: the first moves what sync.Pools hold to their
	// victim caches, the second frees it. Otherwise whatever a pool
	// happens to hold counts as live; encoding/json pools its buffers
	// whatever their size, and two train-job runs in 50 read 4 MiB
	// more than the rest after a single collection.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.liveHeapMB = float64(ms.HeapAlloc) / (1 << 20)

	var err error
	if res.rates, err = sliceMedians(ivs); err != nil {
		return err
	}
	pps, cpu, _ := sliceRates(ivs)
	fmt.Printf("slices: pred/s %.0f\n        cpu us/pred %.0f\n", pps, cpu)
	res.tally.merge(t)
	res.latencies = lats
	sort.Float64s(res.latencies)
	return nil
}

// compareDirect sends sampled batches through the gate once more and
// each of their items straight to the replica that owns it; any
// difference in the answer is a failed operation.
func (e *env) compareDirect(ctx context.Context, res *result) {
	ring := fleet.NewRing(e.replicas, fleet.DefaultVNodes)
	for s := uint64(0); s < directChecks; s++ {
		b := &e.bodies[pick(e.seed, directOp+s, len(e.bodies))]
		_, viaGate, reason := e.post(ctx, directOp+s, b.data)
		if reason = e.verify(b, viaGate, reason); reason != "" {
			res.tally.op(reason)
			continue
		}
		for j, item := range b.items {
			res.tally.op(e.directMismatch(ctx, ring, item, &viaGate[j]))
		}
	}
}

func (e *env) directMismatch(ctx context.Context, ring *fleet.Ring, item *serve.PredictRequest, viaGate *serve.PredictResponse) string {
	h, err := item.RouteHash()
	if err != nil {
		return "route_hash"
	}
	data, err := json.Marshal(item)
	if err != nil {
		return "encode"
	}
	owner := e.replicas[ring.Shard(fleet.Key(e.version, h))]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/v1/predict", bytes.NewReader(data))
	if err != nil {
		return "request"
	}
	resp, err := e.upstream.Do(req)
	if err != nil {
		return transportReason(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Sprintf("direct_http_%d", resp.StatusCode)
	}
	var direct serve.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&direct); err != nil {
		return "decode"
	}
	g := viaGate
	if direct.ModelVersion != g.ModelVersion || direct.IPC != g.IPC || direct.EPI != g.EPI ||
		direct.TotalInstrs != g.TotalInstrs || direct.TimeSec != g.TimeSec ||
		direct.EnergyJ != g.EnergyJ || direct.EDP != g.EDP {
		return "gate_mismatch"
	}
	return ""
}

// addJobSeries adds t's program series to the sums over all jobs and,
// in a traced pass, copies its spans in under the lifecycle. prefix.
// Only counters and histogram sums and counts add up.
func (e *env) addJobSeries(t *trainer) error {
	var buf bytes.Buffer
	if err := t.mgr.Obs().WriteText(&buf); err != nil {
		return err
	}
	snap, err := obs.ParseText(&buf)
	if err != nil {
		return err
	}
	for k, v := range snap {
		e.jobSeries[k] += v
	}
	e.rec.addProgram("lifecycle.", t.mgr.Tracer().Snapshot())
	return nil
}

// scrapeServers reads every server's program series.
func (e *env) scrapeServers() ([]obs.Snapshot, error) {
	out := make([]obs.Snapshot, len(e.servers))
	for i, s := range e.servers {
		var buf bytes.Buffer
		if err := s.Obs().WriteText(&buf); err != nil {
			return nil, err
		}
		snap, err := obs.ParseText(&buf)
		if err != nil {
			return nil, err
		}
		out[i] = snap
	}
	return out, nil
}

// mix64 is splitmix64's finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pick is op i's body: a pure function of the seed and i.
func pick(seed, i uint64, n int) int { return int(mix64(seed^mix64(2*i)) % uint64(n)) }

// traceIdentity is op i's traceparent: trace id (the op id) and the
// client span's id, both nonzero.
func traceIdentity(seed, i uint64) (traceID, spanID uint64) {
	traceID = mix64(seed ^ mix64(2*i+1))
	spanID = mix64(traceID + 1)
	return max(traceID, 1), max(spanID, 1)
}

// cpuTime is the user plus system CPU the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal reads the machine's stolen and total CPU ticks from
// /proc/stat: time the hypervisor ran something else on its CPUs. ok is
// false where there is no such file.
func hostSteal() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice, from field 9 on, are already in user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// heapAllocBytes is the heap bytes the process has allocated so far.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
