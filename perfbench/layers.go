package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"napel/internal/fleet"
	"napel/internal/lifecycle"
	"napel/internal/ml"
	"napel/internal/ml/rf"
	"napel/internal/napel"
	"napel/internal/nmcsim"
	"napel/internal/obs"
	"napel/internal/serve"
	"napel/internal/workload"
)

// layerItems is roughly how many predictions each serving layer is
// timed over.
const layerItems = 2000

// measureLayers fills res.layers with the per-layer metrics that are
// not read from spans: each serving layer's exported function timed on
// the workload's own bodies, the servers' cache series over the timed
// part, and the jobs' program series plus a re-run of their collect,
// train and holdout steps.
func (e *env) measureLayers(ctx context.Context, res *result, before, after []obs.Snapshot) error {
	set := func(name, unit string, v float64) { res.layers[name] = metric{v, unit} }
	pred := e.pred
	var items []*serve.PredictRequest
	for _, b := range e.bodies {
		items = append(items, b.items...)
	}
	reps := max(1, layerItems/len(items))
	n := reps * len(items)
	batched := e.sp.batch > 1

	type assembled struct {
		feat    []float64
		instrs  float64
		cfg     nmcsim.Config
		threads int
		hash    uint64
		want    serve.PredictResponse
	}
	pre := make([]assembled, len(items))
	for i, it := range items {
		feat, instrs, cfg, threads, err := it.Assemble()
		if err != nil {
			return err
		}
		h, err := it.RouteHash()
		if err != nil {
			return err
		}
		p := pred.PredictAssembled(feat, instrs, cfg, threads)
		pre[i] = assembled{feat, instrs, cfg, threads, h, serve.PredictResponse{
			Model: serve.DefaultModelName, ModelVersion: e.version, IPC: p.IPC, EPI: p.EPI,
			TotalInstrs: p.TotalInstrs, TimeSec: p.TimeSec, EnergyJ: p.EnergyJ, EDP: p.EDP,
		}}
	}

	// Every body decoded, assembled and checked without error during
	// warm-up, so the timed loops below drop the results.
	decodeUS, decodeAllocs := e.timeLayer("serve.decode", reps, n, func() {
		for _, b := range e.bodies {
			if batched {
				var rs []serve.PredictRequest
				json.Unmarshal(b.data, &rs)
			} else {
				var r serve.PredictRequest
				json.Unmarshal(b.data, &r)
			}
		}
	})
	assembleUS, assembleAllocs := e.timeLayer("serve.assemble", reps, n, func() {
		for _, it := range items {
			it.Assemble()
		}
	})
	routeHashUS, _ := e.timeLayer("serve.route_hash", reps, n, func() {
		for _, it := range items {
			it.RouteHash()
		}
	})
	forestUS, _ := e.timeLayer("serve.forest", reps, n, func() {
		for i := range pre {
			pred.PredictAssembled(pre[i].feat, pre[i].instrs, pre[i].cfg, pre[i].threads)
		}
	})
	encodeUS, _ := e.timeLayer("serve.encode", reps, n, func() {
		k := 0
		for _, b := range e.bodies {
			if batched {
				out := make([]serve.PredictResponse, len(b.items))
				for j := range out {
					out[j] = pre[k+j].want
				}
				json.Marshal(out)
			} else {
				json.Marshal(pre[k].want)
			}
			k += len(b.items)
		}
	})
	h := e.servers[0].Handler()
	handlerUS, handlerAllocs := e.timeLayer("serve.handler", reps, n, func() {
		for _, b := range e.bodies {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(b.data)))
			if rr.Code != http.StatusOK {
				res.tally.op("handler_status")
			} else {
				res.tally.op("")
			}
		}
	})
	checkUS, _ := e.timeLayer("loadgen.check", reps, n, func() {
		for i, it := range items {
			e.prober.Check(it, &pre[i].want)
		}
	})
	ring := fleet.NewRing(e.replicas, fleet.DefaultVNodes)
	routeUS, _ := e.timeLayer("fleet.route", reps, n, func() {
		for i := range pre {
			ring.Shard(fleet.Key(e.version, pre[i].hash))
		}
	})

	// The handler pays for the forest only on a cache miss.
	var hits, misses, evictions, served float64
	for i := range after {
		hits += after[i].Delta(before[i], "napel_serve_cache_hits_total")
		misses += after[i].Delta(before[i], "napel_serve_cache_misses_total")
		evictions += after[i].Delta(before[i], "napel_serve_cache_evictions_total")
		served += after[i].Delta(before[i], "napel_serve_predictions_total")
	}
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	hashUS := max(routeHashUS-assembleUS, 0)
	set("serve.decode_us", "us", decodeUS)
	set("serve.decode_allocs", "allocs", decodeAllocs)
	set("serve.assemble_us", "us", assembleUS)
	set("serve.assemble_allocs", "allocs", assembleAllocs)
	set("serve.hash_us", "us", hashUS)
	set("serve.forest_us", "us", forestUS)
	set("serve.encode_us", "us", encodeUS)
	set("serve.handler_us", "us", handlerUS)
	set("serve.handler_allocs", "allocs", handlerAllocs)
	set("serve.unattributed_us", "us", handlerUS-(decodeUS+assembleUS+hashUS+forestUS*(1-hitRatio)+encodeUS))
	set("serve.cache_hit_ratio", "ratio", hitRatio)
	set("serve.cache_evictions_per_pred", "ratio", evictions/max(served, 1))
	set("loadgen.check_us", "us", checkUS)
	set("fleet.route_us", "us", routeUS)
	skew := 0.0
	if e.gate != nil {
		for _, b := range e.bodies {
			count := make([]int, len(e.replicas))
			largest := 0
			for _, it := range b.items {
				hh, _ := it.RouteHash()
				s := ring.Shard(fleet.Key(e.version, hh))
				count[s]++
				largest = max(largest, count[s])
			}
			skew += float64(largest) * float64(len(e.replicas)) / float64(len(b.items))
		}
		skew /= float64(len(e.bodies))
	}
	set("fleet.shard_skew", "ratio", skew)

	return e.measureJobLayers(ctx, res, set)
}

// timeLayer runs f reps times, records it as one span and returns the
// time and heap allocations per prediction, f covering n predictions in
// all.
func (e *env) timeLayer(name string, reps, n int, f func()) (us, allocs float64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		f()
	}
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	e.rec.add(span{Name: "layer." + name}, t0, t1)
	return float64(t1.Sub(t0).Microseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// measureJobLayers reads the job stages from the program series of
// every job's manager, averaged per job, and re-runs collection,
// training and the holdout evaluation on the job's spec to time the
// latter two alone.
func (e *env) measureJobLayers(ctx context.Context, res *result, set func(name, unit string, v float64)) error {
	snap := e.jobSeries
	jobs := float64(res.submitted)
	stage := func(family, s string) float64 {
		return snap.Value(fmt.Sprintf("%s_sum{stage=%q}", family, s)) / jobs
	}
	opts, kernels, err := jobOptions(e.sp.job)
	if err != nil {
		return err
	}
	units, err := napel.PlanUnits(kernels, opts, nil)
	if err != nil {
		return err
	}
	collect := stage("napel_traind_job_stage_seconds", "collect")
	set("napel.units", "count", float64(len(units)))
	last := res.manifests[len(res.manifests)-1]
	set("napel.samples", "count", float64(last.Samples))
	set("napel.units_failed", "count", snap.Value("napel_engine_units_failed_total"))
	set("pisa.profile_ms", "ms", 1e3*stage("napel_engine_stage_seconds", "profile"))
	set("trace.record_ms", "ms", 1e3*stage("napel_engine_stage_seconds", "record"))
	set("nmcsim.simulate_ms", "ms", 1e3*stage("napel_engine_stage_seconds", "simulate"))
	set("engine.worker_utilization", "ratio",
		snap.Value("napel_engine_unit_seconds_sum")/jobs/(collect*float64(opts.Workers)))
	for _, s := range []string{"collect", "train", "evaluate", "gate"} {
		set("lifecycle."+s+"_s", "s", stage("napel_traind_job_stage_seconds", s))
	}
	set("lifecycle.checkpoint_writes", "count", snap.Value("napel_traind_checkpoint_write_seconds_count")/jobs)
	set("lifecycle.checkpoint_ms", "ms", 1e3*snap.Value("napel_traind_checkpoint_write_seconds_sum")/jobs)

	t0 := time.Now()
	td, err := napel.CollectContext(ctx, kernels, opts)
	if err != nil {
		return err
	}
	t1 := time.Now()
	e.rec.add(span{Name: "layer.napel.collect"}, t0, t1)
	var data bytes.Buffer
	if err := napel.SaveTrainingData(&data, td); err != nil {
		return err
	}
	hash := lifecycle.HashBytes(data.Bytes())
	fmt.Printf("re-collected data_hash %s (last job's %s, same: %v)\n", hash, last.DataHash, hash == last.DataHash)
	// The job's forest, fitted to both targets as the manager fits it.
	trainer := jobTrainer(e.sp.job)
	for _, target := range []napel.Target{napel.TargetIPC, napel.TargetEPI} {
		if _, err := trainer.Train(td.Dataset(target), opts.Seed); err != nil {
			return err
		}
	}
	t2 := time.Now()
	e.rec.add(span{Name: "layer.rf.train"}, t1, t2)
	if _, err := napel.EvaluateHoldout(td, trainer, holdoutFrac, opts.Seed); err != nil {
		return err
	}
	t3 := time.Now()
	e.rec.add(span{Name: "layer.ml.holdout"}, t2, t3)
	set("rf.train_s", "s", t2.Sub(t1).Seconds())
	set("ml.holdout_s", "s", t3.Sub(t2).Seconds())
	return nil
}

// holdoutFrac is the job manager's default held-out fraction.
const holdoutFrac = 0.25

// jobTrainer is the forest a job spec trains: the default forest, or
// the fixed one its Trees, MinLeaf and MTry describe.
func jobTrainer(sp lifecycle.JobSpec) ml.Trainer {
	if sp.Trees > 0 {
		return ml.LogTrainer{Inner: rf.Trainer{Params: rf.Params{Trees: sp.Trees, MinLeaf: sp.MinLeaf, MTry: sp.MTry}}}
	}
	return napel.DefaultRFTrainer()
}

// jobOptions resolves a job spec to the collection options the manager
// runs it with.
func jobOptions(sp lifecycle.JobSpec) (napel.Options, []workload.Kernel, error) {
	opts := napel.DefaultOptions()
	if sp.Seed != 0 {
		opts.Seed = sp.Seed
	}
	if sp.TrainScale > 0 {
		opts.ScaleFactor = sp.TrainScale
	}
	if sp.MaxIters > 0 {
		opts.MaxIters = sp.MaxIters
	}
	opts.ProfileBudget, opts.SimBudget, opts.Workers = sp.ProfileBudget, sp.SimBudget, sp.Workers
	if sp.TrainArchs > 0 {
		opts.TrainArchs = opts.TrainArchs[:sp.TrainArchs]
	}
	var kernels []workload.Kernel
	for _, name := range sp.Kernels {
		k, err := workload.ByName(name)
		if err != nil {
			return opts, nil, err
		}
		kernels = append(kernels, k)
	}
	return opts, kernels, nil
}
