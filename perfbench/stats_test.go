package main

import (
	"math"
	"testing"
	"time"

	"napel/internal/serve"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	v, beyond, ok := percentile(sorted(1000), 0.99)
	if v != 990 || beyond != 10 || !ok {
		t.Fatalf("p99 of 1000 = %v with %d beyond (ok %v), want 990 with 10 beyond", v, beyond, ok)
	}
	if _, beyond, ok := percentile(sorted(999), 0.99); ok || beyond != 9 {
		t.Fatalf("p99 of 999 reported with %d beyond", beyond)
	}
	if v, beyond, ok := percentile(sorted(21), 0.5); v != 11 || beyond != 10 || !ok {
		t.Fatalf("p50 of 21 = %v with %d beyond (ok %v)", v, beyond, ok)
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		children []interval
		want     int64
	}{
		{nil, 100},
		// Overlapping children count their union once; the part of a
		// child outside the parent is not subtracted.
		{[]interval{{10, 40}, {30, 60}, {90, 120}}, 40},
		{[]interval{{30, 60}, {10, 40}, {20, 50}}, 50},
		{[]interval{{0, 100}, {10, 20}}, 0},
		{[]interval{{-50, -10}, {110, 130}}, 100},
		{[]interval{{10, 20}, {20, 30}}, 80},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("selfTime(%v, %v) = %d, want %d", parent, c.children, got, c.want)
		}
	}
}

func TestSummaryLinksSpansByOp(t *testing.T) {
	r := newRecorder()
	at := func(ns int64) time.Time { return r.t0.Add(time.Duration(ns)) }
	r.add(span{Name: "client", Op: "a", ID: "c1"}, at(0), at(1000))
	r.add(span{Name: "fleet.gate", Op: "a", Parent: "c1"}, at(100), at(900))
	r.add(span{Name: "fleet.replica", Op: "a", parentName: "fleet.gate"}, at(200), at(600))
	r.add(span{Name: "fleet.replica", Op: "a", parentName: "fleet.gate"}, at(400), at(700))
	sums := r.summarize()
	if g := find(sums, "fleet.gate"); g.meanUS != 0.8 || g.meanSelfUS != 0.3 {
		t.Errorf("gate: %+v, want 0.8 us total, 0.3 us self", g)
	}
	if c := find(sums, "client"); c.meanSelfUS != 0.2 {
		t.Errorf("client self %v us, want 0.2", c.meanSelfUS)
	}
	res := &result{layers: map[string]metric{}}
	res.addSpanLayers(sums)
	if f := res.layers["fleet.fanout"].Value; f != 2 {
		t.Errorf("fanout %v, want 2", f)
	}
}

func TestNormalizationCountsEveryBatchItem(t *testing.T) {
	batch := &body{items: make([]*serve.PredictRequest, 16)}
	single := &body{items: make([]*serve.PredictRequest, 1)}
	var preds int
	for i := 0; i < 10; i++ {
		preds += answered(batch, "")
	}
	preds += answered(single, "")
	preds += answered(batch, "http_503")
	if preds != 161 {
		t.Fatalf("answered %d predictions, want 161", preds)
	}
	t0 := time.Now()
	r, ok := between(counters{at: t0},
		counters{at: t0.Add(2 * time.Second), preds: int64(preds), cpu: 161 * 250 * time.Microsecond, allocBytes: 161 * 4096})
	if !ok {
		t.Fatal("interval with predictions rejected")
	}
	if math.Abs(r.predPerSec-80.5) > 1e-9 || math.Abs(r.cpuUSPerPred-250) > 1e-9 || math.Abs(r.allocKBPerPred-4) > 1e-9 {
		t.Fatalf("rates %+v, want 80.5 pred/s, 250 us and 4 KiB per prediction", r)
	}
	if _, ok := between(counters{at: t0}, counters{at: t0.Add(time.Second)}); ok {
		t.Fatal("interval without predictions accepted")
	}
}

func TestSliceMediansIgnoreOneBurstAndTheGaps(t *testing.T) {
	t0 := time.Now()
	var ivs []servingSlice
	preds := int64(0)
	for i := 0; i < 5; i++ {
		// 1 s slices with a 3 s job between each and the next.
		from := counters{at: t0.Add(time.Duration(4*i) * time.Second), preds: preds}
		if i == 2 {
			preds += 10 // one slow slice
		} else {
			preds += 100
		}
		ivs = append(ivs, servingSlice{from, counters{at: from.at.Add(time.Second), preds: preds}})
	}
	r, err := sliceMedians(ivs)
	if err != nil || r.predPerSec != 100 {
		t.Fatalf("slice median %v (%v), want 100", r.predPerSec, err)
	}
}

func TestTally(t *testing.T) {
	a, b := newTally(), newTally()
	for _, reason := range []string{"", "", "http_429", "probe_mismatch", ""} {
		a.op(reason)
	}
	for _, reason := range []string{"http_429", "", "job_rejected"} {
		b.op(reason)
	}
	a.merge(b)
	if a.attempted != 8 || a.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 8 and 4", a.attempted, a.failed)
	}
	if a.reasons["http_429"] != 2 || a.reasons["probe_mismatch"] != 1 || a.reasons["job_rejected"] != 1 {
		t.Fatalf("reasons %v", a.reasons)
	}
	if got := a.String(); got != "attempted=8 failed=4 [http_429=2 job_rejected=1 probe_mismatch=1]" {
		t.Fatalf("String() = %q", got)
	}
}
