package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile's rank for
// the percentile to be reported.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted and how many
// samples lie strictly beyond its rank. ok is false when fewer than
// minBeyond do, in which case the tail is too thin to report.
func percentile(sorted []float64, q float64) (v float64, beyond int, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	beyond = n - rank
	return sorted[rank-1], beyond, beyond >= minBeyond
}

// median returns the median of xs (the mean of the middle pair for an
// even count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tally counts operations attempted and failed, with the failures
// grouped by reason.
type tally struct {
	attempted int
	failed    int
	reasons   map[string]int
}

func newTally() *tally { return &tally{reasons: map[string]int{}} }

// op records one operation; a non-empty reason marks it failed.
func (t *tally) op(reason string) {
	t.attempted++
	if reason != "" {
		t.failed++
		t.reasons[reason]++
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for k, v := range o.reasons {
		t.reasons[k] += v
	}
}

func (t *tally) String() string {
	keys := make([]string, 0, len(t.reasons))
	for k := range t.reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, t.reasons[k])
	}
	return fmt.Sprintf("attempted=%d failed=%d [%s]", t.attempted, t.failed, strings.Join(parts, " "))
}

// counters is a cumulative reading taken at a boundary of a serving
// slice: predictions answered correctly (each batch item counts once),
// process CPU and heap bytes allocated.
type counters struct {
	at         time.Time
	preds      int64
	cpu        time.Duration
	allocBytes uint64
}

// rates are the per-prediction figures of the interval between two
// readings.
type rates struct {
	predPerSec     float64
	cpuUSPerPred   float64
	allocKBPerPred float64
}

// between normalizes the interval from a to b per prediction. ok is
// false for an interval without predictions.
func between(a, b counters) (r rates, ok bool) {
	preds := float64(b.preds - a.preds)
	wall := b.at.Sub(a.at).Seconds()
	if preds <= 0 || wall <= 0 {
		return rates{}, false
	}
	return rates{
		predPerSec:     preds / wall,
		cpuUSPerPred:   float64(b.cpu-a.cpu) / float64(time.Microsecond) / preds,
		allocKBPerPred: float64(b.allocBytes-a.allocBytes) / 1024 / preds,
	}, true
}

// servingSlice is one slice of serving: the readings at its start and
// end.
type servingSlice struct{ from, to counters }

// sliceRates normalizes each slice per prediction.
func sliceRates(ivs []servingSlice) (pps, cpu, alloc []float64) {
	for _, iv := range ivs {
		r, ok := between(iv.from, iv.to)
		if !ok {
			continue
		}
		pps = append(pps, r.predPerSec)
		cpu = append(cpu, r.cpuUSPerPred)
		alloc = append(alloc, r.allocKBPerPred)
	}
	return pps, cpu, alloc
}

// sliceMedians takes the median of each rate over the serving slices,
// so a short burst of outside load moves one slice rather than the
// whole run.
func sliceMedians(ivs []servingSlice) (rates, error) {
	pps, cpu, alloc := sliceRates(ivs)
	if len(pps) == 0 {
		return rates{}, fmt.Errorf("no serving slice answered a prediction")
	}
	return rates{predPerSec: median(pps), cpuUSPerPred: median(cpu), allocKBPerPred: median(alloc)}, nil
}
