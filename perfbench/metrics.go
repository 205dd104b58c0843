package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one reported metric. The lists below are the
// benchmark's metric registry; BENCHMARK.json at the repository root
// declares the same names and units, which the self-test cross-checks.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the repository sees, reported by every
// workload with --trace 0.
var endToEnd = []metricDef{
	{"names_per_s", "1/s"},
	{"pass_s", "s"},
	{"acquire_p50_steps", "steps"},
	{"acquire_p99_steps", "steps"},
	{"ok_ratio", "ratio"},
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by every workload with
// --trace 1.
var perLayer = []metricDef{
	{"vexec.grant_ns", "ns"},
	{"vexec.allocs_per_grant", "count"},
	{"compete.grant_ns", "ns"},
	{"compete.grants_per_rename", "count"},
	{"compete.recycle_ns", "ns"},
	{"core.grant_ns", "ns"},
	{"core.grants_per_rename", "count"},
	{"core.recycle_ns", "ns"},
	{"service.grant_ns", "ns"},
	{"service.self_ns", "ns"},
	{"service.grants_per_session", "count"},
	{"service.recycles_per_session", "count"},
	{"service.reclaims_per_session", "count"},
	{"service.gen_allocs", "count"},
	{"service.allocs_per_session", "count"},
	{"check.audit_ns", "ns"},
	{"explore.leaves", "count"},
	{"explore.decisions", "count"},
	{"explore.restores", "count"},
	{"explore.replays", "count"},
	{"explore.dedup_hits", "count"},
	{"explore.dedup_hit_ratio", "ratio"},
	{"explore.race_s", "s"},
	{"explore.race_share", "ratio"},
	{"explore.hash_s", "s"},
	{"model.leaf_us", "us"},
	{"trace.overhead_ratio", "ratio"},
}

// metricValue is one measured metric as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output object, printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metricValue{}}
}

// set records a registered metric; an unregistered name is a bug.
func (r *result) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic(fmt.Sprintf("perfbench: metric %q is not registered", name))
}

// fail marks the run incorrect and counts ops failed operations.
func (r *result) fail(ops int64) {
	r.Correct = false
	r.Failed += ops
}

// complete reports an error unless r holds exactly the metrics of want, each
// a finite number.
func (r *result) complete(want []metricDef) error {
	if r.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("%d metrics measured, %d declared", len(r.Metrics), len(want))
	}
	for _, d := range want {
		v, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s not measured", d.name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v.Value)
		}
	}
	return nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// fastest returns the median of the fastest twentieth of the repetition
// times ts (the fastest one when there are fewer than 20). On a shared
// two-core host, co-tenant load on the sibling hyperthreads slows single
// repetitions by up to a half and drifts over minutes; load only ever slows a
// repetition down, so the fastest repetitions estimate the undisturbed cost
// and repeat from run to run where the median drifts with the neighbours.
func fastest(ts []float64) float64 {
	s := append([]float64(nil), ts...)
	sort.Float64s(s)
	return median(s[:(len(s)+19)/20])
}

// stepHist is an exact histogram of local step counts.
type stepHist map[int64]int64

// quantile returns the smallest value v such that more than q of the
// samples are at most v (0 for an empty histogram).
func (h stepHist) quantile(q float64) int64 {
	var vals []int64
	var total int64
	for v, c := range h {
		vals = append(vals, v)
		total += c
	}
	if total == 0 {
		return 0
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	rank := int64(float64(total-1) * q)
	var seen int64
	for _, v := range vals {
		seen += h[v]
		if seen > rank {
			return v
		}
	}
	return vals[len(vals)-1]
}
