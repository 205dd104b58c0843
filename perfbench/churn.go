package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/adversary"
	"repro/internal/service"
)

// churnSpec names one streaming configuration of the long-lived service.
type churnSpec struct {
	algo, family string
	sessions     int64
}

const (
	churnLanes   = 64   // closed loop: one session per lane at a time
	churnCap     = 8    // contenders per generation
	churnSvcSeed = 0x10 // fixes the majority expander; the workload seed varies
)

// churnWorkload generates the streamed input from the seed; the service sees
// only the resulting service.Workload.
func churnWorkload(spec churnSpec, seed uint64) (service.Workload, error) {
	fam, err := adversary.ChurnByName(spec.family)
	if err != nil {
		return service.Workload{}, err
	}
	w := fam.Workload(seed, spec.sessions, churnLanes)
	w.MaxGrants = 10_000*spec.sessions + 100_000 // watchdog against a stuck stream
	return w, nil
}

// churnRep is one repetition: build the service and driver, stream the
// workload to completion.
type churnRep struct {
	setup  time.Duration // service.New + NewVexecDriver
	wall   time.Duration // the whole repetition, set-up included
	m      service.Metrics
	allocs uint64 // heap allocations inside Driver.Run (counted only when asked)
}

// churnOnce runs one repetition. An audit violation panics inside the
// service; it is returned as an error.
func churnOnce(spec churnSpec, w service.Workload, audit, countAllocs bool, tr *tracer, parent int, label string) (rep churnRep, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("churn %s/%s: %v", spec.algo, spec.family, p)
		}
	}()
	start := time.Now()
	sp := tr.begin("churn.rep", label, parent)
	s := tr.begin("service.New", label, sp)
	svc := service.New(service.Config{Shards: 1, Cap: churnCap, Algo: spec.algo, Seed: churnSvcSeed, Audit: audit})
	tr.end(s, 1)
	s = tr.begin("service.NewVexecDriver", label, sp)
	d := service.NewVexecDriver(svc, w)
	tr.end(s, 1)
	rep.setup = time.Since(start)
	var m0 uint64
	if countAllocs {
		m0 = mallocs()
	}
	s = tr.begin("service.Driver.Run", label, sp)
	rep.m = d.Run()
	tr.end(s, rep.m.Grants)
	if countAllocs {
		rep.allocs = mallocs() - m0
	}
	if audit && len(svc.Record().Events) == 0 {
		return rep, fmt.Errorf("churn %s/%s: audit recorded no events", spec.algo, spec.family)
	}
	tr.end(sp, rep.m.Sessions)
	rep.wall = time.Since(start)
	return rep, nil
}

// churnLoop repeats the workload until until has passed and at least minReps
// repetitions ran, gating each one. Failed sessions and the sessions of a
// repetition that fails its gate count as failed in res; a failing first
// repetition, which the others are compared with, ends the loop with its
// error.
func churnLoop(spec churnSpec, w service.Workload, minReps int, until time.Time, countAllocs bool, tr *tracer, parent int, res *result) ([]churnRep, error) {
	var reps []churnRep
	for len(reps) < minReps || time.Now().Before(until) {
		runtime.GC() // every repetition starts from the same collected heap
		rep, err := churnOnce(spec, w, false, countAllocs, tr, parent, "")
		res.Attempted += w.Sessions
		if err == nil {
			var ref *service.Metrics
			if len(reps) > 0 {
				ref = &reps[0].m
			}
			err = gateChurn(w, rep.m, ref)
		}
		if err != nil {
			if len(reps) == 0 {
				return nil, err
			}
			fmt.Fprintln(os.Stderr, err)
			res.fail(w.Sessions)
			continue
		}
		res.Failed += rep.m.Failed + (w.Sessions - rep.m.Sessions)
		reps = append(reps, rep)
	}
	return reps, nil
}

func runChurnFirstFit(cfg runConfig) (*result, error) {
	return runChurn(cfg, churnSpec{"firstfit", "steady", cfg.size.ffSessions})
}

func runChurnMajorityCrash(cfg runConfig) (*result, error) {
	return runChurn(cfg, churnSpec{"majority", "crashnorelease", cfg.size.majSessions})
}

// runChurn measures one churn workload: end to end with tracing off, or
// layer by layer with tracing on.
func runChurn(cfg runConfig, spec churnSpec) (*result, error) {
	w, err := churnWorkload(spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	if !cfg.trace {
		reps, err := churnLoop(spec, w, cfg.size.minReps, deadline(cfg), false, nil, -1, res)
		if err != nil {
			return nil, err
		}
		var pass, setup []float64
		for _, r := range reps {
			pass = append(pass, r.m.Elapsed.Seconds())
			setup = append(setup, r.setup.Seconds())
		}
		m := reps[0].m
		res.set("names_per_s", float64(m.Acquired)/fastest(pass))
		res.set("pass_s", fastest(pass))
		res.set("acquire_p50_steps", float64(m.AcquireP50))
		res.set("acquire_p99_steps", float64(m.AcquireP99))
		res.set("ok_ratio", 1-float64(res.Failed)/float64(res.Attempted))
		res.set("setup_s", median(setup))
		res.set("heap_peak_mb", heapPeakMB())
		return res, nil
	}

	// Traced: the first half of the time streams untraced repetitions as the
	// reference for the tracing overhead, the second half traced ones.
	tr := newTracer(cfg.workload)
	half := cfg
	half.seconds /= 2
	ref, err := churnLoop(spec, w, cfg.size.minReps, deadline(half), false, nil, -1, res)
	if err != nil {
		return nil, err
	}
	root := tr.begin("workload", cfg.workload, -1)
	traced, err := churnLoop(spec, w, cfg.size.minReps, deadline(half), true, tr, root, res)
	if err != nil {
		return nil, err
	}
	tr.end(root, int64(len(traced))*w.Sessions)
	var refWall, trWall []float64
	for _, r := range ref {
		refWall = append(refWall, r.wall.Seconds())
	}
	for _, r := range traced {
		trWall = append(trWall, r.wall.Seconds())
	}
	res.set("trace.overhead_ratio", fastest(trWall)/fastest(refWall))
	if err := measureLayers(cfg, spec, w, traced, tr, res); err != nil {
		return nil, err
	}
	return res, finishTrace(cfg, tr)
}

// serviceLayer sets the service and audit metrics from traced repetitions of
// spec over w, plus alternating unaudited and audited repetitions. backendNs
// is the one-shot backend's grant cost, which service.self_ns excludes.
func serviceLayer(cfg runConfig, spec churnSpec, w service.Workload, reps []churnRep, backendNs float64, tr *tracer, res *result) {
	m := reps[0].m
	grantNs := tr.nsPerOp("service.Driver.Run", "")
	sessions := float64(m.Sessions)
	var allocs uint64
	for _, r := range reps {
		allocs += r.allocs
	}
	res.set("service.grant_ns", grantNs)
	res.set("service.self_ns", grantNs-backendNs)
	res.set("service.grants_per_session", float64(m.Grants)/sessions)
	res.set("service.recycles_per_session", float64(m.Stats.Recycles)/sessions)
	res.set("service.reclaims_per_session", float64(m.Stats.Reclaimed)/sessions)
	res.set("service.gen_allocs", float64(m.Stats.GenAllocs))
	res.set("service.allocs_per_session", float64(allocs)/sessions/float64(len(reps)))

	root := tr.begin("audit", cfg.workload, -1)
	for i := 0; i < cfg.size.auditPairs; i++ {
		for _, label := range []string{"noaudit", "audit"} {
			runtime.GC()
			rep, err := churnOnce(spec, w, label == "audit", false, tr, root, label)
			res.Attempted += w.Sessions
			if err == nil {
				err = gateChurn(w, rep.m, &m)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				res.fail(w.Sessions)
			}
		}
	}
	tr.end(root, int64(2*cfg.size.auditPairs)*w.Sessions)
	res.set("check.audit_ns", tr.nsPerOp("service.Driver.Run", "audit")-tr.nsPerOp("service.Driver.Run", "noaudit"))
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapPeakMB returns the heap memory the runtime has obtained from the
// operating system, in MiB. The Go heap never returns address space, so this
// is the run's peak heap footprint.
func heapPeakMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapSys) / (1 << 20)
}
