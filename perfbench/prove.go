package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/check"
	"repro/internal/conformance"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/xrand"
)

// cell is one proof the prove workload walks.
type cell struct {
	label string
	n     int
	build func() check.Renamer
	origs []int64
	suite check.Suite
	opt   model.Options
}

// proveCells builds the cells the model-check CI job proves: every proven
// cell of the conformance table up to population maxN, with default options
// (source-DPOR on vexec, dedup on), and the two vexec cells of the long-lived
// service proof (sleep-set walker, service audit on).
func proveCells(maxN int) []cell {
	var cells []cell
	for _, tc := range conformance.Cases() {
		for _, pc := range tc.Proven {
			if pc.N > maxN {
				continue
			}
			tc, n := tc, pc.N
			cells = append(cells, cell{
				label: fmt.Sprintf("%s/n=%d", tc.Name, n),
				n:     n,
				build: func() check.Renamer { return tc.New(n, 1) },
				origs: tc.Origs(n, 1),
				suite: tc.Suite(n, "model"),
				opt:   model.Options{MaxCrashes: pc.MaxCrashes},
			})
		}
	}
	for _, c := range []struct {
		algo   string
		n, cap int
	}{{"firstfit", 2, 2}, {"majority", 3, 3}} {
		c := c
		cells = append(cells, cell{
			label: fmt.Sprintf("service-%s/n=%d", c.algo, c.n),
			n:     c.n,
			build: func() check.Renamer { return service.NewLLFixture(c.algo, c.n, c.cap, 2, 7) },
			suite: check.Suite{check.Exclusive()},
			opt:   model.Options{MaxCrashes: c.n - 1, Walker: model.WalkerSleepSet, Engine: model.EngineVexec},
		})
	}
	return cells
}

// walk is one proof of one cell.
type walk struct {
	rep   model.Report
	wall  time.Duration
	names int64 // names returned by the walk's complete executions
}

// prove walks c once. Every complete execution's acquiring processes add
// their local step counts to hist.
func prove(c cell, hist stepHist, noDedup bool) walk {
	var names int64
	steps := check.New("perfbench-steps", func(r *check.Run) error {
		for pid := range r.Names {
			hist[r.Res.Steps[pid]]++
		}
		names += int64(len(r.Names))
		return nil
	})
	suite := append(append(check.Suite(nil), c.suite...), steps)
	opt := c.opt
	opt.NoDedup = noDedup
	start := time.Now()
	rep := model.Check(c.label, c.build, c.n, c.origs, suite, opt)
	return walk{rep: rep, wall: time.Since(start), names: names}
}

// provePass walks every cell once in order, gating each walk against the
// first walk of the same cell in first (filled on the first pass).
func provePass(cells []cell, order []int, first []*proveExact, hist stepHist, tr *tracer, parent int, res *result) []walk {
	walks := make([]walk, len(cells))
	for _, i := range order {
		runtime.GC() // every walk starts from the same collected heap
		sp := tr.begin("model.Check", cells[i].label, parent)
		w := prove(cells[i], hist, false)
		tr.end(sp, int64(w.rep.Executions))
		res.Attempted++
		if err := gateProve(w.rep, w.names, first[i]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			res.fail(1)
		} else if first[i] == nil {
			c := proveCounts(w.rep, w.names)
			first[i] = &c
		}
		walks[i] = w
	}
	return walks
}

func runProve(cfg runConfig) (*result, error) {
	res := newResult()
	// Set-up is building the cells; it is repeated and its median reported.
	var setup []float64
	var cells []cell
	for i := 0; i < cfg.size.setupReps; i++ {
		start := time.Now()
		cells = proveCells(cfg.size.proveMaxN)
		for _, c := range cells {
			c.build()
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	// The seed fixes the order the cells are walked in.
	order := xrand.New(xrand.Mix(cfg.seed, 0x70726f76)).Perm(len(cells))
	first := make([]*proveExact, len(cells))
	hist := stepHist{}

	if !cfg.trace {
		until := deadline(cfg)
		perCell := make([][]float64, len(cells))
		var names int64
		for pass := 0; ; pass++ {
			start := time.Now()
			walks := provePass(cells, order, first, hist, nil, -1, res)
			for i, w := range walks {
				perCell[i] = append(perCell[i], w.wall.Seconds())
				if pass == 0 {
					names += w.names
				}
			}
			// Start another pass only if it should end before the deadline.
			if time.Now().Add(time.Since(start)).After(until) {
				break
			}
		}
		var pass float64
		for _, ts := range perCell {
			pass += fastest(ts)
		}
		res.set("names_per_s", float64(names)/pass)
		res.set("pass_s", pass)
		res.set("acquire_p50_steps", float64(hist.quantile(0.50)))
		res.set("acquire_p99_steps", float64(hist.quantile(0.99)))
		res.set("ok_ratio", 1-float64(res.Failed)/float64(res.Attempted))
		res.set("setup_s", median(setup))
		res.set("heap_peak_mb", heapPeakMB())
		return res, nil
	}

	// Traced: one untraced pass as the overhead reference, then the traced
	// pass the explore metrics come from.
	tr := newTracer(cfg.workload)
	start := time.Now()
	provePass(cells, order, first, hist, nil, -1, res)
	refWall := time.Since(start)
	root := tr.begin("workload", cfg.workload, -1)
	walks := provePass(cells, order, first, hist, tr, root, res)
	tr.end(root, int64(len(cells)))
	res.set("trace.overhead_ratio", float64(tr.dur(root))/float64(refWall))
	exploreLayer(cells, walks, tr, res)

	backendNs := rungs(cfg, tr, res)
	// The prove workload streams nothing; the service layer is measured on
	// the churn-firstfit stream.
	spec := churnSpec{"firstfit", "steady", cfg.size.ffSessions}
	w, err := churnWorkload(spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	svcRoot := tr.begin("service", spec.algo, -1)
	reps, err := churnLoop(spec, w, cfg.size.minReps, time.Now(), true, tr, svcRoot, res)
	if err != nil {
		return nil, err
	}
	tr.end(svcRoot, int64(len(reps))*w.Sessions)
	serviceLayer(cfg, spec, w, reps, backendNs["firstfit"], tr, res)
	return res, finishTrace(cfg, tr)
}

// exploreLayer sets the explore and model metrics from traced walks of cells,
// and measures state hashing by walking again with dedup off every
// source-DPOR cell whose walk deduplicated nothing (its tree is then the
// same with dedup off).
func exploreLayer(cells []cell, walks []walk, tr *tracer, res *result) {
	var leaves, decisions, restores, replays, hits int
	var race, wall, dedupWall, plainWall time.Duration
	root := tr.begin("nodedup", "", -1)
	for i, w := range walks {
		r := w.rep
		leaves += r.Executions
		decisions += r.Explored
		restores += r.Restored
		replays += r.Replayed
		hits += r.Deduped
		race += r.RaceTime
		wall += w.wall
		if r.Deduped != 0 || cells[i].opt.Walker != model.WalkerSourceDPOR {
			continue
		}
		runtime.GC()
		sp := tr.begin("model.Check.nodedup", cells[i].label, root)
		plain := prove(cells[i], stepHist{}, true)
		tr.end(sp, int64(plain.rep.Executions))
		res.Attempted++
		ref := proveCounts(r, w.names) // Deduped is 0 on both walks
		if err := gateProve(plain.rep, plain.names, &ref); err != nil {
			fmt.Fprintln(os.Stderr, err)
			res.fail(1)
		}
		dedupWall += w.wall
		plainWall += plain.wall
	}
	tr.end(root, 0)
	res.set("explore.leaves", float64(leaves))
	res.set("explore.decisions", float64(decisions))
	res.set("explore.restores", float64(restores))
	res.set("explore.replays", float64(replays))
	res.set("explore.dedup_hits", float64(hits))
	res.set("explore.dedup_hit_ratio", float64(hits)/float64(decisions))
	res.set("explore.race_s", race.Seconds())
	res.set("explore.race_share", race.Seconds()/wall.Seconds())
	res.set("explore.hash_s", (dedupWall - plainWall).Seconds())
	res.set("model.leaf_us", float64(wall.Microseconds())/float64(leaves))
}
