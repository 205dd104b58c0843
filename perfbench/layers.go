package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/compete"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/shmem"
	"repro/internal/vexec"
	"repro/internal/xrand"
)

// measureLayers sets the per-layer metrics of a traced churn run: the
// ablation rungs, the service layer from the traced repetitions, and the
// explore layer from the conformance cell of the streamed backend.
func measureLayers(cfg runConfig, spec churnSpec, w service.Workload, reps []churnRep, tr *tracer, res *result) error {
	backendNs := rungs(cfg, tr, res)
	serviceLayer(cfg, spec, w, reps, backendNs[spec.algo], tr, res)
	// The backend's largest proven conformance cell stands in for the
	// explore layer, which streaming does not use.
	var c *cell
	for _, cand := range proveCells(cfg.size.proveMaxN) {
		if strings.HasPrefix(cand.label, spec.algo+"/") {
			cand := cand
			c = &cand
		}
	}
	if c == nil {
		return fmt.Errorf("no proven conformance cell for %s", spec.algo)
	}
	root := tr.begin("explore", c.label, -1)
	sp := tr.begin("model.Check", c.label, root)
	wk := prove(*c, stepHist{}, false)
	tr.end(sp, int64(wk.rep.Executions))
	tr.end(root, 1)
	res.Attempted++
	if err := gateProve(wk.rep, wk.names, nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		res.fail(1)
	}
	exploreLayer([]cell{*c}, []walk{wk}, tr, res)
	return nil
}

// finishTrace writes the spans under .bench_build/spans/ and prints the
// per-span self-time table to standard error.
func finishTrace(cfg runConfig, tr *tracer) error {
	tr.report(os.Stderr)
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path, machine()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spans: %d written to %s\n", len(tr.spans), path)
	return nil
}

// rungs measures the ablation rungs below the service: the bare vexec grant
// path and one-shot renames on each backend. It returns each backend's grant
// cost by service algo name.
func rungs(cfg runConfig, tr *tracer, res *result) map[string]float64 {
	sz := cfg.size
	root := tr.begin("rungs", "", -1)

	// vexec: Exec.Step on a bare spin-read frame at 64 lanes, round-robin.
	var reg shmem.Reg
	e := vexec.New(64, nil, func(p *shmem.Proc) vexec.Frame { return &spinRead{r: &reg} })
	m0 := mallocs()
	pid := 0
	for done := int64(0); done < sz.spinGrants; done += sz.spinChunk {
		sp := tr.begin("vexec.Exec.Step", "", root)
		for i := int64(0); i < sz.spinChunk; i++ {
			e.Step(pid)
			if pid++; pid == 64 {
				pid = 0
			}
		}
		tr.end(sp, sz.spinChunk)
	}
	res.set("vexec.allocs_per_grant", float64(mallocs()-m0)/float64(sz.spinGrants))
	res.set("vexec.grant_ns", tr.nsPerOp("vexec.Exec.Step", ""))
	res.Attempted++

	ff := compete.NewFirstFit(2*churnCap + 2)
	res.set("compete.grants_per_rename", oneShotRung(cfg, "compete.FirstFit", ff, tr, root, res))
	maj := core.NewMajority(churnCap, churnCap, core.Config{Seed: xrand.Mix(churnSvcSeed, 0x6d616a6f)})
	res.set("core.grants_per_rename", oneShotRung(cfg, "core.Majority", maj, tr, root, res))
	tr.end(root, 3)

	out := map[string]float64{
		"firstfit": tr.nsPerOp("compete.FirstFit.FrameRename", ""),
		"majority": tr.nsPerOp("core.Majority.FrameRename", ""),
	}
	res.set("compete.grant_ns", out["firstfit"])
	res.set("compete.recycle_ns", tr.nsPerOp("compete.FirstFit.Recycle", ""))
	res.set("core.grant_ns", out["majority"])
	res.set("core.recycle_ns", tr.nsPerOp("core.Majority.Recycle", ""))
	return out
}

// spinRead is a frame that reads one register forever: the grant path with
// no algorithm work.
type spinRead struct {
	r       *shmem.Reg
	entered bool
}

func (f *spinRead) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if f.entered {
		p.Read(f.r)
	}
	f.entered = true
	return m.Intend(shmem.OpRead, f.r)
}

// oneShot is a service backend as the rungs drive it.
type oneShot interface {
	FrameRename(orig int64) vexec.Frame
	Recycle()
	MaxName() int64
}

// oneShotRung runs cfg.size.renames one-shot renames of churnCap contenders
// through alg's frames on vexec under a seeded random schedule, recycling the
// field between them, then times Recycle alone. Each rename is checked for
// exclusive names within alg's bound; prefix names the spans. It returns the
// grants per contender rename.
func oneShotRung(cfg runConfig, prefix string, alg oneShot, tr *tracer, parent int, res *result) float64 {
	sz := cfg.size
	names := make([]int64, churnCap)
	for i := range names {
		names[i] = int64(i + 1)
	}
	root := func(p *shmem.Proc) vexec.Frame { return alg.FrameRename(p.Name()) }
	e := vexec.New(churnCap, names, root)
	rng := xrand.New(xrand.Mix(cfg.seed, 0x72756e67))
	taken := map[int64]bool{}
	var grants int64
	for i := 0; i < sz.renames; i++ {
		if i > 0 {
			alg.Recycle()
			e.Reset(names, root)
		}
		sp := tr.begin(prefix+".FrameRename", "", parent)
		for e.PendingCount() > 0 {
			e.Step(e.NthPending(rng.Intn(e.PendingCount())))
		}
		tr.end(sp, e.Grants())
		grants += e.Grants()
		res.Attempted++
		clear(taken)
		for pid := 0; pid < churnCap; pid++ {
			nm, ok := e.Returned(pid)
			if !ok {
				continue
			}
			if nm < 1 || nm > alg.MaxName() || taken[nm] {
				fmt.Fprintf(os.Stderr, "%s: rename %d gave pid %d name %d (bound %d, taken %v)\n", prefix, i, pid, nm, alg.MaxName(), taken[nm])
				res.fail(1)
				break
			}
			taken[nm] = true
		}
	}
	for b := 0; b < sz.recycles; b++ {
		sp := tr.begin(prefix+".Recycle", "", parent)
		for k := 0; k < sz.recycleBatch; k++ {
			alg.Recycle()
		}
		tr.end(sp, int64(sz.recycleBatch))
	}
	return float64(grants) / float64(sz.renames*churnCap)
}
