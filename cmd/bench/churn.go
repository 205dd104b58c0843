package main

import (
	"fmt"
	"os"

	"repro/internal/adversary"
	"repro/internal/service"
)

// ChurnEntry is one streaming run of the long-lived renaming service: a
// workload of sessions that arrive, acquire a name through a one-shot
// backend activation, hold it, and release it — driven to completion on one
// engine. NamesPerSec is the headline column (acquired names per wall-clock
// second); AcquireP50/P99/Max are in local steps (announce plus backend
// accesses, retries included), so they measure the algorithmic acquire cost
// independent of engine speed — the engines agree on them bit-for-bit.
// SpeedupVsGoroutine is filled on vexec rows that have a matched
// goroutine-oracle row (same workload, same service config); the best such
// row carries the PR's >= 5x acceptance gate on full runs.
type ChurnEntry struct {
	Engine             string  `json:"engine"`
	Algo               string  `json:"algo"`
	Family             string  `json:"family"`
	Sessions           int64   `json:"sessions"`
	Lanes              int     `json:"lanes"`
	Shards             int     `json:"shards"`
	Acquired           int64   `json:"acquired"`
	Failed             int64   `json:"failed"`
	Crashed            int64   `json:"crashed"`
	Grants             int64   `json:"grants"`
	AcquireP50         int64   `json:"acquire_p50_steps"`
	AcquireP99         int64   `json:"acquire_p99_steps"`
	AcquireMax         int64   `json:"acquire_max_steps"`
	NamesPerSec        float64 `json:"names_per_sec"`
	GrantsPerSec       float64 `json:"grants_per_sec"`
	Recycles           int64   `json:"recycles"`
	GenAllocs          int64   `json:"gen_allocs"`
	WallMs             float64 `json:"wall_ms"`
	SpeedupVsGoroutine float64 `json:"speedup_vs_goroutine,omitempty"`
}

// churnRow drives one workload to completion and folds the metrics into a
// row. Shards threads through the service config; everything else about the
// cell is in the workload.
func churnRow(engine, algo, family string, shards int, w service.Workload) ChurnEntry {
	svc := service.New(service.Config{Shards: shards, Cap: 8, Algo: algo, Seed: 0x10})
	var d *service.Driver
	if engine == "vexec" {
		d = service.NewVexecDriver(svc, w)
	} else {
		d = service.NewGoroutineDriver(svc, w)
	}
	m := d.Run()
	e := ChurnEntry{
		Engine: engine, Algo: algo, Family: family,
		Sessions: m.Sessions, Lanes: w.Lanes, Shards: shards,
		Acquired: m.Acquired, Failed: m.Failed, Crashed: m.Crashed,
		Grants:     m.Grants,
		AcquireP50: m.AcquireP50, AcquireP99: m.AcquireP99, AcquireMax: m.AcquireMax,
		NamesPerSec: m.NamesPerSec,
		Recycles:    m.Stats.Recycles, GenAllocs: m.Stats.GenAllocs,
		WallMs: float64(m.Elapsed.Microseconds()) / 1e3,
	}
	if s := m.Elapsed.Seconds(); s > 0 {
		e.GrantsPerSec = float64(m.Grants) / s
	}
	fmt.Fprintf(os.Stderr, "churn %-9s %-8s %-14s sessions=%-8d shards=%-2d %10.0f names/sec  p50=%d p99=%d steps  recycles=%d\n",
		engine, algo, family, m.Sessions, shards, e.NamesPerSec, e.AcquireP50, e.AcquireP99, e.Recycles)
	return e
}

// churnWorkload resolves a shipped churn family's workload at one scale and
// arms the stuck-run watchdog.
func churnWorkload(family string, sessions int64, lanes int, seed uint64) service.Workload {
	fam, err := adversary.ChurnByName(family)
	if err != nil {
		panic(err)
	}
	w := fam.Workload(seed, sessions, lanes)
	w.MaxGrants = 10_000*sessions + 100_000
	return w
}

// runChurn is the long-lived service section: the engine pair on the
// identical steady workload (the speedup gate), the shard sweep, the hostile
// churn families, and a million-session endurance row on full runs. On full
// (non -quick) runs the best vexec row with a goroutine twin must clear the
// >= 5x names/sec acceptance gate or the bench exits nonzero.
func runChurn(quick bool) []ChurnEntry {
	const lanes = 64
	const seed = 0x5eed10
	sessions := int64(200_000)
	goroutineSessions := int64(100_000)
	if quick {
		sessions = 20_000
		goroutineSessions = 5_000
	}

	var rows []ChurnEntry

	// Engine pair on the identical steady workload. The goroutine row runs
	// fewer sessions on full runs (its grant path is the slow side being
	// measured); names/sec is rate, not total, so the comparison stands.
	gw := churnWorkload("steady", goroutineSessions, lanes, seed)
	gRow := churnRow("goroutine", "firstfit", "steady", 1, gw)
	rows = append(rows, gRow)
	vw := churnWorkload("steady", sessions, lanes, seed)
	vRow := churnRow("vexec", "firstfit", "steady", 1, vw)
	if gRow.NamesPerSec > 0 {
		vRow.SpeedupVsGoroutine = vRow.NamesPerSec / gRow.NamesPerSec
	}
	rows = append(rows, vRow)
	best := vRow.SpeedupVsGoroutine

	// Shard sweep: the same steady workload over a sharded name space.
	for _, shards := range []int{4, 16} {
		r := churnRow("vexec", "firstfit", "steady", shards, vw)
		if gRow.NamesPerSec > 0 {
			r.SpeedupVsGoroutine = r.NamesPerSec / gRow.NamesPerSec
			if r.SpeedupVsGoroutine > best {
				best = r.SpeedupVsGoroutine
			}
		}
		rows = append(rows, r)
	}

	// Hostile churn families on the vectorized engine.
	for _, family := range []string{"spike", "syncdepart", "crashnorelease"} {
		rows = append(rows, churnRow("vexec", "firstfit", family, 1, churnWorkload(family, sessions, lanes, seed)))
	}

	// The second backend, smaller scale: majority's acquire is a fixed short
	// walk (BENCH_PR10.json: p50 = p99 = 6 steps against firstfit's p50 of
	// 14), so this row contextualizes p99 across backends.
	majoritySessions := sessions / 20
	rows = append(rows, churnRow("vexec", "majority", "steady", 1, churnWorkload("steady", majoritySessions, lanes, seed)))

	if !quick {
		// Endurance row: a million sessions through one driver, steady churn.
		rows = append(rows, churnRow("vexec", "firstfit", "steady", 1, churnWorkload("steady", 1_000_000, lanes, seed)))
		if best < 5.0 {
			fmt.Fprintf(os.Stderr, "bench: churn speedup gate FAILED: best vexec row %.2fx < 5x goroutine oracle\n", best)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "churn speedup gate: best vexec row %.1fx goroutine oracle (>= 5x required)\n", best)
	}
	return rows
}
