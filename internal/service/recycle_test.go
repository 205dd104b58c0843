package service

import (
	"testing"

	"repro/internal/check"
	"repro/internal/shmem"
)

// TestPooledGenerationsAreFresh: every generation waiting in a pool after a
// churn run must be indistinguishable from a fresh one. Its presence row
// reads Null and a solo contender acquires the backend's first name: name 1
// on firstfit, the first neighbor of original name 1 on majority (Lemma 1's
// fresh-pair property). The crashnorelease runs pool generations whose
// reclaimed holders never wrote their departing Null, so recycling had
// presence tags to clear there; the test requires at least one such
// generation in the pools.
func TestPooledGenerationsAreFresh(t *testing.T) {
	// The steady and crashnorelease shapes of adversary.ChurnFamilies, which
	// this package cannot import.
	families := []struct {
		name string
		w    Workload
	}{
		{"steady", Workload{Sessions: 2000, Lanes: 8, Seed: 21, HoldMin: 0, HoldMax: 16, MaxGrants: 5_000_000}},
		{"crashnorelease", Workload{Sessions: 2000, Lanes: 8, Seed: 21, HoldMin: 2, HoldMax: 24, CrashEvery: 97, MaxGrants: 5_000_000}},
	}
	for _, algo := range Algos() {
		for _, fam := range families {
			svc := New(Config{Cap: 8, Algo: algo, Seed: 9, Audit: true})
			m := NewVexecDriver(svc, fam.w).Run()
			if m.Sessions != fam.w.Sessions || m.Stats.Recycles == 0 {
				t.Fatalf("%s/%s: %d sessions, %d recycles", algo, fam.name, m.Sessions, m.Stats.Recycles)
			}
			requireClean(t, svc)
			reclaimedIn := make(map[uint64]bool)
			for _, e := range svc.Record().Events {
				if e.Op == check.LLReclaim {
					reclaimedIn[e.Epoch] = true
				}
			}
			pooled, pooledAfterReclaim := 0, 0
			for _, sh := range svc.shards {
				for _, g := range sh.pool {
					pooled++
					if reclaimedIn[g.epoch] {
						pooledAfterReclaim++
					}
					for i := range g.pres {
						if v := g.pres[i].Peek(); v != shmem.Null {
							t.Fatalf("%s/%s: pooled epoch %d presence slot %d holds %d", algo, fam.name, g.epoch, i, v)
						}
					}
					want := int64(1)
					if mb, ok := g.backend.(majorityBackend); ok {
						want = int64(mb.Graph().Neighbor(1, 0))
					}
					if got, ok := g.backend.Rename(shmem.NewProc(0, 1, nil), 1); !ok || got != want {
						t.Fatalf("%s/%s: solo rename on pooled epoch %d = (%d, %v), want (%d, true)",
							algo, fam.name, g.epoch, got, ok, want)
					}
				}
			}
			if pooled == 0 {
				t.Fatalf("%s/%s: no generation left in the pools", algo, fam.name)
			}
			if fam.w.CrashEvery > 0 && pooledAfterReclaim == 0 {
				t.Fatalf("%s/%s: no pooled generation had a reclaimed session", algo, fam.name)
			}
		}
	}
}
