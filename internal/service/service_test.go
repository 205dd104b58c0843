package service

import (
	"testing"

	"repro/internal/check"
)

func TestNamePackUnpack(t *testing.T) {
	cases := []Name{
		{Shard: 0, Local: 1, Epoch: 0},
		{Shard: 3, Local: 17, Epoch: 5},
		{Shard: 1<<shardBits - 1, Local: 1<<localBits - 1, Epoch: 1<<epochBits - 1},
	}
	for _, nm := range cases {
		v := nm.Int()
		if v < 1 {
			t.Fatalf("%+v packs to %d, want >= 1", nm, v)
		}
		if got := Unpack(v); got != nm {
			t.Fatalf("Unpack(Int(%+v)) = %+v", nm, got)
		}
	}
	// Distinct epochs alias-proof the same (shard, local).
	a := Name{Shard: 2, Local: 9, Epoch: 4}.Int()
	b := Name{Shard: 2, Local: 9, Epoch: 5}.Int()
	if a == b {
		t.Fatal("epoch does not distinguish reused (shard, local) names")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Int accepted Local=0 (would alias check.Exclusive's name space)")
		}
	}()
	_ = Name{Shard: 0, Local: 0, Epoch: 0}.Int()
}

// requireClean asserts the audit record replays without a violation and that
// nothing is live at the end.
func requireClean(t *testing.T, svc *Service) {
	t.Helper()
	if err := check.LLCheckAll(svc.Record()); err != nil {
		t.Fatalf("audit record violates long-lived invariants: %v", err)
	}
	if n := svc.LiveNames(); n != 0 {
		t.Fatalf("%d names still live at end of run", n)
	}
}

func TestStreamVexecSteady(t *testing.T) {
	svc := New(Config{Cap: 8, Algo: "firstfit", Seed: 11, Audit: true})
	m := NewVexecDriver(svc, Workload{
		Sessions: 3000, Lanes: 8, Seed: 42,
		HoldMin: 0, HoldMax: 12, MaxGrants: 5_000_000,
	}).Run()
	if m.Sessions != 3000 {
		t.Fatalf("processed %d sessions, want 3000", m.Sessions)
	}
	if m.Acquired != 3000 || m.Failed != 0 || m.Crashed != 0 {
		t.Fatalf("acquired=%d failed=%d crashed=%d, want 3000/0/0", m.Acquired, m.Failed, m.Crashed)
	}
	st := m.Stats
	if st.Issued != st.Released {
		t.Fatalf("issued %d != released %d with no crashes", st.Issued, st.Released)
	}
	if st.Recycles == 0 {
		t.Fatal("no generation was ever recycled over 3000 sessions")
	}
	if st.GenAllocs > int64(8+2*8) {
		t.Fatalf("%d generation allocations for a steady 8-lane run — pooling is not engaging", st.GenAllocs)
	}
	requireClean(t, svc)
}

func TestStreamGoroutineSteady(t *testing.T) {
	svc := New(Config{Cap: 8, Algo: "firstfit", Seed: 11, Audit: true})
	m := NewGoroutineDriver(svc, Workload{
		Sessions: 500, Lanes: 8, Seed: 42,
		HoldMin: 0, HoldMax: 12, MaxGrants: 2_000_000,
	}).Run()
	if m.Acquired != 500 || m.Failed != 0 {
		t.Fatalf("acquired=%d failed=%d, want 500/0", m.Acquired, m.Failed)
	}
	requireClean(t, svc)
}

// TestStreamEnginesAgree: the goroutine oracle and the vectorized engine run
// the same seeded workload through bit-compatible session loops, so the
// outcome counters, the service counters, and the acquire-latency quantiles
// must agree exactly.
func TestStreamEnginesAgree(t *testing.T) {
	w := Workload{
		Sessions: 800, Lanes: 8, Seed: 1234,
		HoldMin: 1, HoldMax: 9, MaxGrants: 2_000_000,
	}
	cfg := Config{Cap: 8, Algo: "firstfit", Seed: 5}
	mv := NewVexecDriver(New(cfg), w).Run()
	mg := NewGoroutineDriver(New(cfg), w).Run()
	if mv.Acquired != mg.Acquired || mv.Failed != mg.Failed {
		t.Fatalf("outcomes diverge: vexec %d/%d vs goroutine %d/%d",
			mv.Acquired, mv.Failed, mg.Acquired, mg.Failed)
	}
	if mv.AcquireP50 != mg.AcquireP50 || mv.AcquireP99 != mg.AcquireP99 || mv.AcquireMax != mg.AcquireMax {
		t.Fatalf("latency quantiles diverge: vexec p50=%d p99=%d max=%d vs goroutine p50=%d p99=%d max=%d",
			mv.AcquireP50, mv.AcquireP99, mv.AcquireMax, mg.AcquireP50, mg.AcquireP99, mg.AcquireMax)
	}
	if mv.Stats != mg.Stats {
		t.Fatalf("service counters diverge:\nvexec     %+v\ngoroutine %+v", mv.Stats, mg.Stats)
	}
}

// TestStreamCrashChurn: the crash-without-release family. Every crashed
// holder's lease is reclaimed (exactly once — the audit panics on a double),
// so issued names are exactly released + reclaimed and the audit replays
// clean.
func TestStreamCrashChurn(t *testing.T) {
	svc := New(Config{Cap: 8, Algo: "firstfit", Seed: 3, Audit: true})
	m := NewVexecDriver(svc, Workload{
		Sessions: 3000, Lanes: 8, Seed: 99,
		HoldMin: 2, HoldMax: 20, CrashEvery: 97, MaxGrants: 5_000_000,
	}).Run()
	if m.Sessions != 3000 {
		t.Fatalf("processed %d sessions, want 3000", m.Sessions)
	}
	if m.Crashed == 0 {
		t.Fatal("crash family produced no crashes")
	}
	st := m.Stats
	if st.Reclaimed != m.Crashed {
		t.Fatalf("reclaimed %d leases for %d crashes", st.Reclaimed, m.Crashed)
	}
	if st.Issued != st.Released+st.Reclaimed {
		t.Fatalf("leak: issued %d != released %d + reclaimed %d", st.Issued, st.Released, st.Reclaimed)
	}
	requireClean(t, svc)
}

// TestStreamSpikeAligned: bursty arrivals plus synchronized departures — the
// recycle path's worst case (whole generations empty at one aligned instant).
func TestStreamSpikeAligned(t *testing.T) {
	svc := New(Config{Cap: 8, Algo: "firstfit", Seed: 7, Audit: true})
	m := NewVexecDriver(svc, Workload{
		Sessions: 2000, Lanes: 16, Seed: 77,
		HoldMin: 1, HoldMax: 30,
		SpikePeriod: 64, SpikeBurst: 16, AlignRelease: 32,
		MaxGrants: 5_000_000,
	}).Run()
	if m.Sessions != 2000 {
		t.Fatalf("processed %d sessions, want 2000", m.Sessions)
	}
	if m.Stats.Recycles == 0 {
		t.Fatal("synchronized departures never recycled a generation")
	}
	requireClean(t, svc)
}

// TestStreamMajorityBackend: the second backend drives the same streaming
// loop.
func TestStreamMajorityBackend(t *testing.T) {
	svc := New(Config{Cap: 8, Algo: "majority", Seed: 13, Audit: true})
	m := NewVexecDriver(svc, Workload{
		Sessions: 300, Lanes: 8, Seed: 5,
		HoldMin: 0, HoldMax: 8, MaxGrants: 10_000_000,
	}).Run()
	if m.Sessions != 300 {
		t.Fatalf("processed %d sessions, want 300", m.Sessions)
	}
	if m.Acquired+m.Failed != 300 {
		t.Fatalf("acquired=%d failed=%d, want total 300", m.Acquired, m.Failed)
	}
	requireClean(t, svc)
}
