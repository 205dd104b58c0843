package sched

import (
	"fmt"
	"testing"

	"repro/internal/shmem"
)

// spinReader is a body that reads one register forever; benchmark loops
// grant it steps and Abort releases it.
func spinReader(r *shmem.Reg) Body {
	return func(p *shmem.Proc) {
		for {
			p.Read(r)
		}
	}
}

// stepSizes is the n sweep shared by the step benchmarks; the large sizes
// are the simulation-scale regime the ROADMAP targets.
var stepSizes = []int{1, 8, 64, 512, 4096}

// BenchmarkControllerStep measures the steady-state driven grant path — one
// round-robin policy decision plus one granted step per iteration, exactly
// the decision loop Run executes (RoundRobin implements IterPolicy, so the
// decision walks the pending bitmap without building a slice). A granted
// step must report 0 allocs/op.
func BenchmarkControllerStep(b *testing.B) {
	for _, n := range stepSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var r shmem.Reg
			c := NewController(n, nil, spinReader(&r))
			defer c.Abort()
			rr := &RoundRobin{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Step(rr.NextIter(c))
			}
			b.StopTimer()
		})
	}
}

// BenchmarkControllerStepPendingInto measures the slice-based decision loop
// (for policies that need the full pending set, e.g. Random): PendingInto
// into a reused buffer, then a slice policy, then the grant.
func BenchmarkControllerStepPendingInto(b *testing.B) {
	for _, n := range []int{8, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var r shmem.Reg
			c := NewController(n, nil, spinReader(&r))
			defer c.Abort()
			rr := &RoundRobin{}
			buf := make([]int, 0, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Step(rr.Next(c, c.PendingInto(buf)))
			}
			b.StopTimer()
		})
	}
}

// BenchmarkControllerStepN measures batched grants: each iteration delivers
// one step as part of a k-step run granted with a single wakeup.
func BenchmarkControllerStepN(b *testing.B) {
	for _, k := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var r shmem.Reg
			c := NewController(8, nil, spinReader(&r))
			defer c.Abort()
			last := -1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += k {
				pid := c.NextPending(last)
				if pid < 0 {
					pid = c.NextPending(-1)
				}
				c.StepN(pid, k)
				last = pid
			}
			b.StopTimer()
		})
	}
}

// BenchmarkRunRoundRobin measures a whole driven execution (construction to
// result) of 8 processes taking 64 steps each.
func BenchmarkRunRoundRobin(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var r shmem.Reg
		res := Run(8, nil, &RoundRobin{}, nil, func(p *shmem.Proc) {
			for j := 0; j < 64; j++ {
				p.Read(&r)
			}
		})
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkParallelRuns measures m independent seeded executions spread
// across GOMAXPROCS workers, the schedule-exploration workload.
func BenchmarkParallelRuns(b *testing.B) {
	const m = 32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		results := ParallelRuns(m, func(run int) RunSpec {
			var r shmem.Reg
			return RunSpec{
				N:      8,
				Policy: NewRandom(uint64(run) + 1),
				Body: func(p *shmem.Proc) {
					for j := 0; j < 64; j++ {
						p.Read(&r)
					}
				},
			}
		})
		for _, res := range results {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// BenchmarkRunFree measures the uncontrolled mode: free-running goroutines
// over atomic registers.
func BenchmarkRunFree(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var r shmem.Reg
		res := RunFree(8, nil, func(p *shmem.Proc) {
			for j := 0; j < 256; j++ {
				p.Read(&r)
			}
		})
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}
