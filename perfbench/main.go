// Command perfbench is the repository's benchmark: one command that drives a
// named workload through the public APIs of the service, vexec, compete,
// core and model packages, checks every output, and prints one JSON result
// line.
//
//	go run . --workload churn-firstfit --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run records nothing but its timings and reports the
// end-to-end metrics; with --trace 1 it records spans around every call into
// a layer, writes them to .bench_build/spans/ under the working directory,
// and reports the per-layer metrics derived from them. The last line of
// standard output is always the result object; the line before it names the
// machine. run.py builds and runs this program from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// workloads maps a workload name to its runner.
var workloads = map[string]func(cfg runConfig) (*result, error){
	"churn-firstfit":       runChurnFirstFit,
	"churn-majority-crash": runChurnMajorityCrash,
	"prove":                runProve,
}

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	size     size
}

// size holds every input size of the benchmark, so the self-test can run the
// whole measurement at its smallest.
type size struct {
	ffSessions   int64 // sessions per churn-firstfit repetition
	majSessions  int64 // sessions per churn-majority-crash repetition
	minReps      int   // churn repetitions measured even past the deadline
	auditPairs   int   // unaudited/audited repetition pairs of the traced run
	spinGrants   int64 // vexec rung grants
	spinChunk    int64 // vexec rung grants per span
	renames      int   // one-shot instances per compete/core rung
	recycleBatch int   // Recycle calls per span
	recycles     int   // Recycle spans per rung
	proveMaxN    int   // largest conformance population in the prove workload
	setupReps    int   // prove set-up repetitions
}

var fullSize = size{
	ffSessions:   20_000,
	majSessions:  20_000,
	minReps:      3,
	auditPairs:   3,
	spinGrants:   1 << 21,
	spinChunk:    1 << 16,
	renames:      20_000,
	recycleBatch: 1024,
	recycles:     64,
	proveMaxN:    5,
	setupReps:    51,
}

var smallSize = size{
	ffSessions:   2_000,
	majSessions:  500,
	minReps:      2,
	auditPairs:   1,
	spinGrants:   1 << 12,
	spinChunk:    1 << 10,
	renames:      50,
	recycleBatch: 16,
	recycles:     4,
	proveMaxN:    3,
	setupReps:    3,
}

func main() {
	workload := flag.String("workload", "", "workload name: churn-firstfit, churn-majority-crash or prove")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "seconds to measure")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (churn-firstfit, churn-majority-crash, prove), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, size: fullSize}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("# machine: %s\n", machine())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and checks that every declared metric was
// measured with its declared unit.
func run(cfg runConfig) (*result, error) {
	res, err := workloads[cfg.workload](cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	if err := res.complete(want); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return res, nil
}

// deadline returns when a measurement loop of cfg.seconds that starts now
// should stop starting new repetitions.
func deadline(cfg runConfig) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}

// machine names the hardware and toolchain every result was measured on.
func machine() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// cpuModel reads the CPU model name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
