package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestRegistryMatchesBenchmarkFile checks that BENCHMARK.json declares exactly
// the workloads and metrics this program measures, with the same units, and
// that every name and unit uses only the allowed characters.
func TestRegistryMatchesBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q: unknown to the program or badly named", w.Name)
		}
	}
	check := func(kind string, declared []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, measured []metricDef) {
		if len(declared) != len(measured) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program measures %d", kind, len(declared), len(measured))
		}
		for i, d := range declared {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: bad name or unit %q %q", kind, d.Name, d.Unit)
			}
			if i < len(measured) && (measured[i].name != d.Name || measured[i].unit != d.Unit) {
				t.Errorf("%s[%d]: BENCHMARK.json says %s (%s), the program %s (%s)", kind, i, d.Name, d.Unit, measured[i].name, measured[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// exactMetrics are the metrics that are counts, not timings: they must
// repeat exactly between runs with one seed.
var exactMetrics = map[string]bool{
	"acquire_p50_steps":            true,
	"acquire_p99_steps":            true,
	"ok_ratio":                     true,
	"compete.grants_per_rename":    true,
	"core.grants_per_rename":       true,
	"service.grants_per_session":   true,
	"service.recycles_per_session": true,
	"service.reclaims_per_session": true,
	"service.gen_allocs":           true,
	"explore.leaves":               true,
	"explore.decisions":            true,
	"explore.restores":             true,
	"explore.replays":              true,
	"explore.dedup_hits":           true,
	"explore.dedup_hit_ratio":      true,
}

// TestSelfTest runs every workload traced and untraced at the smallest
// sizes, twice: each run must pass its correctness gate and emit every
// declared metric with its unit, and the counts must repeat exactly.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	// Traced runs write their spans under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: name, seed: 7, seconds: 0.01, trace: trace, size: smallSize}
			var first *result
			for i := 0; i < 2; i++ {
				start := time.Now()
				res, err := run(cfg)
				t.Logf("%s trace=%v: %v", name, trace, time.Since(start))
				if err != nil {
					t.Fatalf("%s trace=%v: %v", name, trace, err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("%s trace=%v: correct=%v failed=%d", name, trace, res.Correct, res.Failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				for _, d := range want {
					if got := res.Metrics[d.name]; got.Unit != d.unit {
						t.Errorf("%s trace=%v: %s has unit %q, want %q", name, trace, d.name, got.Unit, d.unit)
					}
				}
				if first == nil {
					first = res
					continue
				}
				for m := range exactMetrics {
					a, ok := first.Metrics[m]
					if ok && a != res.Metrics[m] {
						t.Errorf("%s trace=%v: %s changed between runs: %v then %v", name, trace, m, a.Value, res.Metrics[m].Value)
					}
				}
			}
		}
	}
}
