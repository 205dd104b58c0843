package model_test

// Pinned proof sizes: every proven, long-lived service and fault cell's
// complete-execution count and verdict, recorded in testdata/executions.txt.
// Search optimisations may change how a walk gets there — prefixes cut,
// decisions, restores, replays — but never which executions it checks or what
// it concludes, so a changed row is a changed proof. Cells a run skips (the
// n=5 walks under -short) are not checked. Regenerate the file with
//
//	go test ./internal/model -run 'TestProve' -update-pins
//
// only when the walk is meant to check a different set of executions.

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
)

const pinsFile = "testdata/executions.txt"

var updatePins = flag.Bool("update-pins", false, "rewrite "+pinsFile+" rows from this run's reports")

var pins struct {
	sync.Mutex
	rows map[string]string // label -> "<executions> <verdict>"
}

func verdict(rep *model.Report) string {
	switch {
	case rep.Violation != nil:
		return "VIOLATED"
	case rep.Complete:
		return "PROVEN"
	}
	return "SAMPLED"
}

// loadPins reads the pin file into pins.rows once; a missing file reads as
// empty so that -update-pins can create it.
func loadPins(t *testing.T) {
	if pins.rows != nil {
		return
	}
	pins.rows = map[string]string{}
	f, err := os.Open(pinsFile)
	if os.IsNotExist(err) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		label, row, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed row %q", pinsFile, line)
		}
		pins.rows[label] = row
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// checkPin compares rep's execution count and verdict against the pinned row
// for label, or records them there under -update-pins.
func checkPin(t *testing.T, label string, rep *model.Report) {
	t.Helper()
	pins.Lock()
	defer pins.Unlock()
	loadPins(t)
	got := fmt.Sprintf("%d %s", rep.Executions, verdict(rep))
	if *updatePins {
		pins.rows[label] = got
		writePins(t)
		return
	}
	want, ok := pins.rows[label]
	if !ok {
		t.Fatalf("%s: no row in %s (run with -update-pins to add it)", label, pinsFile)
	}
	if got != want {
		t.Fatalf("%s: checked %q (executions verdict), pinned %q", label, got, want)
	}
}

func writePins(t *testing.T) {
	labels := make([]string, 0, len(pins.rows))
	for l := range pins.rows {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var b strings.Builder
	b.WriteString("# label executions verdict — see pins_test.go\n")
	for _, l := range labels {
		fmt.Fprintf(&b, "%s %s\n", l, pins.rows[l])
	}
	if err := os.WriteFile(pinsFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
