package main

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/service"
)

func TestGateChurn(t *testing.T) {
	w := service.Workload{Sessions: 100}
	good := service.Metrics{
		Sessions: 100, Acquired: 95, Crashed: 5, Grants: 1700, AcquireP50: 14, AcquireP99: 37,
		Stats: service.Stats{Issued: 100, Released: 95, Reclaimed: 5},
	}
	if err := gateChurn(w, good, nil); err != nil {
		t.Fatalf("good run rejected: %v", err)
	}
	if err := gateChurn(w, good, &good); err != nil {
		t.Fatalf("exact repeat rejected: %v", err)
	}
	cases := []struct {
		name string
		edit func(m *service.Metrics)
		want string
	}{
		{"lost sessions", func(m *service.Metrics) { m.Sessions = 99 }, "processed 99 sessions"},
		{"leaked name", func(m *service.Metrics) { m.Stats.Released = 94 }, "issued 100 != released 94"},
		{"double reclaim", func(m *service.Metrics) { m.Stats.Reclaimed, m.Stats.Released = 6, 94 }, "reclaimed 6 != crashed 5"},
	}
	for _, c := range cases {
		bad := good
		c.edit(&bad)
		err := gateChurn(w, bad, nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
	drift := good
	drift.AcquireP99 = 38
	if err := gateChurn(w, drift, &good); err == nil || !strings.Contains(err.Error(), "differ from the first repetition") {
		t.Errorf("drifted repetition: got %v", err)
	}
}

func TestGateProve(t *testing.T) {
	good := model.Report{Label: "majority", N: 3, Executions: 91, Partial: 85, Explored: 440, Restored: 175, Complete: true}
	ref := proveCounts(good, 273)
	if err := gateProve(good, 273, nil); err != nil {
		t.Fatalf("good walk rejected: %v", err)
	}
	if err := gateProve(good, 273, &ref); err != nil {
		t.Fatalf("exact repeat rejected: %v", err)
	}
	incomplete := good
	incomplete.Complete = false
	if err := gateProve(incomplete, 273, nil); err == nil || !strings.Contains(err.Error(), "not proven") {
		t.Errorf("incomplete walk: got %v", err)
	}
	violated := good
	violated.Violation = &model.Violation{Err: errors.New("names collide")}
	if err := gateProve(violated, 273, nil); err == nil || !strings.Contains(err.Error(), "names collide") {
		t.Errorf("violated walk: got %v", err)
	}
	grown := good
	grown.Executions++
	if err := gateProve(grown, 273, &ref); err == nil || !strings.Contains(err.Error(), "differs from the first walk") {
		t.Errorf("different tree: got %v", err)
	}
	if err := gateProve(good, 272, &ref); err == nil {
		t.Error("different name count accepted")
	}
}
