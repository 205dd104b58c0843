package main

import (
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/service"
)

// gateChurn checks one streamed repetition: every requested session was
// processed, every issued name was released or reclaimed, only crashed
// holders were reclaimed, and — when ref is a previous repetition of the same
// workload — the run repeated it exactly. It returns nil when all hold.
func gateChurn(w service.Workload, m service.Metrics, ref *service.Metrics) error {
	var errs []string
	if m.Sessions != w.Sessions {
		errs = append(errs, fmt.Sprintf("processed %d sessions, requested %d", m.Sessions, w.Sessions))
	}
	st := m.Stats
	if st.Issued != st.Released+st.Reclaimed {
		errs = append(errs, fmt.Sprintf("issued %d != released %d + reclaimed %d", st.Issued, st.Released, st.Reclaimed))
	}
	if st.Reclaimed != m.Crashed {
		errs = append(errs, fmt.Sprintf("reclaimed %d != crashed %d", st.Reclaimed, m.Crashed))
	}
	if ref != nil {
		a, b := churnCounts(m), churnCounts(*ref)
		if a != b {
			errs = append(errs, fmt.Sprintf("counts %+v differ from the first repetition's %+v", a, b))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("churn gate: %s", strings.Join(errs, "; "))
	}
	return nil
}

// churnExact is the part of a streamed run that must repeat exactly.
type churnExact struct {
	Sessions, Acquired, Failed, Crashed, Grants int64
	P50, P99, Max                               int64
	Stats                                       service.Stats
}

func churnCounts(m service.Metrics) churnExact {
	return churnExact{m.Sessions, m.Acquired, m.Failed, m.Crashed, m.Grants, m.AcquireP50, m.AcquireP99, m.AcquireMax, m.Stats}
}

// proveExact is the shape of a proof walk's tree, which must repeat exactly.
type proveExact struct {
	Executions, Partial, Explored, Pruned, Replayed, Restored, Deduped int
	Names                                                              int64
}

func proveCounts(r model.Report, names int64) proveExact {
	return proveExact{r.Executions, r.Partial, r.Explored, r.Pruned, r.Replayed, r.Restored, r.Deduped, names}
}

// gateProve checks one cell's proof: the tree was exhausted without a
// violation and — when ref is an earlier walk of the same cell — walked the
// identical tree. names is how many names the walk's executions returned.
func gateProve(r model.Report, names int64, ref *proveExact) error {
	if r.Violation != nil {
		return fmt.Errorf("prove gate: %s n=%d violated: %v", r.Label, r.N, r.Violation.Err)
	}
	if !r.Proven() {
		return fmt.Errorf("prove gate: %s n=%d not proven: %s", r.Label, r.N, r.Summary())
	}
	if ref != nil {
		if got := proveCounts(r, names); got != *ref {
			return fmt.Errorf("prove gate: %s n=%d tree %+v differs from the first walk's %+v", r.Label, r.N, got, *ref)
		}
	}
	return nil
}
