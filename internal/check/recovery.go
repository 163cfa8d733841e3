package check

// Recovery atomicity: the durability layer's contract is committed-exactly-
// or-absent. A commit the caller was acknowledged for must survive a crash
// in full; a commit the caller was NOT acknowledged for must, after
// recovery, either exist in full or not at all — never partially. The
// partial case is exactly what the crash windows threaten: a kill between
// two shards' commit applications, or mid-way through a WAL append, leaves
// in-memory (or on-disk) state that recovery is obliged to erase or
// complete.
//
// CheckRecoveryAtomicity consumes the same probe/uber-commit event
// vocabulary as CheckVisibility, but the probes are reads of the RECOVERED
// kernel: a crash trial (see Crash) runs a workload, "kills" the
// process at an injected crash point, recovers a fresh kernel from the
// surviving log, and probes every row the workload owned.

// CheckRecoveryAtomicity validates committed-exactly-or-absent for one
// job's crash trial. A KindUberCommit event for the job means the commit
// was acknowledged: every probe must then satisfy rule.After. Without one,
// the run was never acknowledged, and the probes must be unanimous — all
// rule.After (the commit survived whole) or all rule.Before (it vanished
// whole). A probe matching neither state, or a mix of Before and After
// rows, is a violation.
func CheckRecoveryAtomicity(events []Event, job string, rule VisibilityRule) Report {
	var rep Report
	acked := false
	for _, e := range events {
		if e.Job == job && e.Kind == KindUberCommit {
			acked = true
		}
	}
	var afterEv, beforeEv *Event // first probe pinned to each exclusive state
	for i := range events {
		e := events[i]
		if e.Job != job || e.Kind != KindProbe {
			continue
		}
		rep.RecoveryChecked++
		after := rule.After(e.Row, e.Value)
		before := rule.Before(e.Row, e.Value)
		switch {
		case acked:
			if !after {
				rep.add("recovery-atomicity", e,
					"acknowledged commit lost: recovered row %d reads %d, not the committed final state",
					e.Row, e.Value)
			}
		case !after && !before:
			rep.add("recovery-atomicity", e,
				"recovered row %d reads %d: neither pre-run nor committed state — a torn or corrupt replay",
				e.Row, e.Value)
		default:
			// A value legal in both states pins nothing (e.g. a row the run
			// never changed); only exclusive sightings can tear.
			if after && !before && afterEv == nil {
				afterEv = &events[i]
			}
			if before && !after && beforeEv == nil {
				beforeEv = &events[i]
			}
		}
	}
	if afterEv != nil && beforeEv != nil {
		rep.add("recovery-atomicity", *afterEv,
			"torn recovery: row %d recovered the commit's final state while row %d recovered pre-run state",
			afterEv.Row, beforeEv.Row)
	}
	return rep
}
