package exec

import (
	"testing"

	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/storage"
)

// fixpointSub computes v = left/2 + 1 over a ring — a contraction whose
// global fixpoint is v = 2 everywhere. A node's value can be momentarily
// stable while its left neighbor still moves, so per-node retirement stops
// early with wrong values; ConvergeTogether must reach the exact fixpoint.
type fixpointSub struct {
	mine, left *storage.IterativeRecord
	buf        storage.Payload
	cur, prev  float64
}

func (s *fixpointSub) Begin(ctx *itx.Ctx) { s.buf = make(storage.Payload, 1) }

func (s *fixpointSub) Execute(ctx *itx.Ctx) {
	ctx.Read(s.left, s.buf)
	s.prev = s.cur
	s.cur = s.buf.Float64(0)/2 + 1
	s.buf.SetFloat64(0, s.cur)
	ctx.Write(s.mine, s.buf)
}

func (s *fixpointSub) Validate(ctx *itx.Ctx) itx.Action {
	if d := s.cur - s.prev; d < 1e-12 && d > -1e-12 && ctx.Iteration() > 0 {
		return itx.Done
	}
	return itx.Commit
}

func ringFixpoint(t *testing.T, convergeTogether bool) ([]float64, Stats) {
	t.Helper()
	const n = 32
	recs := make([]*storage.IterativeRecord, n)
	for i := range recs {
		// Heterogeneous starting points so stabilization times differ.
		init := make(storage.Payload, 1)
		init.SetFloat64(0, float64(i*7%13))
		recs[i] = storage.NewIterativeRecord(init, 1)
	}
	subs := make([]itx.Sub, n)
	for i := range subs {
		subs[i] = &fixpointSub{mine: recs[i], left: recs[(i+n-1)%n]}
	}
	stats := runJob(t, Config{Workers: 4}, isolation.Options{Level: isolation.Synchronous},
		JobConfig{ConvergeTogether: convergeTogether}, subs)
	out := make(storage.Payload, 1)
	vals := make([]float64, n)
	for i, rec := range recs {
		rec.ReadRelaxed(out)
		vals[i] = out.Float64(0)
	}
	return vals, stats
}

func TestConvergeTogetherReachesGlobalFixpoint(t *testing.T) {
	vals, stats := ringFixpoint(t, true)
	for i, v := range vals {
		if d := v - 2; d > 1e-9 || d < -1e-9 {
			t.Fatalf("node %d = %v, want global fixpoint 2 (stats %+v)", i, v, stats)
		}
	}
	if stats.Rounds < 3 {
		t.Fatalf("suspiciously few rounds: %d", stats.Rounds)
	}
}

func TestPerNodeRetirementStopsEarly(t *testing.T) {
	// Documents why ConvergeTogether exists: with per-node retirement the
	// same computation generally ends off the fixpoint.
	vals, _ := ringFixpoint(t, false)
	offFixpoint := false
	for _, v := range vals {
		if d := v - 2; d > 1e-9 || d < -1e-9 {
			offFixpoint = true
		}
	}
	if !offFixpoint {
		t.Skip("per-node retirement happened to reach the fixpoint on this schedule")
	}
}

func TestConvergeTogetherRespectsMaxIterations(t *testing.T) {
	const n = 8
	recs := make([]*storage.IterativeRecord, n)
	subs := make([]itx.Sub, n)
	for i := range subs {
		recs[i] = storage.NewIterativeRecord(storage.Payload{0}, 1)
		subs[i] = &neverDoneSub{rec: recs[i]}
	}
	stats := runJob(t, Config{Workers: 2}, isolation.Options{Level: isolation.Synchronous},
		JobConfig{MaxIterations: 4, ConvergeTogether: true}, subs)
	if stats.Rounds != 4 || stats.ForcedStops != n {
		t.Fatalf("stats = %+v", stats)
	}
}
