package exec

import (
	"testing"
	"time"

	"db4ml/internal/isolation"
	"db4ml/internal/itx"
)

// slowSub sleeps a fixed time per iteration so busy-time accounting is
// predictable.
type slowSub struct {
	d      time.Duration
	rounds uint64
}

func (s *slowSub) Begin(ctx *itx.Ctx)   {}
func (s *slowSub) Execute(ctx *itx.Ctx) { time.Sleep(s.d) }
func (s *slowSub) Validate(ctx *itx.Ctx) itx.Action {
	if ctx.Iteration()+1 >= s.rounds {
		return itx.Done
	}
	return itx.Commit
}

func TestWorkerBusyStatsQueued(t *testing.T) {
	subs := []itx.Sub{
		&slowSub{d: 2 * time.Millisecond, rounds: 4},
		&slowSub{d: 2 * time.Millisecond, rounds: 4},
	}
	stats := runJob(t, Config{Workers: 2}, isolation.Options{Level: isolation.Asynchronous}, JobConfig{BatchSize: 1}, subs)
	// Total busy time across workers must cover the sleeps: 2 subs × 4
	// rounds × 2ms = 16ms of mandatory work.
	if stats.AvgWorkerBusy*2 < 14*time.Millisecond {
		t.Fatalf("busy accounting lost time: avg %v", stats.AvgWorkerBusy)
	}
	if stats.MaxWorkerBusy < stats.AvgWorkerBusy {
		t.Fatalf("max busy %v below avg %v", stats.MaxWorkerBusy, stats.AvgWorkerBusy)
	}
}

func TestWorkerBusyStatsSync(t *testing.T) {
	subs := []itx.Sub{
		&slowSub{d: 2 * time.Millisecond, rounds: 3},
		&slowSub{d: 2 * time.Millisecond, rounds: 3},
	}
	stats := runJob(t, Config{Workers: 2}, isolation.Options{Level: isolation.Synchronous}, JobConfig{}, subs)
	if stats.AvgWorkerBusy < 5*time.Millisecond {
		t.Fatalf("sync busy accounting lost time: avg %v", stats.AvgWorkerBusy)
	}
	if stats.Elapsed < stats.MaxWorkerBusy {
		t.Fatalf("elapsed %v below max busy %v", stats.Elapsed, stats.MaxWorkerBusy)
	}
}
