package db4ml

// End-to-end tests of the supervision layer through the public API: panic
// containment, watchdog convictions, deadline retirement, abort-retry, and
// admission control — including the ISSUE acceptance scenarios (a planted
// panicking sub-transaction yields ErrJobPanicked from Wait; a planted
// non-convergent job is retired within its deadline; a chaos schedule with
// retries converges to exactly the fault-free result).

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"db4ml/internal/chaos"
	"db4ml/internal/resilience"
	"db4ml/internal/storage"
)

// flakySub is incSub with a budget of planted panics: while panicsLeft > 0,
// Execute panics (and decrements); afterwards it counts its row up to
// target like a healthy sub-transaction. Because a retry resubmits the same
// sub instances, the budget spans attempts: a budget of k makes exactly the
// first k attempts fail.
type flakySub struct {
	tbl        *Table
	row        RowID
	target     float64
	panicsLeft *atomic.Int64
	rec        *storage.IterativeRecord
	buf        Payload
	cur        float64
}

func (s *flakySub) Begin(ctx *Ctx) {
	s.rec = s.tbl.IterRecord(s.row)
	s.buf = make(Payload, 2)
}

func (s *flakySub) Execute(ctx *Ctx) {
	if s.panicsLeft != nil && s.panicsLeft.Load() > 0 && s.panicsLeft.Add(-1) >= 0 {
		panic("planted facade panic")
	}
	ctx.Read(s.rec, s.buf)
	s.cur = s.buf.Float64(1) + 1
	s.buf.SetFloat64(1, s.cur)
	ctx.Write(s.rec, s.buf)
}

func (s *flakySub) Validate(ctx *Ctx) Action {
	if s.cur >= s.target {
		return Done
	}
	return Commit
}

// wedgeSub blocks inside Execute until release is closed — a worker wedged
// in user code, the watchdog's prey.
type wedgeSub struct {
	release chan struct{}
	blocked chan struct{}
	once    sync.Once
}

func (s *wedgeSub) Begin(ctx *Ctx) {}
func (s *wedgeSub) Execute(ctx *Ctx) {
	s.once.Do(func() { close(s.blocked) })
	<-s.release
}
func (s *wedgeSub) Validate(ctx *Ctx) Action { return Done }

// loopSub never converges: it keeps committing increments forever.
type loopSub struct {
	tbl *Table
	row RowID
	rec *storage.IterativeRecord
	buf Payload
}

func (s *loopSub) Begin(ctx *Ctx) {
	s.rec = s.tbl.IterRecord(s.row)
	s.buf = make(Payload, 2)
}
func (s *loopSub) Execute(ctx *Ctx) {
	ctx.Read(s.rec, s.buf)
	s.buf.SetFloat64(1, s.buf.Float64(1)+1)
	ctx.Write(s.rec, s.buf)
}
func (s *loopSub) Validate(ctx *Ctx) Action { return Commit }

// flakySubs returns n counter subs of which only sub 0 draws on the panic
// budget, so an attempt plants at most one panic: with a shared budget, two
// workers could spend it within one attempt.
func flakySubs(tbl *Table, n int, target float64, panics int64) ([]IterativeTransaction, *atomic.Int64) {
	budget := &atomic.Int64{}
	budget.Store(panics)
	subs := make([]IterativeTransaction, n)
	for i := range subs {
		subs[i] = &flakySub{tbl: tbl, row: RowID(i), target: target}
	}
	subs[0].(*flakySub).panicsLeft = budget
	return subs, budget
}

func readCounters(t *testing.T, db *DB, tbl *Table, n int) []float64 {
	t.Helper()
	tx := db.Begin()
	out := make([]float64, n)
	for i := range out {
		p, ok := tx.Read(tbl, RowID(i))
		if !ok {
			t.Fatalf("row %d unreadable", i)
		}
		out[i] = p.Float64(1)
	}
	return out
}

// TestSubmitMLPanicContained: the acceptance scenario — a planted panicking
// sub-transaction yields ErrJobPanicked (with the stack) from Wait, the
// uber-transaction aborts so the tables are untouched, and the database
// keeps serving runs afterwards.
func TestSubmitMLPanicContained(t *testing.T) {
	const n = 8
	db, tbl := openWithCounters(t, n)
	defer db.Close()

	subs, _ := flakySubs(tbl, n, 5, 1<<40) // panics forever, no retry
	h, err := db.SubmitML(context.Background(), MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		BatchSize: 2,
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, werr := h.Wait()
	if !errors.Is(werr, ErrJobPanicked) {
		t.Fatalf("Wait = %v, want ErrJobPanicked", werr)
	}
	var pe *resilience.PanicError
	if !errors.As(werr, &pe) || len(pe.Stack) == 0 {
		t.Fatalf("error %v carries no stack evidence", werr)
	}
	for i, v := range readCounters(t, db, tbl, n) {
		if v != 0 {
			t.Fatalf("row %d = %v after aborted job, want 0", i, v)
		}
	}

	// The engine survived: a healthy run still commits.
	healthy, _ := flakySubs(tbl, n, 3, 0)
	if _, err := db.RunML(MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Attach:    []Attachment{{Table: tbl}},
		Subs:      healthy,
	}); err != nil {
		t.Fatalf("database unusable after contained panic: %v", err)
	}
}

// TestRetrySucceedsAfterPanic: a one-shot planted panic aborts the first
// attempt; the retry policy resubmits and the second attempt commits the
// full result. Telemetry reports the resubmission.
func TestRetrySucceedsAfterPanic(t *testing.T) {
	const n, target = 16, 6.0
	db, tbl := openWithCounters(t, n)
	defer db.Close()

	subs, budget := flakySubs(tbl, n, target, 1)
	o := NewObserver()
	h, err := db.SubmitML(context.Background(), MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		BatchSize: 4,
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
		Observer:  o,
		Retry:     &RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := h.Wait(); werr != nil {
		t.Fatalf("retried run failed: %v", werr)
	}
	if got := h.Attempts(); got != 2 {
		t.Fatalf("Attempts = %d, want 2", got)
	}
	if budget.Load() > 0 {
		t.Fatal("planted panic never fired")
	}
	for i, v := range readCounters(t, db, tbl, n) {
		if v != target {
			t.Fatalf("row %d = %v, want %v", i, v, target)
		}
	}
	if snap := o.Snapshot(); snap.Counters.Retries != 1 {
		t.Fatalf("telemetry Retries = %d, want 1", snap.Counters.Retries)
	}
}

// TestStallConvictedThroughFacade: a wedged sub-transaction must surface as
// ErrJobStalled from Wait instead of hanging it, with nothing published.
func TestStallConvictedThroughFacade(t *testing.T) {
	db, tbl := openWithCounters(t, 1)
	ws := &wedgeSub{release: make(chan struct{}), blocked: make(chan struct{})}
	h, err := db.SubmitML(context.Background(), MLRun{
		Isolation:    MLOptions{Level: Asynchronous},
		Attach:       []Attachment{{Table: tbl}},
		Subs:         []IterativeTransaction{ws},
		StallTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-ws.blocked
	if _, werr := h.Wait(); !errors.Is(werr, ErrJobStalled) {
		t.Fatalf("Wait = %v, want ErrJobStalled", werr)
	}
	close(ws.release)
	db.Close()
}

// TestDeadlineRetiresThroughFacade: the acceptance scenario — a planted
// non-convergent job under a database-default deadline (WithDeadline) is
// retired with ErrJobDeadline within its budget, and its work is aborted.
func TestDeadlineRetiresThroughFacade(t *testing.T) {
	const deadline = 150 * time.Millisecond
	db := Open(WithWorkers(4), WithDeadline(deadline))
	defer db.Close()
	tbl, err := db.CreateTable("C", Column{Name: "ID", Type: Int64}, Column{Name: "V", Type: Float64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	rows := make([]Payload, n)
	for i := range rows {
		p := tbl.Schema().NewPayload()
		p.SetInt64(0, int64(i))
		rows[i] = p
	}
	if err := db.BulkLoad(tbl, rows); err != nil {
		t.Fatal(err)
	}
	subs := make([]IterativeTransaction, n)
	for i := range subs {
		subs[i] = &loopSub{tbl: tbl, row: RowID(i)}
	}
	start := time.Now()
	_, werr := db.RunML(MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		BatchSize: 2,
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
	})
	if !errors.Is(werr, ErrJobDeadline) {
		t.Fatalf("RunML = %v, want ErrJobDeadline", werr)
	}
	if e := time.Since(start); e > 10*deadline {
		t.Fatalf("deadline enforced only after %v", e)
	}
	for i, v := range readCounters(t, db, tbl, n) {
		if v != 0 {
			t.Fatalf("row %d = %v after retired job, want 0", i, v)
		}
	}
}

// TestOverloadShedding: at the WithMaxInflight limit, SubmitML fast-fails
// with ErrOverloaded (counted in telemetry), and admission recovers once
// the in-flight job finishes.
func TestOverloadShedding(t *testing.T) {
	db2 := Open(WithWorkers(2), WithMaxInflight(1))
	defer db2.Close()
	tbl2, err := db2.CreateTable("C", Column{Name: "ID", Type: Int64}, Column{Name: "V", Type: Float64})
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.BulkLoad(tbl2, []Payload{tbl2.Schema().NewPayload()}); err != nil {
		t.Fatal(err)
	}

	ws := &wedgeSub{release: make(chan struct{}), blocked: make(chan struct{})}
	h, err := db2.SubmitML(context.Background(), MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Subs:      []IterativeTransaction{ws},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-ws.blocked

	o := NewObserver()
	healthy, _ := flakySubs(tbl2, 1, 2, 0)
	if _, err := db2.SubmitML(context.Background(), MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Attach:    []Attachment{{Table: tbl2}},
		Subs:      healthy,
		Observer:  o,
	}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("SubmitML at limit = %v, want ErrOverloaded", err)
	}
	if snap := o.Snapshot(); snap.Counters.LoadSheds != 1 {
		t.Fatalf("telemetry LoadSheds = %d, want 1", snap.Counters.LoadSheds)
	}

	close(ws.release)
	if _, err := h.Wait(); err != nil {
		t.Fatalf("wedged job after release: %v", err)
	}
	if _, err := db2.RunML(MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Attach:    []Attachment{{Table: tbl2}},
		Subs:      healthy,
	}); err != nil {
		t.Fatalf("admission did not recover: %v", err)
	}
}

// TestAdmissionWaitBlocksInsteadOfShedding: with WithAdmissionWait, a
// SubmitML at the limit parks until a slot frees, then proceeds.
func TestAdmissionWaitBlocksInsteadOfShedding(t *testing.T) {
	db := Open(WithWorkers(2), WithMaxInflight(1), WithAdmissionWait())
	defer db.Close()
	tbl, err := db.CreateTable("C", Column{Name: "ID", Type: Int64}, Column{Name: "V", Type: Float64})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BulkLoad(tbl, []Payload{tbl.Schema().NewPayload()}); err != nil {
		t.Fatal(err)
	}

	ws := &wedgeSub{release: make(chan struct{}), blocked: make(chan struct{})}
	h, err := db.SubmitML(context.Background(), MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Subs:      []IterativeTransaction{ws},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-ws.blocked

	admitted := make(chan error, 1)
	go func() {
		healthy, _ := flakySubs(tbl, 1, 2, 0)
		_, err := db.RunML(MLRun{
			Isolation: MLOptions{Level: Asynchronous},
			Attach:    []Attachment{{Table: tbl}},
			Subs:      healthy,
		})
		admitted <- err
	}()
	select {
	case err := <-admitted:
		t.Fatalf("second submission did not wait (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(ws.release)
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-admitted:
		if err != nil {
			t.Fatalf("waited submission failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waited submission never admitted")
	}

	// Cancelling the waiter's ctx must release it with the ctx error.
	ws2 := &wedgeSub{release: make(chan struct{}), blocked: make(chan struct{})}
	h2, err := db.SubmitML(context.Background(), MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Subs:      []IterativeTransaction{ws2},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-ws2.blocked
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := db.SubmitML(ctx, MLRun{Isolation: MLOptions{Level: Asynchronous}}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled waiter = %v, want DeadlineExceeded", err)
	}
	close(ws2.release)
	if _, err := h2.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestDefaultDegradation pins the built-in degradation curve.
func TestDefaultDegradation(t *testing.T) {
	cases := []struct {
		pressure float64
		batch    int
		want     int
	}{
		{0, 256, 256},
		{0.49, 256, 256},
		{0.5, 256, 128},
		{0.75, 256, 64},
		{1, 256, 64},
		{0.9, 40, 16},
		{0.9, 8, 16},
	}
	for _, c := range cases {
		if got := DefaultDegradation(c.pressure, c.batch); got != c.want {
			t.Errorf("DefaultDegradation(%v, %d) = %d, want %d", c.pressure, c.batch, got, c.want)
		}
	}
}

// TestSubmitMLNoGoroutineLeak: the regression test for the ctx watcher —
// submitting with a cancellable ctx that is never cancelled must not leave
// goroutines behind after the handles resolve, on every handle kind of both
// facades.
func TestSubmitMLNoGoroutineLeak(t *testing.T) {
	const n = 4
	mlRun := func(tbl *Table) MLRun {
		subs, _ := flakySubs(tbl, n, 3, 0)
		return MLRun{
			Isolation: MLOptions{Level: Asynchronous},
			Attach:    []Attachment{{Table: tbl}},
			Subs:      subs,
		}
	}
	// Each case opens a database and returns one submit-and-wait round trip
	// plus the database's Close.
	cases := []struct {
		name string
		open func(t *testing.T) (func(context.Context) error, func() error)
	}{
		{"DB.SubmitML", func(t *testing.T) (func(context.Context) error, func() error) {
			db, tbl := openWithCounters(t, n)
			return func(ctx context.Context) error {
				h, err := db.SubmitML(ctx, mlRun(tbl))
				if err == nil {
					_, err = h.Wait()
				}
				return err
			}, db.Close
		}},
		{"DB.SubmitQuery", func(t *testing.T) (func(context.Context) error, func() error) {
			db, tbl := openWithCounters(t, n)
			return func(ctx context.Context) error {
				h, err := db.SubmitQuery(ctx, QueryRun{Plan: Scan(tbl)})
				if err == nil {
					_, err = h.Wait()
				}
				return err
			}, db.Close
		}},
		{"ShardedDB.SubmitML", func(t *testing.T) (func(context.Context) error, func() error) {
			db, tbl := openShardedCounters(t, 2, n)
			return func(ctx context.Context) error {
				h, err := db.SubmitML(ctx, mlRun(tbl))
				if err == nil {
					_, err = h.Wait()
				}
				return err
			}, db.Close
		}},
		{"ShardedDB.SubmitQuery", func(t *testing.T) (func(context.Context) error, func() error) {
			db, tbl := openShardedCounters(t, 2, n)
			return func(ctx context.Context) error {
				h, err := db.SubmitQuery(ctx, QueryRun{Plan: Scan(tbl)})
				if err == nil {
					_, err = h.Wait()
				}
				return err
			}, db.Close
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			submit, closeDB := c.open(t)
			defer closeDB()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			before := runtime.NumGoroutine()
			for i := 0; i < 50; i++ {
				if err := submit(ctx); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				runtime.GC()
				if n := runtime.NumGoroutine(); n <= before+3 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}

// TestRetryScheduleDeterministic: same (seed, policy) ⇒ identical backoff
// schedule through the public alias; a different seed reshuffles it.
func TestRetryScheduleDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Millisecond, Jitter: 0.5, Seed: 42}
	a, b := p.Schedule(), p.Schedule()
	if len(a) != 5 {
		t.Fatalf("schedule length %d, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	p2 := p
	p2.Seed = 43
	c := p2.Schedule()
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jittered schedules")
	}
}

// wedgeOnceSub wedges on its first Execute only; once released it behaves
// like a healthy counter sub. Exercises the stall-convict → quiesce → retry
// path: the retry must re-begin the same instance safely.
type wedgeOnceSub struct {
	tbl     *Table
	row     RowID
	target  float64
	release chan struct{}
	blocked chan struct{}
	wedged  atomic.Bool
	rec     *storage.IterativeRecord
	buf     Payload
	cur     float64
}

func (s *wedgeOnceSub) Begin(ctx *Ctx) {
	s.rec = s.tbl.IterRecord(s.row)
	s.buf = make(Payload, 2)
}

func (s *wedgeOnceSub) Execute(ctx *Ctx) {
	if s.wedged.CompareAndSwap(false, true) {
		close(s.blocked)
		<-s.release
		return // convicted attempt: write nothing
	}
	ctx.Read(s.rec, s.buf)
	s.cur = s.buf.Float64(1) + 1
	s.buf.SetFloat64(1, s.cur)
	ctx.Write(s.rec, s.buf)
}

func (s *wedgeOnceSub) Validate(ctx *Ctx) Action {
	if s.cur >= s.target {
		return Done
	}
	return Commit
}

// TestStallRetryAfterQuiesce: a transiently wedged first attempt is convicted
// by the watchdog, the supervisor waits for the woken worker to acknowledge
// the cancellation, and the retry — re-beginning the same sub instances on
// freshly installed iterative records — commits the full result.
func TestStallRetryAfterQuiesce(t *testing.T) {
	const target = 4.0
	db, tbl := openWithCounters(t, 1)
	defer db.Close()

	ws := &wedgeOnceSub{tbl: tbl, row: 0, target: target,
		release: make(chan struct{}), blocked: make(chan struct{})}
	h, err := db.SubmitML(context.Background(), MLRun{
		Isolation:    MLOptions{Level: Asynchronous},
		Attach:       []Attachment{{Table: tbl}},
		Subs:         []IterativeTransaction{ws},
		StallTimeout: 60 * time.Millisecond,
		Retry:        &RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-ws.blocked
	// Hold the worker wedged past the conviction, then let it wake so the
	// supervisor's quiesce succeeds and the retry proceeds.
	time.Sleep(150 * time.Millisecond)
	close(ws.release)
	if _, werr := h.Wait(); werr != nil {
		t.Fatalf("retried stalled run failed: %v", werr)
	}
	if got := h.Attempts(); got != 2 {
		t.Fatalf("Attempts = %d, want 2", got)
	}
	if v := readCounters(t, db, tbl, 1)[0]; v != target {
		t.Fatalf("row 0 = %v, want %v", v, target)
	}
}

// TestWedgedForeverStallNotRetried: when the wedged worker never
// acknowledges the cancellation, resubmitting the same sub instances would
// be unsafe — the supervisor must resolve terminally with ErrJobStalled
// after a single attempt instead of retrying underneath the wedge.
func TestWedgedForeverStallNotRetried(t *testing.T) {
	db, tbl := openWithCounters(t, 1)
	ws := &wedgeSub{release: make(chan struct{}), blocked: make(chan struct{})}
	h, err := db.SubmitML(context.Background(), MLRun{
		Isolation:    MLOptions{Level: Asynchronous},
		Attach:       []Attachment{{Table: tbl}},
		Subs:         []IterativeTransaction{ws},
		StallTimeout: 60 * time.Millisecond,
		Retry:        &RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-ws.blocked
	if _, werr := h.Wait(); !errors.Is(werr, ErrJobStalled) {
		t.Fatalf("Wait = %v, want ErrJobStalled", werr)
	}
	if got := h.Attempts(); got != 1 {
		t.Fatalf("Attempts = %d, want 1 (no retry under a live wedge)", got)
	}
	close(ws.release)
	db.Close()
}

// TestChaosRetryMatchesControl: the acceptance sweep — under a hostile
// chaos schedule plus planted panics, a retried run's committed result
// must equal a fault-free control run's, for every seed. Uber-transaction
// atomicity is what makes this hold: each failed attempt aborted without
// publishing, so the committing attempt saw pristine state.
func TestChaosRetryMatchesControl(t *testing.T) {
	const n, target = 24, 5.0
	ref := func() []float64 {
		db, tbl := openWithCounters(t, n)
		defer db.Close()
		subs, _ := flakySubs(tbl, n, target, 0)
		if _, err := db.RunML(MLRun{
			Isolation: MLOptions{Level: Asynchronous},
			BatchSize: 4,
			Attach:    []Attachment{{Table: tbl}},
			Subs:      subs,
		}); err != nil {
			t.Fatalf("control run failed: %v", err)
		}
		return readCounters(t, db, tbl, n)
	}()

	for _, seed := range []int64{1, 7, 1337} {
		db, tbl := openWithCounters(t, n)
		inj := chaos.NewSeeded(seed, 4, chaos.DefaultConfig())
		subs, _ := flakySubs(tbl, n, target, 2) // first two attempts panic
		h, err := db.SubmitML(context.Background(), MLRun{
			Isolation: MLOptions{Level: Asynchronous},
			BatchSize: 4,
			Attach:    []Attachment{{Table: tbl}},
			Subs:      subs,
			Chaos:     inj,
			Retry:     &RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond, Seed: seed},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, werr := h.Wait(); werr != nil {
			t.Fatalf("seed %d: retried run failed terminally: %v", seed, werr)
		}
		if got := h.Attempts(); got != 3 {
			t.Fatalf("seed %d: Attempts = %d, want 3", seed, got)
		}
		got := readCounters(t, db, tbl, n)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("seed %d: row %d = %v, control = %v", seed, i, got[i], ref[i])
			}
		}
		if inj.Faults() == 0 {
			t.Fatalf("seed %d: chaos injected nothing — trial vacuous", seed)
		}
		db.Close()
	}
}

// TestResilienceBurstOracle drives the supervision layer the way an
// overloaded deployment would: a burst of jobs against an
// admission-controlled database under a seeded chaos schedule. Jobs cycle
// healthy / flaky (one planted panic, recovered by abort-retry) / healthy /
// spin (never converges, retired by the deadline); a shed submission is
// re-offered until a slot frees. The uber-transaction contract is the
// oracle: every healthy or flaky job commits exactly its target, and every
// spin job fails with ErrJobDeadline leaving every row 0.
func TestResilienceBurstOracle(t *testing.T) {
	const jobs, rows, target = 8, 8, 8.0
	for _, seed := range []int64{1, 2} {
		inj := chaos.NewSeeded(seed, 8, chaos.DefaultConfig())
		db := Open(
			WithWorkers(4),
			WithDeadline(200*time.Millisecond),
			WithRetry(RetryPolicy{MaxAttempts: 4, BaseBackoff: 2 * time.Millisecond, Seed: seed}),
			WithMaxInflight(3),
			WithDegradation(nil), // default pressure→batch curve
		)
		tables := make([]*Table, jobs)
		for i := range tables {
			tables[i] = loadCounters(t, db, fmt.Sprintf("C%d", i), rows)
		}

		handles := make([]*JobHandle, jobs)
		budgets := make([]*atomic.Int64, jobs)
		for i := range handles {
			var subs []IterativeTransaction
			switch i % 4 {
			case 1:
				subs, budgets[i] = flakySubs(tables[i], rows, target, 1)
			case 3:
				subs = make([]IterativeTransaction, rows)
				for r := range subs {
					subs[r] = &loopSub{tbl: tables[i], row: RowID(r)}
				}
			default:
				subs, _ = flakySubs(tables[i], rows, target, 0)
			}
			run := MLRun{
				Isolation: MLOptions{Level: Asynchronous},
				Label:     fmt.Sprintf("burst-%d", i),
				BatchSize: 4,
				Attach:    []Attachment{{Table: tables[i]}},
				Subs:      subs,
				Chaos:     inj,
			}
			for {
				h, err := db.SubmitML(context.Background(), run)
				if err == nil {
					handles[i] = h
					break
				}
				if !errors.Is(err, ErrOverloaded) {
					t.Fatalf("seed %d job %d: SubmitML = %v", seed, i, err)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}

		for i, h := range handles {
			_, err := h.Wait()
			want := target
			if i%4 == 3 {
				if !errors.Is(err, ErrJobDeadline) {
					t.Fatalf("seed %d spin job %d: Wait = %v, want ErrJobDeadline", seed, i, err)
				}
				want = 0
			} else if err != nil {
				t.Fatalf("seed %d job %d: Wait = %v, want commit", seed, i, err)
			}
			if budgets[i] != nil && budgets[i].Load() > 0 {
				t.Fatalf("seed %d flaky job %d: planted panic never fired", seed, i)
			}
			for r, v := range readCounters(t, db, tables[i], rows) {
				if v != want {
					t.Fatalf("seed %d job %d row %d = %v, want %v", seed, i, r, v, want)
				}
			}
		}
		if inj.Faults() == 0 {
			t.Fatalf("seed %d: chaos injected nothing — trial vacuous", seed)
		}
		db.Close()
	}
}
