package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"db4ml/internal/chaos"
	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/resilience"
	"db4ml/internal/storage"
	"db4ml/internal/table"
	"db4ml/internal/txn"
)

// kernels is a test cluster: n pools and managers drawing from one oracle,
// each kernel holding rowsPer rows of a zero-loaded two-column ring table.
// Global row g lives on kernel g/rowsPer at local row g%rowsPer.
type kernels struct {
	pools   []*Pool
	mgrs    []*txn.Manager
	tables  []*table.Table
	rowsPer int
}

func newKernels(t *testing.T, n, workers, rowsPer int) *kernels {
	t.Helper()
	k := &kernels{rowsPer: rowsPer}
	oracle := &storage.Oracle{}
	for i := 0; i < n; i++ {
		pool, err := NewPool(Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pool.Close)
		mgr := txn.NewManagerWithOracle(oracle)
		tbl := table.New(fmt.Sprintf("ring@s%d", i), table.MustSchema(
			table.Column{Name: "V", Type: table.Int64}, table.Column{Name: "VTag", Type: table.Int64}))
		mgr.PublishAt(func(ts storage.Timestamp) {
			for r := 0; r < rowsPer; r++ {
				if _, err := tbl.Append(ts, storage.Payload{0, 0}); err != nil {
					t.Error(err)
				}
			}
		})
		k.pools, k.mgrs, k.tables = append(k.pools, pool), append(k.mgrs, mgr), append(k.tables, tbl)
	}
	return k
}

// locate maps global row g to its kernel and local row.
func (k *kernels) locate(g int) (int, table.RowID) { return g / k.rowsPer, table.RowID(g % k.rowsPer) }

// partCounterSub is the ring counter spanning kernels: sub g owns global
// row g, reads its ring neighbor — on another kernel at the ring's seams —
// and counts its own row to target.
type partCounterSub struct {
	rec, nrec *storage.IterativeRecord
	own, nbr  *table.Table
	row, nrow table.RowID
	target    uint64
	level     isolation.Level
	buf, nbuf storage.Payload
	reached   uint64
}

func (s *partCounterSub) Begin(c *itx.Ctx) {
	s.rec, s.nrec = s.own.IterRecord(s.row), s.nbr.IterRecord(s.nrow)
	s.buf, s.nbuf = make(storage.Payload, 2), make(storage.Payload, 2)
}

func (s *partCounterSub) Execute(c *itx.Ctx) {
	c.Read(s.nrec, s.nbuf)
	c.Read(s.rec, s.buf)
	s.reached = min(s.buf[0]+1, s.target)
	if s.level == isolation.Asynchronous {
		c.WriteCol(s.rec, 0, s.reached)
		c.WriteCol(s.rec, 1, s.reached)
	} else {
		s.buf[0], s.buf[1] = s.reached, s.reached
		c.Write(s.rec, s.buf)
	}
}

func (s *partCounterSub) Validate(c *itx.Ctx) itx.Action {
	if s.reached >= s.target {
		return itx.Done
	}
	return itx.Commit
}

// ringSpec is the counter ring as one uber-transaction with a part per
// kernel.
func (k *kernels) ringSpec(opts isolation.Options, target uint64, global bool) UberSpec {
	n := len(k.tables) * k.rowsPer
	spec := UberSpec{Isolation: opts, GlobalBarrier: global, Parts: make([]UberPart, len(k.tables))}
	for i := range spec.Parts {
		subs := make([]itx.Sub, 0, k.rowsPer)
		for r := 0; r < k.rowsPer; r++ {
			g := i*k.rowsPer + r
			nk, nrow := k.locate((g + 1) % n)
			subs = append(subs, &partCounterSub{
				own: k.tables[i], row: table.RowID(r), nbr: k.tables[nk], nrow: nrow,
				target: target, level: opts.Level,
			})
		}
		spec.Parts[i] = UberPart{
			Pool: k.pools[i], Mgr: k.mgrs[i],
			Attach: []itx.Attachment{{Table: k.tables[i]}},
			Build: func(storage.Timestamp) ([]itx.Sub, func(int) int, error) {
				return subs, nil, nil
			},
			Job: JobConfig{BatchSize: 2, Label: fmt.Sprintf("ring@s%d", i)},
		}
	}
	return spec
}

// TestUberDistributedCommit: a two-kernel uber-transaction commits at one
// timestamp on every kernel, atomically in timestamp order.
func TestUberDistributedCommit(t *testing.T) {
	for _, level := range isolation.Levels() {
		t.Run(level.String(), func(t *testing.T) {
			k := newKernels(t, 2, 2, 2)
			opts := isolation.Options{Level: level}
			if level == isolation.BoundedStaleness {
				opts.Staleness = 2
			}
			const target = 5
			r, err := StartUber(k.ringSpec(opts, target, true))
			if err != nil {
				t.Fatal(err)
			}
			stats, ts, err := r.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if ts == 0 {
				t.Fatal("commit timestamp is 0")
			}
			if parts := r.Stats(); stats.Commits != parts[0].Commits+parts[1].Commits || stats.Commits == 0 {
				t.Fatalf("combined commits %d, parts %+v", stats.Commits, parts)
			}
			// Every kernel's stable watermark reached the one commit
			// timestamp, and every row carries the converged value at ts.
			for i, mgr := range k.mgrs {
				if got := mgr.Stable(); got != ts {
					t.Fatalf("kernel %d stable = %d, want commit ts %d", i, got, ts)
				}
				if n := mgr.ActiveSnapshots(); n != 0 {
					t.Fatalf("kernel %d: %d snapshots pinned after commit", i, n)
				}
			}
			for g := 0; g < 4; g++ {
				ki, row := k.locate(g)
				p, ok := k.tables[ki].Read(row, ts)
				if !ok || p[0] != target || p[1] != target {
					t.Fatalf("row %d at ts %d = %v,%v, want (%d,%d)", g, ts, p, ok, target, target)
				}
				// And invisible just before it: the commit is atomic.
				if p, ok := k.tables[ki].Read(row, ts-1); ok && p[0] != 0 {
					t.Fatalf("row %d at ts-1 shows %d, want pre-run 0", g, p[0])
				}
			}
		})
	}
}

// panicAt makes its job panic on the job's at-th execution.
type panicAt struct {
	itx.Sub
	execs *atomic.Int64
	at    int64
}

func (s panicAt) Execute(c *itx.Ctx) {
	if s.execs.Add(1) == s.at {
		panic("planted sub-transaction panic")
	}
	s.Sub.Execute(c)
}

// TestUberAbortsAllPartsWhenOneFails: one part's failure stops and aborts
// every part, and Finish reports that failure, not the cancellation it
// caused in the siblings.
func TestUberAbortsAllPartsWhenOneFails(t *testing.T) {
	for _, c := range []struct {
		name string
		fail func(p *UberPart)
		want error
	}{
		{"cancel", func(p *UberPart) {
			p.Job.Chaos = chaos.NewSeeded(7, 2, chaos.Config{CancelAfter: 10})
		}, ErrJobCancelled},
		{"panic", func(p *UberPart) {
			build, execs := p.Build, new(atomic.Int64)
			p.Build = func(ts storage.Timestamp) ([]itx.Sub, func(int) int, error) {
				subs, regionOf, err := build(ts)
				for i := range subs {
					subs[i] = panicAt{Sub: subs[i], execs: execs, at: 20}
				}
				return subs, regionOf, err
			}
		}, resilience.ErrJobPanicked},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := newKernels(t, 2, 2, 2)
			spec := k.ringSpec(isolation.Options{Level: isolation.Asynchronous}, 1_000_000, false)
			// Part 1 fails mid-run; part 0 would happily converge.
			c.fail(&spec.Parts[1])
			r, err := StartUber(spec)
			if err != nil {
				t.Fatal(err)
			}
			_, ts, err := r.Finish()
			if !errors.Is(err, c.want) {
				t.Fatalf("Finish = %v, want %v", err, c.want)
			}
			if ts != 0 {
				t.Fatalf("aborted run reports commit ts %d", ts)
			}
			if !r.Retryable() {
				t.Fatal("an abort before any publish is not retryable")
			}
			// NO kernel published anything: every row is still 0 at its
			// kernel's stable snapshot.
			for g := 0; g < 4; g++ {
				ki, row := k.locate(g)
				p, ok := k.tables[ki].Read(row, k.mgrs[ki].Stable())
				if !ok || p[0] != 0 {
					t.Fatalf("row %d (kernel %d) = %v,%v after the abort, want 0", g, ki, p, ok)
				}
			}
		})
	}
}

// TestUberCancelPropagatesToAllParts: Cancel stops every part's job and
// the run aborts everywhere.
func TestUberCancelPropagatesToAllParts(t *testing.T) {
	k := newKernels(t, 2, 2, 2)
	// Unreachable target: only Cancel can end this run.
	r, err := StartUber(k.ringSpec(isolation.Options{Level: isolation.Asynchronous}, 1<<62, false))
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(5*time.Millisecond, r.Cancel)
	_, ts, err := r.Finish()
	if err == nil || ts != 0 {
		t.Fatalf("cancelled run: ts=%d err=%v, want abort", ts, err)
	}
	for i, mgr := range k.mgrs {
		if n := mgr.ActiveSnapshots(); n != 0 {
			t.Fatalf("kernel %d: %d snapshots pinned after the abort", i, n)
		}
	}
}

// TestUberRejectsPartsOnTwoOracles: parts whose managers draw from
// different oracles cannot share one commit timestamp, so StartUber
// refuses them before beginning anything.
func TestUberRejectsPartsOnTwoOracles(t *testing.T) {
	k := newKernels(t, 2, 1, 2)
	spec := k.ringSpec(isolation.Options{Level: isolation.Asynchronous}, 1, false)
	spec.Parts[1].Mgr = txn.NewManager()
	if _, err := StartUber(spec); err == nil {
		t.Fatal("StartUber accepted parts on two oracles")
	}
	if n := k.mgrs[0].ActiveSnapshots(); n != 0 {
		t.Fatalf("%d snapshots pinned after the refused start", n)
	}
}

func TestRendezvous(t *testing.T) {
	rz := newRendezvous(3)
	var wg sync.WaitGroup
	rounds := make([]int, 3)
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				rz.Arrive()
				rounds[p]++
			}
			rz.Leave()
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("rendezvous deadlocked")
	}
	for p, r := range rounds {
		if r != 50 {
			t.Fatalf("party %d completed %d rounds, want 50", p, r)
		}
	}
}

func TestRendezvousLeaveReleasesWaiters(t *testing.T) {
	rz := newRendezvous(2)
	released := make(chan struct{})
	go func() { rz.Arrive(); close(released) }()
	time.Sleep(time.Millisecond)
	rz.Leave() // the second party never arrives; it leaves instead
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("Leave did not release the waiting party")
	}
}

// TestRendezvousVote drives three parties through voting generations:
// the AND of the ballots is returned to every party, a leaver counts as
// assent, and a broken rendezvous vetoes.
func TestRendezvousVote(t *testing.T) {
	const parties, rounds = 3, 40
	rz := newRendezvous(parties)
	// Party p votes true in round r iff r >= p*10: round r's global AND
	// flips to true exactly when the slowest party's threshold passes.
	results := make([][rounds]bool, parties)
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				results[p][r] = rz.ArriveVote(r >= p*10)
			}
			rz.Leave()
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("voting rendezvous deadlocked")
	}
	for p := 0; p < parties; p++ {
		for r := 0; r < rounds; r++ {
			if want := r >= (parties-1)*10; results[p][r] != want {
				t.Fatalf("party %d round %d vote = %v, want %v", p, r, results[p][r], want)
			}
		}
	}

	// A departed party assents: the remaining voter's ballot decides.
	rz = newRendezvous(2)
	got := make(chan bool, 1)
	go func() { got <- rz.ArriveVote(true) }()
	time.Sleep(time.Millisecond)
	rz.Leave()
	select {
	case v := <-got:
		if !v {
			t.Fatal("vote with a departed (assenting) party returned false")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Leave did not release the voting party")
	}

	// Break vetoes: a waiter released by teardown must not retire anyone.
	rz = newRendezvous(2)
	go func() { got <- rz.ArriveVote(true) }()
	time.Sleep(time.Millisecond)
	rz.Break()
	if v := <-got; v {
		t.Fatal("broken rendezvous approved a vote")
	}
}
