package check

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"db4ml"
	"db4ml/internal/chaos"
	"db4ml/internal/exec"
	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/partition"
	"db4ml/internal/shard"
	"db4ml/internal/storage"
	"db4ml/internal/table"
)

// Trial describes one seeded trial: the counter ring (see counterSub) run
// as one uber-transaction under a seeded fault schedule, its history
// recorded and checked against the contracts. The same Trial replays the
// same fault schedule, which is what makes a failing trial debuggable. Run
// applies no defaults.
//
// Run picks the trial from its input:
//   - Crash == nil, Shards <= 1: one db4ml.Open database, facade
//     supervision included;
//   - Crash == nil, Shards > 1: one exec.StartUber with a part per shard
//     of an internal/shard cluster, no facade, every shard with its own
//     injector and recorder;
//   - Crash != nil: a durable db4ml.Open database (round-robin over
//     Shards kernels) killed at Crash.Kill and recovered.
type Trial struct {
	// Seed drives the fault injector; shard s of a coordinator trial is
	// seeded Seed+s, so shards fault independently but reproducibly.
	Seed int64
	// Level is the isolation level under test; the zero value is
	// Synchronous. Synchronous coordinator trials run with the global
	// barrier.
	Level isolation.Options
	// Shards is the kernel count.
	Shards int
	// Workers sizes each kernel's worker pool (two NUMA regions when > 1).
	Workers int
	// Subs is the ring size: sub-transaction i owns row i.
	Subs int
	// Target is the value every sub-transaction counts its row up to.
	Target uint64
	// Chaos sets the fault probabilities (chaos.DefaultConfig for a storm,
	// the zero value for a fault-free control run). On a coordinator trial
	// a nonzero CancelAfter applies to one shard only (shard Seed mod
	// Shards), so the trial proves the all-or-nothing distributed abort.
	Chaos chaos.Config
	// GC, when nonzero, runs the facade's background version reclaimer at
	// that interval (db4ml.WithVersionGC), proving reclamation never
	// changes what a reader observes. A coordinator trial runs no facade
	// and so no reclaimer: GC there is an error.
	GC time.Duration
	// Crash, when non-nil, makes this a crash trial.
	Crash *Crash
}

// Crash describes the kill and recovery of a crash trial, three phases over
// Dir: seed (load the ring, close cleanly), victim (recover, optionally
// checkpoint, run the ring into the armed kill-point, discard the kernel as
// the crash left it) and witness (recover once more and probe every row).
// The recovered ring is its own oracle: every row reads 0 (the commit
// vanished whole) or Target (it survived whole), and only Target after an
// acknowledged commit — CheckRecoveryAtomicity's verdict.
type Crash struct {
	// Kill is the armed kill-point; chaos.CrashNone runs a clean-restart
	// control. A point the run never reaches (CrashBetweenShardCommits on
	// one shard) degenerates to a clean trial.
	Kill chaos.CrashPoint
	// Policy is the WAL fsync policy; the zero value is WALSyncAlways.
	Policy db4ml.WALSyncPolicy
	// CheckpointMid checkpoints in the victim phase before the run, so the
	// witness recovers from a checkpoint plus a WAL tail.
	CheckpointMid bool
	// BreakRecovery deletes the WAL segments between the crash and the
	// recovery: a planted durability bug that must convict every trial
	// with an acknowledged commit.
	BreakRecovery bool
	// Dir is the WAL and checkpoint directory (required).
	Dir string
}

// Result reports one trial. Report holds the contract verdict; Run's error
// reports a harness or workload-oracle failure instead.
type Result struct {
	Report Report
	// Acked reports that the uber-commit was acknowledged, at AckedTS.
	Acked   bool
	AckedTS storage.Timestamp
	// Cancelled reports that a chaos CancelJob fault cancelled the run; on
	// a coordinator trial, one shard's cancellation aborted every shard.
	Cancelled bool
	// Killed reports that the armed kill-point fired (crash trials).
	Killed bool
	// RecoveredStable is the witness kernel's stable watermark (crash
	// trials).
	RecoveredStable storage.Timestamp
	// Faults is the number of faults every injector fired into the run.
	Faults uint64
	// Events is the recorded history length.
	Events int
}

// LevelOptions returns the trials' isolation options for a level: S=2 for
// bounded staleness, defaults otherwise.
func LevelOptions(level isolation.Level) isolation.Options {
	opts := isolation.Options{Level: level}
	if level == isolation.BoundedStaleness {
		opts.Staleness = 2
	}
	return opts
}

// Run executes one trial end to end and checks it. Contract breaches land
// in the result's report; the error reports harness or oracle failures.
func Run(t Trial) (Result, error) {
	switch {
	case t.Subs < 2 || t.Subs < t.Shards || t.Target == 0 || t.Workers < 1:
		return Result{}, fmt.Errorf("check: degenerate trial %+v", t)
	case t.Crash == nil && t.Shards > 1 && t.GC > 0:
		return Result{}, errors.New("check: a coordinator trial has no version reclaimer to run GC")
	case t.Crash != nil && t.Crash.Dir == "":
		return Result{}, errors.New("check: a crash trial needs Crash.Dir")
	}
	if t.Level.Level == isolation.BoundedStaleness && !t.Level.SingleWriterHint {
		// Widen the seqlock's mid-copy window so readers actually exercise
		// their retry and fallback paths under the fault schedule.
		storage.SetInstallHook(func(iter uint64, slot int) { runtime.Gosched() })
		defer storage.SetInstallHook(nil)
	}
	r := &ring{
		Trial: t,
		label: fmt.Sprintf("trial-%s-seed%d-n%d-w%d", t.Level.Level, t.Seed, t.Shards, t.Workers),
		hist:  NewHistory(),
		inj:   chaos.NewSeeded(t.Seed, t.Workers, t.Chaos),
	}
	switch {
	case t.Crash != nil:
		return r.crash()
	case t.Shards > 1:
		return r.distributed()
	default:
		return r.single()
	}
}

// counterSub is the trial workload: sub-transaction i owns row i of a ring
// and counts it 0,1,...,target, one increment per committed iteration,
// reading neighbor row (i+1)%n each iteration purely to create cross-sub
// staleness and barrier pressure. The final table state is itself an
// oracle: a completed run must leave every row exactly at target (an
// increment lost to a fault schedule shows up as a smaller value), and a
// cancelled run must leave the pre-run zeros.
//
// Writes use one mechanism per isolation level — full-row Write under
// bounded staleness and synchronous, immediate relaxed column stores under
// asynchronous — because mixing seqlock installs and relaxed column stores
// on one record is not supported by the storage layer. The written row is
// tag-replicated (both columns equal), so a torn row is detectable.
type counterSub struct {
	tbl      *table.Table
	row, nbr table.RowID
	target   uint64
	level    isolation.Level

	rec, nrec *storage.IterativeRecord
	buf, nbuf storage.Payload
	reached   uint64 // value this iteration wrote
}

func (s *counterSub) Begin(c *itx.Ctx) {
	s.rec = s.tbl.IterRecord(s.row)
	s.nrec = s.tbl.IterRecord(s.nbr)
	s.buf = make(storage.Payload, 2)
	s.nbuf = make(storage.Payload, 2)
}

func (s *counterSub) Execute(c *itx.Ctx) {
	c.Read(s.nrec, s.nbuf) // neighbor read: staleness pressure only
	c.Read(s.rec, s.buf)
	next := s.buf[0] + 1
	if next > s.target {
		// Asynchronous stores survive forced rollbacks (Hogwild semantics),
		// so a re-executed iteration must not count past the target.
		next = s.target
	}
	s.reached = next
	if s.level == isolation.Asynchronous {
		c.WriteCol(s.rec, 0, next)
		c.WriteCol(s.rec, 1, next)
	} else {
		s.buf[0], s.buf[1] = next, next
		c.Write(s.rec, s.buf)
	}
}

func (s *counterSub) Validate(c *itx.Ctx) itx.Action {
	if s.reached >= s.target {
		return itx.Done
	}
	return itx.Commit
}

// The ring table: V and its tag replica VTag, both zero before the run.
const ringName = "ring"

var ringCols = []table.Column{{Name: "V", Type: table.Int64}, {Name: "VTag", Type: table.Int64}}

func ringRows(n int) []storage.Payload {
	rows := make([]storage.Payload, n)
	for i := range rows {
		rows[i] = storage.Payload{0, 0}
	}
	return rows
}

// ring is one trial in flight: its history, the facade's injector, and the
// result the phases fill in.
type ring struct {
	Trial
	label string
	hist  *History
	inj   *chaos.Seeded
	res   Result
}

// sub returns the sub-transaction owning ring row i of tbl.
func (r *ring) sub(tbl *table.Table, i int) *counterSub {
	return &counterSub{
		tbl: tbl, row: table.RowID(i), nbr: table.RowID((i + 1) % r.Subs),
		target: r.Target, level: r.Level.Level,
	}
}

// rule is the ring's visibility rule: a row reads 0 before the commit and
// Target after it.
func (r *ring) rule() VisibilityRule {
	return VisibilityRule{
		Before: func(_ int64, v uint64) bool { return v == 0 },
		After:  func(_ int64, v uint64) bool { return v == r.Target },
	}
}

// settle classifies a resolved run: a commit acknowledged at ts, a chaos
// cancellation, or a fired kill-point. Any other failure fails the trial.
func (r *ring) settle(ts storage.Timestamp, err error) error {
	switch {
	case err == nil && ts == 0:
		return errors.New("check: the run committed at timestamp 0")
	case err == nil:
		r.res.Acked, r.res.AckedTS = true, ts
	case errors.Is(err, exec.ErrJobCancelled):
		r.res.Cancelled = true
	case errors.Is(err, chaos.ErrCrashed) && r.Crash != nil:
		r.res.Killed = true
	default:
		return err
	}
	return nil
}

// oracle checks the final state through read: a committed run left every
// row at Target in both columns (less is a lost increment, more a double
// count, unequal columns a torn row), a cancelled one the pre-run zeros.
func (r *ring) oracle(read func(row int) (storage.Payload, bool)) error {
	want := r.Target
	if r.res.Cancelled {
		want = 0
	}
	for row := 0; row < r.Subs; row++ {
		p, ok := read(row)
		if !ok {
			return fmt.Errorf("check: final read of row %d failed", row)
		}
		if p[0] != want || p[1] != want {
			return fmt.Errorf("check: row %d ended at (%d,%d), want (%d,%d) (cancelled=%v)",
				row, p[0], p[1], want, want, r.res.Cancelled)
		}
	}
	return nil
}

// verdict completes the result with the report over the recorded history.
func (r *ring) verdict(rep Report) Result {
	r.res.Report, r.res.Events = rep, r.hist.Len()
	return r.res
}

// probing runs probe(p) for every prober p in [0, n) over and over, each in
// its own goroutine, until the returned stop is called. stop waits for the
// probers, then probes once more each, so every trial has observations
// after its outcome.
func probing(n int, probe func(p int)) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				probe(p)
				runtime.Gosched()
			}
		}()
	}
	return func() {
		close(done)
		wg.Wait()
		for p := 0; p < n; p++ {
			probe(p)
		}
	}
}

// open opens the trial's database of Shards kernels, durable in a crash
// trial and then armed with kill when it is non-nil.
func (r *ring) open(kill *db4ml.CrashKiller) *db4ml.DB {
	regions := 1
	if r.Workers > 1 {
		regions = 2
	}
	opts := []db4ml.Option{db4ml.WithShards(r.Shards), db4ml.WithShardScheme(db4ml.ShardRoundRobin),
		db4ml.WithWorkers(r.Workers), db4ml.WithRegions(regions), db4ml.WithChaos(r.inj)}
	if r.GC > 0 {
		opts = append(opts, db4ml.WithVersionGC(r.GC))
	}
	if c := r.Crash; c != nil {
		opts = append(opts, db4ml.WithWAL(c.Dir), db4ml.WithWALSync(c.Policy))
		if kill != nil {
			opts = append(opts, db4ml.WithCrashPoints(kill))
		}
	}
	return db4ml.Open(opts...)
}

// load creates the ring table on f and bulk-loads its zero rows.
func (r *ring) load(f *db4ml.DB) (*db4ml.Table, error) {
	tbl, err := f.CreateTable(ringName, ringCols...)
	if err != nil {
		return nil, err
	}
	return tbl, f.BulkLoad(tbl, ringRows(r.Subs))
}

// probe reads every ring row of f in one read transaction — on several
// kernels, at one cut of all of them — and logs each observation at the
// transaction's begin timestamp; the visibility checker later splits the
// probes at the commit timestamp.
func (r *ring) probe(f *db4ml.DB, tbl *db4ml.Table) {
	tx := f.Begin()
	defer tx.Abort()
	for row := 0; row < r.Subs; row++ {
		if p, ok := tx.Read(tbl, db4ml.RowID(row)); ok {
			r.hist.Probe(r.label, tx.BeginTS(), int64(row), p[0])
		}
	}
}

// run submits the ring on f as one ML run (recorded by rec unless nil) and
// probes it from a concurrent read transaction until it resolves.
func (r *ring) run(f *db4ml.DB, tbl *db4ml.Table, rec db4ml.RunRecorder) error {
	subs := make([]db4ml.IterativeTransaction, r.Subs)
	for i := range subs {
		subs[i] = r.sub(tbl, i)
	}
	run := db4ml.MLRun{
		Isolation: r.Level,
		Label:     r.label,
		BatchSize: 2,
		Attach:    []db4ml.Attachment{{Table: tbl}},
		Subs:      subs,
		Chaos:     r.inj,
		Recorder:  rec,
	}
	stop := probing(1, func(int) { r.probe(f, tbl) })
	var ts db4ml.Timestamp
	h, err := f.SubmitML(context.Background(), run)
	if err == nil {
		_, err = h.Wait()
		ts = h.CommitTS()
	}
	stop()
	r.res.Faults = r.inj.Faults()
	return r.settle(ts, err)
}

// single runs the ring on one db4ml.Open database under the facade's
// supervision, then checks the oracle and every contract of the level.
func (r *ring) single() (Result, error) {
	f := r.open(nil)
	defer f.Close()
	tbl, err := r.load(f)
	if err != nil {
		return r.res, err
	}
	if err := r.run(f, tbl, r.hist.Job(r.label)); err != nil {
		return r.res, err
	}
	tx := f.Begin()
	defer tx.Abort()
	if err := r.oracle(func(row int) (storage.Payload, bool) { return tx.Read(tbl, table.RowID(row)) }); err != nil {
		return r.res, err
	}
	rule := r.rule()
	return r.verdict(Check(r.hist.Events(), r.label, r.Level, &rule)), nil
}

// distributed runs the ring as one uber-transaction with a part per shard
// of an internal/shard cluster, with no facade: each sub on the shard
// owning its row, reading its neighbor through the chain-sharing view
// (under round-robin placement a cross-shard read, every time). It checks
// the per-shard contracts, 2PC atomicity, cross-shard staleness and the
// oracle.
func (r *ring) distributed() (Result, error) {
	cluster, err := shard.NewCluster(r.Shards, exec.Config{Workers: r.Workers})
	if err != nil {
		return r.res, err
	}
	defer cluster.Close()
	router := shard.NewRouter(partition.RoundRobin, r.Shards, uint64(r.Subs))
	st := shard.NewTable(ringName, table.MustSchema(ringCols...), router)
	if _, _, err := st.Load(cluster, ringRows(r.Subs)); err != nil {
		return r.res, err
	}

	// Group subs by owning shard; subMaps translate each shard's local sub
	// indices back to ring positions in the merged log.
	subs := make([][]itx.Sub, r.Shards)
	subMaps := make([][]int, r.Shards)
	for i := 0; i < r.Subs; i++ {
		s := st.ShardOf(table.RowID(i))
		if s < 0 {
			return r.res, fmt.Errorf("check: ring row %d has no owner", i)
		}
		subs[s] = append(subs[s], r.sub(st.View(), i))
		subMaps[s] = append(subMaps[s], i)
	}
	cancelShard := int((r.Seed%int64(r.Shards) + int64(r.Shards)) % int64(r.Shards))
	injs := make([]*chaos.Seeded, r.Shards)
	parts := make([]exec.UberPart, r.Shards)
	for s := range parts {
		cfg := r.Chaos
		if s != cancelShard {
			cfg.CancelAfter = 0
		}
		injs[s] = chaos.NewSeeded(r.Seed+int64(s), r.Workers, cfg)
		label := ShardLabel(r.label, s)
		k, subs := cluster.Kernel(s), subs[s]
		parts[s] = exec.UberPart{
			Pool: k.Pool(), Mgr: k.Mgr(),
			Attach: []itx.Attachment{{Table: st.Local(s)}},
			Build: func(storage.Timestamp) ([]itx.Sub, func(int) int, error) {
				return subs, nil, nil
			},
			Job: exec.JobConfig{BatchSize: 2, Label: label, Chaos: injs[s], Recorder: r.hist.ShardJob(label, s, subMaps[s])},
		}
	}

	// One prober per shard reads the rows its shard owns at that shard's
	// snapshot: a row's visibility is defined by its owner's stable
	// watermark, and the 2PC checker separately proves that every owner
	// flips at one timestamp.
	stop := probing(r.Shards, func(s int) {
		tx := cluster.Kernel(s).Mgr().Begin()
		defer tx.Abort()
		for g := 0; g < r.Subs; g++ {
			if owner, local, _ := st.Locate(table.RowID(g)); owner == s {
				if p, ok := tx.Read(st.Local(s), local); ok {
					r.hist.Probe(r.label, tx.BeginTS(), int64(g), p[0])
				}
			}
		}
	})
	run, err := exec.StartUber(exec.UberSpec{
		Isolation:     r.Level,
		Parts:         parts,
		GlobalBarrier: r.Level.Level == isolation.Synchronous,
	})
	if err != nil {
		stop()
		return r.res, err
	}
	// StartUber installed every attachment, so every ring row's iterative
	// record exists; tag each with its owner for the cross-shard checker.
	for g := 0; g < r.Subs; g++ {
		r.hist.TagRecordOwner(st.View().IterRecord(table.RowID(g)), st.ShardOf(table.RowID(g)))
	}
	_, ts, err := run.Finish()
	stop()
	for _, inj := range injs {
		r.res.Faults += inj.Faults()
	}
	if err := r.settle(ts, err); err != nil {
		return r.res, err
	}
	// After an abort each row is read at its owner's stable watermark.
	if err := r.oracle(func(g int) (storage.Payload, bool) {
		at := r.res.AckedTS
		if at == 0 {
			at = cluster.Kernel(st.ShardOf(table.RowID(g))).Mgr().Stable()
		}
		return st.View().Read(table.RowID(g), at)
	}); err != nil {
		return r.res, err
	}
	rule := r.rule()
	return r.verdict(CheckDistributed(r.hist.Events(), r.label, r.Shards, r.Level, r.hist.RecordOwners(), &rule)), nil
}

// crash runs the seed, victim and witness phases (see Crash) and judges
// the witness's probes with CheckRecoveryAtomicity.
func (r *ring) crash() (Result, error) {
	seed := r.open(nil)
	_, err := r.load(seed)
	if cerr := seed.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return r.res, err
	}
	var kill *db4ml.CrashKiller
	if r.Crash.Kill != chaos.CrashNone {
		kill = db4ml.NewCrashKiller(r.Crash.Kill)
	}
	if err := r.victim(r.open(kill)); err != nil {
		return r.res, err
	}
	if r.Crash.BreakRecovery {
		if err := breakWAL(r.Crash.Dir); err != nil {
			return r.res, err
		}
	}

	witness := r.open(nil)
	defer witness.Close()
	r.res.RecoveredStable = witness.Stable()
	tbl := witness.Table(ringName)
	if tbl == nil {
		return r.res, errors.New("check: recovery lost the ring table")
	}
	// The witness judges a history of its own: the victim's probes may have
	// seen a publish its crash never acknowledged.
	r.hist = NewHistory()
	if r.res.Acked {
		r.hist.Job(r.label).RecordUberCommit(r.res.AckedTS)
	}
	r.probe(witness, tbl)
	rep := CheckRecoveryAtomicity(r.hist.Events(), r.label, r.rule())
	if rep.RecoveryChecked != r.Subs {
		return r.res, fmt.Errorf("check: %d of %d recovered rows are visible", rep.RecoveryChecked, r.Subs)
	}
	return r.verdict(rep), nil
}

// victim runs the ring on the recovered kernel f into the armed kill-point
// and discards f as the crash left it. The run has no recorder: a database
// of several kernels takes none, and the witness records the
// acknowledgement.
func (r *ring) victim(f *db4ml.DB) error {
	defer f.Close()
	tbl := f.Table(ringName)
	if tbl == nil {
		return errors.New("check: the seeded ring was lost before the crash")
	}
	if r.Crash.CheckpointMid {
		if err := r.checkpoint(f); err != nil {
			return err
		}
	}
	if err := r.run(f, tbl, nil); err != nil {
		return err
	}
	if r.Crash.Kill == chaos.CrashMidCheckpoint && !r.Crash.CheckpointMid {
		// The checkpointer is this point's only trigger; fire it after the
		// acknowledged run so the crash threatens a real commit.
		return r.checkpoint(f)
	}
	return nil
}

// checkpoint checkpoints f, noting a fired kill-point rather than failing.
func (r *ring) checkpoint(f *db4ml.DB) error {
	err := f.Checkpoint()
	if errors.Is(err, chaos.ErrCrashed) {
		r.res.Killed = true
		return nil
	}
	return err
}

// breakWAL is the planted recovery bug: it deletes every WAL segment, as a
// durability layer that acknowledged commits it never made durable would.
// Checkpoint files survive, so the witness still recovers the ring.
func breakWAL(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}
