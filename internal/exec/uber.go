package exec

import (
	"time"

	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/storage"
	"db4ml/internal/txn"
)

// QuiesceGrace bounds how long a failed uber-transaction waits, after a
// forced retirement, for in-flight workers to acknowledge the cancellation
// before it aborts anyway. A worker still wedged past the grace can no
// longer install anything (the engine re-checks cancellation between
// Execute and Finalize), but resubmitting the same sub-transactions
// underneath it would be unsafe — so a non-quiesced job is never retried.
const QuiesceGrace = time.Second

// UberSpec describes one uber-transaction (paper §4, Algorithm 1): the
// tables it updates, how to build its sub-transactions, and how to run
// them.
type UberSpec struct {
	// Isolation is the ML isolation level of every sub-transaction.
	Isolation isolation.Options
	// Attach lists the tables the sub-transactions update, attached in
	// order before Build runs.
	Attach []itx.Attachment
	// Build constructs the sub-transactions at the uber-transaction's
	// snapshot, with every attachment in place. A non-nil regionOf
	// replaces Job.RegionOf.
	Build func(ts storage.Timestamp) (subs []itx.Sub, regionOf func(int) int, err error)
	// Job configures the submitted job.
	Job JobConfig
}

// UberRun is a started uber-transaction and the job driving its
// sub-transactions.
type UberRun struct {
	Uber *itx.Uber
	Job  *Job
}

// StartUber runs the lifecycle up to the job: it begins an
// uber-transaction on mgr, attaches spec.Attach, builds the
// sub-transactions and submits them to p. Every error aborts the
// uber-transaction, so a failed start leaves the tables untouched and no
// snapshot pinned; a nil pool returns ErrNoPool before anything begins.
func StartUber(p *Pool, mgr *txn.Manager, spec UberSpec) (*UberRun, error) {
	if p == nil {
		return nil, ErrNoPool
	}
	u, err := itx.BeginUber(mgr, spec.Isolation)
	if err != nil {
		return nil, err
	}
	job, err := submitUber(p, u, spec)
	if err != nil {
		_ = u.Abort()
		return nil, err
	}
	return &UberRun{Uber: u, Job: job}, nil
}

func submitUber(p *Pool, u *itx.Uber, spec UberSpec) (*Job, error) {
	for _, a := range spec.Attach {
		if err := u.Attach(a.Table, a.Rows, a.Versions); err != nil {
			return nil, err
		}
	}
	subs, regionOf, err := spec.Build(u.Snapshot())
	if err != nil {
		return nil, err
	}
	jc := spec.Job
	if regionOf != nil {
		jc.RegionOf = regionOf
	}
	return p.Submit(subs, spec.Isolation, jc)
}

// Finish waits for the job and settles the uber-transaction: it commits
// and returns the commit timestamp when the job converged; on any job
// error it quiesces the job (QuiesceGrace) and then aborts, so nothing is
// published and the snapshot pin is released.
func (r *UberRun) Finish() (Stats, storage.Timestamp, error) {
	stats, err := r.Job.Wait()
	if err != nil {
		r.Job.Quiesce(QuiesceGrace)
		_ = r.Uber.Abort()
		return stats, 0, err
	}
	ts, err := r.Uber.Commit()
	return stats, ts, err
}
