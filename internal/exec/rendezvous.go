package exec

import "sync"

// rendezvous extends the per-job synchronous barrier across the parts of
// one uber-transaction (UberSpec.GlobalBarrier). Each part's job arrives
// once per barrier flip (via JobConfig.BarrierHook, on the job's
// last-arriving worker); Arrive releases everyone when all still-active
// parties have arrived, so no kernel of a synchronous uber-transaction
// starts the next phase until every kernel finished the current one.
//
// Unlike a fixed-size barrier, parties can Leave: a part whose
// sub-transactions all converged stops arriving, and waiting on it forever
// would deadlock the survivors. Leave removes the party and releases the
// current generation if the remaining arrivals now suffice. Break releases
// everyone unconditionally and disables the rendezvous — Finish's teardown
// path, guaranteeing no worker stays parked in a hook after the run
// resolves.
type rendezvous struct {
	mu       sync.Mutex
	cond     *sync.Cond
	active   int    // parties still participating
	arrived  int    // parties arrived in the current generation
	gen      uint64 // generation counter; bumping it releases waiters
	broken   bool
	veto     bool // a ballot cast false in the current generation
	lastVote bool // the AND of the last released generation's ballots
}

// newRendezvous creates a rendezvous over the given number of parties.
func newRendezvous(parties int) *rendezvous {
	r := &rendezvous{active: parties}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Arrive blocks until every active party arrived (or the rendezvous broke
// or drained). The caller that completes the generation releases the rest.
func (r *rendezvous) Arrive() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.broken || r.active <= 0 {
		return
	}
	gen := r.gen
	r.arrived++
	if r.arrived >= r.active {
		r.release()
		return
	}
	for r.gen == gen && !r.broken {
		r.cond.Wait()
	}
}

// ArriveVote is Arrive carrying a ballot: it blocks like Arrive and
// returns the AND of every ballot cast in the generation. The pool's
// ConvergeTogether retirement consults it (via JobConfig.ConvergeVote) so
// a synchronous job spanning kernels retires collectively — a part whose
// own sub-transactions all voted Done keeps iterating until EVERY part's
// did, exactly as one kernel would. A party that left stops voting and
// counts as assent (its job finished because every sub converged); a
// broken rendezvous returns false — teardown is in progress and nobody
// should act on a half-counted vote.
func (r *rendezvous) ArriveVote(v bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.broken {
		return false
	}
	if r.active <= 0 {
		return v
	}
	if !v {
		r.veto = true
	}
	gen := r.gen
	r.arrived++
	if r.arrived >= r.active {
		r.release()
		return r.lastVote
	}
	for r.gen == gen && !r.broken {
		r.cond.Wait()
	}
	if r.broken {
		return false
	}
	return r.lastVote
}

// Leave permanently removes one party (its job finished). If the removal
// makes the current generation complete, the waiters are released.
func (r *rendezvous) Leave() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active--
	if r.active <= 0 || r.arrived >= r.active {
		r.release()
	}
}

// Break releases every waiter and disables the rendezvous; subsequent
// Arrives return immediately.
func (r *rendezvous) Break() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.broken = true
	r.cond.Broadcast()
}

// release completes the current generation: callers hold r.mu. The
// generation's vote is sealed here; waiters read it before the next
// generation can complete (they must re-arrive for it to progress).
func (r *rendezvous) release() {
	r.lastVote = !r.veto
	r.veto = false
	r.arrived = 0
	r.gen++
	r.cond.Broadcast()
}
