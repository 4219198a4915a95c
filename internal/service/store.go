package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"plurality/internal/mc"
	"plurality/internal/stats"
)

// State is a job's lifecycle state.
type State string

// Job lifecycle: Queued → Running → one of the terminal states. A job
// cancelled while still queued goes straight to Cancelled without running.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether no further state transitions or records can
// occur.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Aggregate is the terminal summary of a job's completed records.
type Aggregate struct {
	Replicates  int           `json:"replicates"`
	SuccessRate float64       `json:"success_rate"`
	WilsonLo    float64       `json:"wilson_lo"`
	WilsonHi    float64       `json:"wilson_hi"`
	Rounds      stats.Summary `json:"rounds"`
}

// JobInfo is the JSON snapshot of a job served by the status endpoints.
type JobInfo struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Name is the canonical spec name stamped into every record.
	Name string  `json:"name"`
	Spec JobSpec `json:"spec"`
	// Records is the number of replicate records completed so far.
	Records int    `json:"records"`
	Error   string `json:"error,omitempty"`
	// Aggregate summarizes the completed records once the job is terminal
	// (partial on cancellation).
	Aggregate *Aggregate `json:"aggregate,omitempty"`
	// Evicted marks a tombstoned job: its records were dropped from memory
	// to bound retention and are only servable from the journal.
	Evicted bool `json:"evicted,omitempty"`
}

// jobState is one tracked job. recs only grows, and only before the state
// turns terminal; cond is broadcast on every append and state change,
// which is what the JSONL follow-streaming waits on.
type jobState struct {
	id     string
	spec   JobSpec
	cancel context.CancelFunc
	// syncPath marks jobs running on a request goroutine: their lifetime
	// is the request's, so shutdown cancellation is terminal for them.
	syncPath bool
	// met receives lifecycle gauge transitions; engLabel/ruleLabel are the
	// resolved engine and rule this job's replicate counters are labelled
	// with (computed once at creation — resolveEngine is pure).
	met       *serverMetrics
	engLabel  string
	ruleLabel string

	mu    sync.Mutex
	cond  *sync.Cond
	state State
	recs  []mc.Record
	// trace accumulates the JSONL traces of a traced job's finished
	// replicates (spec.Trace; see trace.go). In-memory only: never
	// journaled, dropped on eviction.
	trace []byte
	err   error
	// userCancel records that cancellation was requested through the API
	// (as opposed to server drain/shutdown, which must stay resumable).
	userCancel bool
	// evicted jobs have dropped their records to bound memory; tomb is
	// the terminal snapshot that keeps the info endpoint serving.
	evicted bool
	tomb    *JobInfo
}

// newJobState builds a queued job and counts it into the queued gauge.
func newJobState(id string, spec JobSpec, cancel context.CancelFunc, met *serverMetrics) *jobState {
	j := &jobState{id: id, spec: spec, cancel: cancel, state: StateQueued, met: met}
	j.cond = sync.NewCond(&j.mu)
	j.engLabel = "invalid"
	if eng, err := spec.resolveEngine(); err == nil {
		j.engLabel = eng
	}
	j.ruleLabel = spec.Rule
	met.jobTransition("", StateQueued)
	return j
}

// setRunning marks the queued job as picked up. It is a no-op once the
// job is terminal (a cancelled-in-queue job stays cancelled).
func (j *jobState) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		j.met.jobTransition(j.state, StateRunning)
		j.state = StateRunning
		j.cond.Broadcast()
	}
}

// appendRecord is the mc sink: records arrive in replicate order.
func (j *jobState) appendRecord(rec mc.Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.recs = append(j.recs, rec)
	j.cond.Broadcast()
	return nil
}

// appendTrace folds one finished traced replicate's JSONL trace into
// the job's in-memory trace buffer.
func (j *jobState) appendTrace(b []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.trace = append(j.trace, b...)
}

// traceSnapshot copies the traces captured so far (empty when nothing
// has finished yet, or after eviction).
func (j *jobState) traceSnapshot() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]byte(nil), j.trace...)
}

// finish moves the job to its terminal state from the run's outcome.
// It reports the state it settled on and whether this call performed
// the transition (false when the job was already terminal).
func (j *jobState) finish(err error) (State, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return j.state, false
	}
	from := j.state
	switch {
	case err == nil:
		j.state = StateDone
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.err = err
	default:
		j.state = StateFailed
		j.err = err
	}
	j.met.jobFinished(from, j.state)
	j.cond.Broadcast()
	return j.state, true
}

// requestCancel cancels the job's context; a still-queued job is marked
// cancelled immediately so polls never see it running afterwards (the
// return value reports that immediate transition). user distinguishes
// an API cancellation (terminal, journaled) from server drain/shutdown
// (resumable: the job replays after a restart).
func (j *jobState) requestCancel(user bool) bool {
	j.mu.Lock()
	if user {
		j.userCancel = true
	}
	transitioned := false
	if j.state == StateQueued {
		j.met.jobFinished(StateQueued, StateCancelled)
		j.state = StateCancelled
		j.err = context.Canceled
		j.cond.Broadcast()
		transitioned = true
	}
	j.mu.Unlock()
	j.cancel()
	return transitioned
}

// userCancelled reports whether cancellation came through the API.
func (j *jobState) userCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.userCancel
}

// adopt restores replayed state: the already-journaled record prefix
// and, for terminal jobs, the final state. Called before the job is
// visible to any handler or executor.
func (j *jobState) adopt(recs []mc.Record, st State, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.recs = recs
	if st.Terminal() {
		// Gauge only: this process did not perform the terminal transition,
		// so jobs_finished_total must not count it.
		j.met.jobTransition(StateQueued, st)
		j.state = st
		j.err = err
	}
	j.met.replicatesResumed(j.engLabel, j.ruleLabel, len(recs))
}

// evict drops a terminal job's records to bound memory, leaving a
// tombstone snapshot (aggregate included) for the info endpoints. The
// records themselves stay servable from the journal. No-op on
// non-terminal jobs.
func (j *jobState) evict() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() || j.evicted {
		return
	}
	info := j.infoLocked()
	info.Evicted = true
	j.tomb = &info
	j.recs = nil
	j.trace = nil // traces have no journal backing; eviction is final
	j.evicted = true
	j.met.jobEvicted()
}

// forget removes the job from the lifecycle gauges (deletion or
// queue-full rollback).
func (j *jobState) forget() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.met.jobTransition(j.state, "")
}

// isEvicted reports whether the job's records were dropped from memory.
func (j *jobState) isEvicted() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.evicted
}

// info snapshots the job for the status API.
func (j *jobState) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.infoLocked()
}

func (j *jobState) infoLocked() JobInfo {
	if j.evicted {
		return *j.tomb
	}
	info := JobInfo{
		ID:      j.id,
		State:   j.state,
		Name:    j.spec.Name(),
		Spec:    j.spec,
		Records: len(j.recs),
	}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	if j.state.Terminal() && len(j.recs) > 0 {
		agg := mc.Aggregate(j.recs)
		lo, hi := agg.Wilson(1.96)
		info.Aggregate = &Aggregate{
			Replicates:  agg.N,
			SuccessRate: agg.SuccessRate(),
			WilsonLo:    lo,
			WilsonHi:    hi,
			Rounds:      agg.Rounds(),
		}
	}
	return info
}

// streamRecords writes the job's records to w as JSONL in replicate
// order. With follow set it keeps the stream open, emitting records as
// they complete (calling flush, if non-nil, after each batch) until the
// job is terminal or ctx is cancelled (a follow client going away);
// otherwise it writes the current snapshot and returns.
func (j *jobState) streamRecords(ctx context.Context, w io.Writer, follow bool, flush func()) error {
	if follow {
		// A waiter blocked in cond.Wait only re-checks its predicate on a
		// broadcast; wake it when the client disconnects.
		stop := context.AfterFunc(ctx, func() {
			j.mu.Lock()
			j.cond.Broadcast()
			j.mu.Unlock()
		})
		defer stop()
	}
	sent := 0
	for {
		j.mu.Lock()
		for follow && sent == len(j.recs) && !j.state.Terminal() && ctx.Err() == nil {
			j.cond.Wait()
		}
		batch := j.recs[sent:]
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, rec := range batch {
			if err := mc.AppendRecord(w, rec); err != nil {
				return err
			}
		}
		sent += len(batch)
		if flush != nil && len(batch) > 0 {
			flush()
		}
		if !follow || terminal {
			return nil
		}
	}
}

// store tracks all jobs the server has accepted, in submission order. Job
// IDs are a deterministic counter ("j1", "j2", …) so a replayed request
// sequence produces an identical API surface. Terminal jobs are bounded:
// beyond retain of them, the least-recently-touched are evicted to
// tombstones (their records stay servable from the journal).
type store struct {
	met *serverMetrics

	mu     sync.Mutex
	jobs   map[string]*jobState
	order  []string
	next   int
	retain int // max non-evicted terminal jobs; <= 0 means unlimited
	lru    []string
}

func newStore(retain int, met *serverMetrics) *store {
	return &store{met: met, jobs: map[string]*jobState{}, retain: retain}
}

// create registers a new queued job.
func (s *store) create(spec JobSpec, cancel context.CancelFunc) *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	id := fmt.Sprintf("j%d", s.next)
	j := newJobState(id, spec, cancel, s.met)
	s.jobs[id] = j
	s.order = append(s.order, id)
	return j
}

// setNext seeds the ID counter so newly created jobs never reuse an ID
// the journal has ever issued — including deleted ones: a reused ID's
// submit entry would sit after its delete entry in the journal, and
// replay would silently drop the new job.
func (s *store) setNext(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > s.next {
		s.next = n
	}
}

// restore re-registers a replayed job under its original ID, keeping the
// ID counter ahead of every restored job. Only called during New, before
// any request can race it.
func (s *store) restore(id string, spec JobSpec, cancel context.CancelFunc) *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int
	if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n > s.next {
		s.next = n
	}
	j := newJobState(id, spec, cancel, s.met)
	s.jobs[id] = j
	s.order = append(s.order, id)
	return j
}

// noteTerminal registers a terminal transition with the retention LRU,
// evicting the least-recently-touched terminal jobs beyond the cap.
func (s *store) noteTerminal(id string) {
	s.mu.Lock()
	var evict []*jobState
	if _, ok := s.jobs[id]; ok {
		s.lru = append(s.lru, id)
	}
	if s.retain > 0 {
		for len(s.lru) > s.retain {
			if j, ok := s.jobs[s.lru[0]]; ok {
				evict = append(evict, j)
			}
			s.lru = s.lru[1:]
		}
	}
	s.mu.Unlock()
	for _, j := range evict {
		j.evict()
	}
}

// touch refreshes a job's position in the retention LRU.
func (s *store) touch(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, other := range s.lru {
		if other == id {
			s.lru = append(append(s.lru[:i:i], s.lru[i+1:]...), id)
			return
		}
	}
}

// deleteTerminal removes a terminal job entirely. It reports whether the
// job existed and, if so, whether it was terminal (non-terminal jobs are
// not deletable — cancel first).
func (s *store) deleteTerminal(id string) (found, deleted bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return false, false
	}
	if !j.info().State.Terminal() {
		return true, false
	}
	delete(s.jobs, id)
	for i, other := range s.order {
		if other == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	for i, other := range s.lru {
		if other == id {
			s.lru = append(s.lru[:i], s.lru[i+1:]...)
			break
		}
	}
	j.forget()
	return true, true
}

// remove forgets a job that was never admitted (queue-full rollback), so
// a rejected submission leaves no trace and no dangling ID.
func (s *store) remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return
	}
	delete(s.jobs, id)
	for i, other := range s.order {
		if other == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	j.forget()
}

// get looks a job up by ID.
func (s *store) get(id string) (*jobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// list snapshots all jobs in submission order.
func (s *store) list() []JobInfo {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*jobState, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobInfo, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.info())
	}
	return out
}

// cancelAll requests cancellation of every job (server shutdown).
func (s *store) cancelAll() {
	s.mu.Lock()
	jobs := make([]*jobState, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.requestCancel(false)
	}
}
