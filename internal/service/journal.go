package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"plurality/internal/mc"
)

// The durable job journal. Everything the daemon must not forget lives
// in two kinds of append-only JSONL files under the data directory:
//
//	<data-dir>/journal.jsonl      the meta journal: one entry per job
//	                              submission, state transition, delete,
//	                              and clean-shutdown marker
//	<data-dir>/records/<id>.jsonl the job's per-replicate records, in
//	                              the exact mc JSONL format — so the mc
//	                              resume machinery is the replay reader
//
// Durability contract (see DESIGN.md §9):
//
//   - Submissions and terminal transitions are fsynced immediately; the
//     "running" transition is appended without an fsync (losing it only
//     replays the job as queued, which is harmless).
//   - Record appends are fsynced every syncEvery records, and always
//     before the job's terminal meta entry — a journaled "done" implies
//     every record is on stable storage.
//   - A torn trailing write in any file (crash mid-append, OS crash
//     losing an unsynced tail) is recovered by truncating to the last
//     valid line on replay; the lost suffix is re-executed
//     deterministically, so the final record stream is byte-identical
//     to a crash-free run.
//   - Transient write failures are retried with exponential backoff;
//     each retry first repairs the file (truncate to the last known
//     good offset, reopen) so a partial write never leaves interior
//     garbage. Only after the whole retry budget is spent does the
//     error surface — latching the job to failed.

// File is one append-only journal file: the write/sync/close surface a
// fault-injection layer (internal/service/faultfs) can interpose on.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FS is the journal's filesystem seam. The default implementation is
// the real filesystem (OSFS); tests swap in faulty ones.
type FS interface {
	MkdirAll(dir string) error
	// OpenAppend opens path for appending, creating it if missing.
	OpenAppend(path string) (File, error)
	// ReadFile reads the whole file; a missing file returns an error
	// satisfying os.IsNotExist.
	ReadFile(path string) ([]byte, error)
	Truncate(path string, size int64) error
	Remove(path string) error
}

// OSFS returns the real-filesystem FS.
func OSFS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }
func (osFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}
func (osFS) ReadFile(path string) ([]byte, error)   { return os.ReadFile(path) }
func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }
func (osFS) Remove(path string) error               { return os.Remove(path) }

// journalEntry is one meta-journal line.
type journalEntry struct {
	// Type is "submit", "state", "delete" or "shutdown".
	Type string `json:"type"`
	// ID is the job the entry is about (absent on shutdown markers).
	ID string `json:"id,omitempty"`
	// Spec rides on submit entries: the canonical, normalized job spec.
	Spec *JobSpec `json:"spec,omitempty"`
	// State rides on state entries.
	State State `json:"state,omitempty"`
	// Error carries the failure/cancellation detail on terminal states.
	Error string `json:"error,omitempty"`
}

// jobID pins the set of ids the journal will touch the filesystem for:
// ids are server-generated ("j1", "j2", …), and replay refuses anything
// else so a tampered journal can never name a path outside records/.
var jobID = regexp.MustCompile(`^j[1-9][0-9]*$`)

// errJournalClosed latches appends attempted after shutdown.
var errJournalClosed = errors.New("service: journal is closed")

// retryPolicy bounds the transient-failure retries of journal writes.
type retryPolicy struct {
	attempts int
	backoff  time.Duration
}

// do runs op up to attempts times; after each failure it calls repair
// (fix the file so the retry starts from a clean state) and sleeps an
// exponentially growing backoff. The last error is returned once the
// budget is spent.
func (p retryPolicy) do(op func() error, repair func()) error {
	var err error
	backoff := p.backoff
	for a := 0; a < p.attempts; a++ {
		if a > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if err = op(); err == nil {
			return nil
		}
		if repair != nil {
			repair()
		}
	}
	return err
}

// recAppender is one job's open records file.
type recAppender struct {
	mu      sync.Mutex
	f       File
	path    string
	valid   int64 // bytes of complete, well-formed lines known to be on disk
	pending int   // appends since the last Sync
	// broken marks a failed repair (f is closed, the file may carry a
	// torn tail); the next append must re-repair before writing.
	broken bool
}

// repair truncates the records file to its last known-good offset and
// reopens the append handle. The caller holds ra.mu and has already
// closed the old handle.
func (ra *recAppender) repair(fs FS) error {
	if err := fs.Truncate(ra.path, ra.valid); err != nil {
		return err
	}
	f, err := fs.OpenAppend(ra.path)
	if err != nil {
		return err
	}
	ra.f = f
	return nil
}

// journal is the daemon's durable job store.
type journal struct {
	fs        FS
	dir       string
	syncEvery int
	retry     retryPolicy
	// met counts fsyncs, durable bytes and repairs; set by the server
	// right after openJournal (all methods are nil-safe before that).
	met *serverMetrics

	closed atomic.Bool

	mu        sync.Mutex // guards meta file state and the appender map
	meta      File
	metaValid int64
	// metaBroken marks a failed meta repair (meta is closed, the file
	// may carry a torn tail); the next append must re-repair first.
	metaBroken bool
	recs       map[string]*recAppender
	recValid   map[string]int64 // valid byte length of records files found at replay
}

func (jr *journal) metaPath() string   { return filepath.Join(jr.dir, "journal.jsonl") }
func (jr *journal) recordsDir() string { return filepath.Join(jr.dir, "records") }
func (jr *journal) recordsPath(id string) string {
	return filepath.Join(jr.recordsDir(), id+".jsonl")
}

// replayedJob is one job reconstructed from the journal: its spec, last
// journaled state, and the intact, seed-validated record prefix already
// on disk.
type replayedJob struct {
	id      string
	spec    JobSpec
	state   State
	err     error
	records []mc.Record
}

// replayState is everything openJournal learned from the data dir.
type replayState struct {
	jobs []*replayedJob // in journal (≈ submission) order
	next int            // highest numeric job id ever journaled
	// clean reports whether the journal's last entry is a clean-shutdown
	// marker (the previous process fully drained before exiting).
	clean bool
	// dropped counts semantically invalid entries that were skipped and
	// truncated counts bytes of torn/corrupt tails cut from files.
	dropped   int
	truncated int64
}

// openJournal replays the data directory and returns the journal ready
// for appending plus the replayed jobs. Only real I/O failures are
// errors: every corruption shape (torn tails, interior garbage, bogus
// entries, foreign records) degrades to truncation or skipping, never a
// panic or a wedged daemon.
func openJournal(fs FS, dir string, syncEvery int, retry retryPolicy) (*journal, *replayState, error) {
	jr := &journal{
		fs:        fs,
		dir:       dir,
		syncEvery: syncEvery,
		retry:     retry,
		recs:      map[string]*recAppender{},
		recValid:  map[string]int64{},
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("service: journal dir: %w", err)
	}
	if err := fs.MkdirAll(jr.recordsDir()); err != nil {
		return nil, nil, fmt.Errorf("service: records dir: %w", err)
	}
	rs, metaValid, err := jr.replayMeta()
	if err != nil {
		return nil, nil, err
	}
	jr.metaValid = metaValid
	for _, rj := range rs.jobs {
		if err := jr.loadRecords(rj, rs); err != nil {
			return nil, nil, err
		}
	}
	meta, err := fs.OpenAppend(jr.metaPath())
	if err != nil {
		return nil, nil, fmt.Errorf("service: open journal: %w", err)
	}
	jr.meta = meta
	return jr, rs, nil
}

// replayMeta parses the meta journal: the longest prefix of complete,
// well-formed lines is applied (semantically bogus entries are skipped),
// and a torn or corrupt tail is truncated away on disk so subsequent
// appends extend a clean line boundary.
func (jr *journal) replayMeta() (*replayState, int64, error) {
	rs := &replayState{}
	data, err := jr.fs.ReadFile(jr.metaPath())
	if err != nil {
		if os.IsNotExist(err) {
			return rs, 0, nil
		}
		return nil, 0, fmt.Errorf("service: read journal: %w", err)
	}
	byID := map[string]*replayedJob{}
	deleted := map[string]bool{}
	var valid int64
	for int(valid) < len(data) {
		rest := data[valid:]
		nl := -1
		for i, b := range rest {
			if b == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			break // torn trailing write
		}
		line := rest[:nl]
		if len(line) > 0 {
			var e journalEntry
			if err := json.Unmarshal(line, &e); err != nil {
				break // corrupt line: discard it and everything after
			}
			rs.applyEntry(e, byID, deleted)
		}
		valid += int64(nl) + 1
	}
	rs.truncated += int64(len(data)) - valid
	if int(valid) < len(data) {
		if err := jr.fs.Truncate(jr.metaPath(), valid); err != nil {
			return nil, 0, fmt.Errorf("service: truncate torn journal tail: %w", err)
		}
	}
	// Drop deleted jobs from the replay set, preserving order.
	kept := rs.jobs[:0]
	for _, rj := range rs.jobs {
		if !deleted[rj.id] {
			kept = append(kept, rj)
		}
	}
	rs.jobs = kept
	return rs, valid, nil
}

// applyEntry folds one well-formed entry into the replay state. Entries
// that don't make sense (unknown ids, invalid specs, malformed ids) are
// counted and skipped — replay must make progress on any input. The one
// invalid spec kept is a submit that is valid except for naming a retired
// sampler: it was an acknowledged job, so it comes back as terminal
// failed with ErrUnsupportedSampler instead of vanishing. Later state entries cannot
// revive it, and loadRecords cuts its records, which carry the retired
// sampler's name suffix.
func (rs *replayState) applyEntry(e journalEntry, byID map[string]*replayedJob, deleted map[string]bool) {
	clean := false
	defer func() { rs.clean = clean }()
	switch e.Type {
	case "submit":
		if e.Spec == nil || !jobID.MatchString(e.ID) || byID[e.ID] != nil || deleted[e.ID] {
			rs.dropped++
			return
		}
		spec := *e.Spec
		spec.Normalize()
		runnable := spec
		runnable.Sampler = "default"
		if runnable.Validate() != nil {
			rs.dropped++
			return
		}
		var n int
		fmt.Sscanf(e.ID, "j%d", &n)
		if n > rs.next {
			rs.next = n
		}
		rj := &replayedJob{id: e.ID, spec: spec, state: StateQueued}
		if err := spec.Validate(); err != nil { // only the sampler is left to fail
			rj.state, rj.err = StateFailed, err
		}
		byID[e.ID] = rj
		rs.jobs = append(rs.jobs, rj)
	case "state":
		rj := byID[e.ID]
		switch e.State {
		case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		default:
			rj = nil
		}
		if rj == nil {
			rs.dropped++
			return
		}
		if errors.Is(rj.err, ErrUnsupportedSampler) {
			return
		}
		rj.state, rj.err = e.State, nil
		if e.Error != "" {
			rj.err = errors.New(e.Error)
		}
	case "delete":
		if byID[e.ID] == nil {
			rs.dropped++
			return
		}
		deleted[e.ID] = true
		delete(byID, e.ID)
	case "shutdown":
		clean = true
	default:
		rs.dropped++
	}
}

// loadRecords reads a replayed job's records file, keeps the longest
// prefix that is well-formed, contiguous (rep i on line i), stamped with
// the job's canonical name, and carries the job's derived seeds — and
// truncates the file to that prefix so appends resume cleanly. Anything
// cut is re-executed; nothing wrong is ever trusted.
func (jr *journal) loadRecords(rj *replayedJob, rs *replayState) error {
	path := jr.recordsPath(rj.id)
	data, err := jr.fs.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("service: read records of %s: %w", rj.id, err)
	}
	recs, ends := mc.ScanRecords(data)
	seeds := mc.RepSeeds(rj.spec.Seed, rj.spec.Replicates)
	name := rj.spec.Name()
	keep := 0
	for keep < len(recs) && keep < len(seeds) &&
		recs[keep].Rep == keep && recs[keep].Seed == seeds[keep] && recs[keep].Job == name {
		keep++
	}
	valid := int64(0)
	if keep > 0 {
		valid = ends[keep-1]
	}
	rs.truncated += int64(len(data)) - valid
	if valid < int64(len(data)) {
		if err := jr.fs.Truncate(path, valid); err != nil {
			return fmt.Errorf("service: truncate records of %s: %w", rj.id, err)
		}
	}
	rj.records = recs[:keep]
	jr.mu.Lock()
	jr.recValid[rj.id] = valid
	jr.mu.Unlock()
	return nil
}

// repairMeta truncates the meta journal to its last known-good offset
// and reopens the append handle. The caller holds jr.mu and has already
// closed the old handle.
func (jr *journal) repairMeta() error {
	if err := jr.fs.Truncate(jr.metaPath(), jr.metaValid); err != nil {
		return err
	}
	f, err := jr.fs.OpenAppend(jr.metaPath())
	if err != nil {
		return err
	}
	jr.meta = f
	return nil
}

// appendMeta journals one entry, retrying transient failures with the
// file repaired (truncated to the last good offset and reopened) between
// attempts. sync forces an fsync after the append.
func (jr *journal) appendMeta(e journalEntry, sync bool) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	jr.mu.Lock()
	defer jr.mu.Unlock()
	if jr.closed.Load() {
		return errJournalClosed
	}
	op := func() error {
		if jr.metaBroken {
			// A previous repair failed and the handle is closed; finish the
			// repair before writing so the real truncate/open error
			// surfaces instead of "file already closed".
			if err := jr.repairMeta(); err != nil {
				return err
			}
			jr.metaBroken = false
		}
		if _, err := jr.meta.Write(b); err != nil {
			return err
		}
		if sync {
			return jr.meta.Sync()
		}
		return nil
	}
	repair := func() {
		if jr.closed.Load() {
			return
		}
		jr.met.journalRepair()
		jr.meta.Close()
		jr.metaBroken = jr.repairMeta() != nil
	}
	if err := jr.retry.do(op, repair); err != nil {
		return fmt.Errorf("service: journal append: %w", err)
	}
	jr.metaValid += int64(len(b))
	jr.met.journalWrote(len(b))
	if sync {
		jr.met.journalFsync()
	}
	return nil
}

// submit journals a job submission (fsynced before the caller admits
// the job, so an acknowledged job is never forgotten).
func (jr *journal) submit(id string, spec JobSpec) error {
	return jr.appendMeta(journalEntry{Type: "submit", ID: id, Spec: &spec}, true)
}

// state journals a transition. Terminal states are fsynced; "running"
// is not (losing it replays the job as queued — harmless).
func (jr *journal) state(id string, st State, errmsg string) error {
	return jr.appendMeta(journalEntry{Type: "state", ID: id, State: st, Error: errmsg}, st.Terminal())
}

// appender returns the job's records appender, opening the file lazily.
func (jr *journal) appender(id string) (*recAppender, error) {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	if jr.closed.Load() {
		return nil, errJournalClosed
	}
	ra := jr.recs[id]
	if ra == nil {
		path := jr.recordsPath(id)
		f, err := jr.fs.OpenAppend(path)
		if err != nil {
			return nil, err
		}
		ra = &recAppender{f: f, path: path, valid: jr.recValid[id]}
		jr.recs[id] = ra
	}
	return ra, nil
}

// appendRecord appends one replicate record to the job's records file,
// fsync-batched every syncEvery appends. Transient failures are retried
// with the file truncated back to its last good line between attempts,
// so a partial append can never leave interior garbage.
func (jr *journal) appendRecord(id string, rec mc.Record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	ra, err := jr.appender(id)
	if err != nil {
		return err
	}
	ra.mu.Lock()
	defer ra.mu.Unlock()
	op := func() error {
		if jr.closed.Load() {
			return errJournalClosed
		}
		if ra.broken {
			// Same as appendMeta: finish the failed repair first so the
			// real error surfaces, not "file already closed".
			if err := ra.repair(jr.fs); err != nil {
				return err
			}
			ra.broken = false
		}
		if _, err := ra.f.Write(b); err != nil {
			return err
		}
		return nil
	}
	repair := func() {
		if jr.closed.Load() {
			return
		}
		jr.met.journalRepair()
		ra.f.Close()
		ra.broken = ra.repair(jr.fs) != nil
	}
	if err := jr.retry.do(op, repair); err != nil {
		return fmt.Errorf("service: journal records of %s: %w", id, err)
	}
	ra.valid += int64(len(b))
	jr.met.journalWrote(len(b))
	ra.pending++
	if ra.pending >= jr.syncEvery {
		if err := jr.retry.do(func() error { return ra.f.Sync() }, nil); err != nil {
			return fmt.Errorf("service: journal records sync of %s: %w", id, err)
		}
		ra.pending = 0
		jr.met.journalFsync()
	}
	return nil
}

// jobTerminal records a terminal transition: the job's records file is
// fsynced and closed first, then the terminal meta entry is fsynced —
// so a journaled terminal state implies every record is durable.
func (jr *journal) jobTerminal(id string, st State, errmsg string) error {
	jr.mu.Lock()
	ra := jr.recs[id]
	delete(jr.recs, id)
	if ra != nil {
		jr.recValid[id] = ra.valid
	}
	jr.mu.Unlock()
	if ra != nil {
		ra.mu.Lock()
		err := jr.retry.do(func() error { return ra.f.Sync() }, nil)
		ra.f.Close()
		ra.mu.Unlock()
		if err != nil {
			return fmt.Errorf("service: journal records sync of %s: %w", id, err)
		}
		jr.met.journalFsync()
	}
	return jr.state(id, st, errmsg)
}

// readRecords returns the raw bytes of a job's records file (empty for
// a job that never produced one), for serving evicted jobs' records.
func (jr *journal) readRecords(id string) ([]byte, error) {
	data, err := jr.fs.ReadFile(jr.recordsPath(id))
	if os.IsNotExist(err) {
		return nil, nil
	}
	return data, err
}

// deleteJob journals a delete entry and removes the records file.
func (jr *journal) deleteJob(id string) error {
	jr.mu.Lock()
	ra := jr.recs[id]
	delete(jr.recs, id)
	delete(jr.recValid, id)
	jr.mu.Unlock()
	if ra != nil {
		ra.mu.Lock()
		ra.f.Close()
		ra.mu.Unlock()
	}
	if err := jr.appendMeta(journalEntry{Type: "delete", ID: id}, true); err != nil {
		return err
	}
	if err := jr.fs.Remove(jr.recordsPath(id)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// close syncs and closes every open file. With clean set it first
// appends the clean-shutdown marker — only a fully drained daemon may
// pass clean=true. Idempotent; appends racing close surface
// errJournalClosed.
func (jr *journal) close(clean bool) {
	if jr.closed.Load() {
		return
	}
	if clean {
		// Best-effort: a failed marker write just means the next start
		// replays (and finds nothing to do).
		_ = jr.appendMeta(journalEntry{Type: "shutdown"}, false)
	}
	jr.mu.Lock()
	if jr.closed.Swap(true) {
		jr.mu.Unlock()
		return
	}
	ras := make([]*recAppender, 0, len(jr.recs))
	for _, ra := range jr.recs {
		ras = append(ras, ra)
	}
	jr.recs = map[string]*recAppender{}
	meta := jr.meta
	jr.mu.Unlock()
	for _, ra := range ras {
		ra.mu.Lock()
		_ = ra.f.Sync()
		_ = ra.f.Close()
		ra.mu.Unlock()
	}
	if meta != nil {
		_ = meta.Sync()
		_ = meta.Close()
	}
}
