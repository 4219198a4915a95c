package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"plurality/internal/service"
)

// journalFS wraps the filesystem the service journals to and times every
// Write and Sync from outside, passed in as service.Options.FS.
// Writes are attributed to jobs by the records-file path, and meta
// journal writes by the job id inside the entry; a Sync is attributed to
// the job whose entry the file last received.
type journalFS struct {
	service.FS
	tr *tracer
	// prefix turns a job id into a trace id (job ids restart with every
	// server).
	prefix string
	armed  atomic.Bool

	mu             sync.Mutex
	syncs, written int64
}

func newJournalFS(fs service.FS, tr *tracer, prefix string) *journalFS {
	return &journalFS{FS: fs, tr: tr, prefix: prefix}
}

func (fs *journalFS) OpenAppend(path string) (service.File, error) {
	f, err := fs.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	job := ""
	if filepath.Base(filepath.Dir(path)) == "records" {
		job = strings.TrimSuffix(filepath.Base(path), ".jsonl")
	}
	return &journalFile{File: f, fs: fs, job: job}, nil
}

type journalFile struct {
	service.File
	fs  *journalFS
	job string // fixed for a records file; the last entry's job for the meta journal
}

func (f *journalFile) Write(p []byte) (int, error) {
	if !f.fs.armed.Load() {
		return f.File.Write(p)
	}
	if id := entryJob(p); id != "" {
		f.job = id
	}
	sp := f.fs.tr.start("journal.write", f.fs.prefix+f.job, -1)
	n, err := f.File.Write(p)
	f.fs.tr.end(sp)
	f.fs.mu.Lock()
	f.fs.written += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *journalFile) Sync() error {
	if !f.fs.armed.Load() {
		return f.File.Sync()
	}
	sp := f.fs.tr.start("journal.fsync", f.fs.prefix+f.job, -1)
	err := f.File.Sync()
	f.fs.tr.end(sp)
	f.fs.mu.Lock()
	f.fs.syncs++
	f.fs.mu.Unlock()
	return err
}

// counts returns the syncs and bytes written seen while armed.
func (fs *journalFS) counts() (syncs, written int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.syncs, fs.written
}

// entryJob extracts the job id of a meta journal entry ("" for records
// and for entries naming no job).
func entryJob(p []byte) string {
	const key = `"id":"`
	i := bytes.Index(p, []byte(key))
	if i < 0 {
		return ""
	}
	rest := p[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// attachJournal gives every journal span (recorded with parent -1, since
// the server's goroutine cannot know which client call it serves) the
// innermost client span of the same job that contains it. Spans outside
// all of them ran off the client's blocking path, after its record
// stream ended; they keep parent -1 and stay out of the self-time
// accounting.
func attachJournal(spans []span) (offPath int) {
	byTrace := map[string][]int{}
	for i, s := range spans {
		if s.Parent >= 0 && !strings.HasPrefix(s.Name, "journal.") {
			byTrace[s.Trace] = append(byTrace[s.Trace], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != -1 {
			continue
		}
		best := -1
		for _, ci := range byTrace[s.Trace] {
			c := spans[ci]
			if c.Start <= s.Start && s.End <= c.End && (best < 0 || c.dur() < spans[best].dur()) {
				best = ci
			}
		}
		if best < 0 {
			offPath++
			continue
		}
		s.Parent = spans[best].ID
	}
	return offPath
}

// memFS is an in-memory service.FS: the journal's files live in process
// memory and Sync returns at once, like a tmpfs. The benchmark journals
// here rather than to the checkout's disk, whose fsync latency drifts by
// tens of percent within a run on shared virtual disks (see
// metrics.json, journal_fs); every journal code path above the FS seam
// still runs.
type memFS struct {
	mu    sync.Mutex
	files map[string]*bytes.Buffer
}

func newMemFS() *memFS { return &memFS{files: map[string]*bytes.Buffer{}} }

func (m *memFS) MkdirAll(string) error { return nil }

func (m *memFS) OpenAppend(path string) (service.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[path] == nil {
		m.files[path] = &bytes.Buffer{}
	}
	return memFile{fs: m, path: path}, nil
}

func (m *memFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[path]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: path, Err: os.ErrNotExist}
	}
	return bytes.Clone(b.Bytes()), nil
}

func (m *memFS) Truncate(path string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[path]
	if !ok {
		return &os.PathError{Op: "truncate", Path: path, Err: os.ErrNotExist}
	}
	b.Truncate(int(size))
	return nil
}

func (m *memFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, path)
	return nil
}

// memFile appends to one memFS file.
type memFile struct {
	fs   *memFS
	path string
}

func (f memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	b, ok := f.fs.files[f.path]
	if !ok {
		return 0, &os.PathError{Op: "write", Path: f.path, Err: os.ErrNotExist}
	}
	return b.Write(p)
}

func (memFile) Sync() error  { return nil }
func (memFile) Close() error { return nil }
