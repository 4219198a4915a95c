package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"plurality/internal/mc"
)

// newTestServer wires a Server into an httptest listener with cleanup in
// the right order (listener first, then job machinery).
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		s.store.cancelAll() // unblock in-flight handlers before closing the listener
		ts.Close()
		s.Close()
	})
	return s, ts
}

// smallSpec is an O(k)-per-round job that finishes in milliseconds.
func smallSpec() JobSpec {
	return JobSpec{N: 100_000, K: 8, Seed: 3, Replicates: 5, MaxRounds: 2000}
}

// slowSpec is a job whose replicates are individually fast (so
// cancellation drains quickly) but numerous enough that the job never
// finishes within a test: the agent-sampling engine on a balanced
// two-color population burns its whole round budget every replicate.
func slowSpec() JobSpec {
	return JobSpec{Rule: "3majority", Engine: "sampled", N: 50_000, K: 2,
		Bias: "0", Seed: 11, Replicates: MaxReplicates, MaxRounds: 20}
}

// postJob submits a spec and decodes the response body.
func postJob(t *testing.T, ts *httptest.Server, spec JobSpec, query string) (int, JobInfo, string) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var info JobInfo
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &info); err != nil {
			t.Fatalf("bad %d response body %q: %v", resp.StatusCode, raw, err)
		}
	}
	return resp.StatusCode, info, string(raw)
}

// getJob polls a job snapshot once.
func getJob(t *testing.T, ts *httptest.Server, id string) JobInfo {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var info JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// waitFor polls until pred holds or the deadline expires.
func waitFor(t *testing.T, ts *httptest.Server, id string, what string, pred func(JobInfo) bool) JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		info := getJob(t, ts, id)
		if pred(info) {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s (state %s, %d records)", id, what, info.State, info.Records)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fetchRecords downloads a job's JSONL and parses it.
func fetchRecords(t *testing.T, ts *httptest.Server, id, query string) ([]byte, []mc.Record) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/records" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET records %s: status %d", id, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := mc.ReadRecords(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return raw, recs
}

func cancelJob(t *testing.T, ts *httptest.Server, id string) JobInfo {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs/"+id+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel %s: status %d", id, resp.StatusCode)
	}
	var info JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func TestSyncSubmitReturnsTerminalJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	status, info, raw := postJob(t, ts, smallSpec(), "?wait=1")
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, raw)
	}
	if info.State != StateDone {
		t.Fatalf("state %s, want done", info.State)
	}
	if info.Records != smallSpec().Replicates {
		t.Fatalf("records %d, want %d", info.Records, smallSpec().Replicates)
	}
	if info.Aggregate == nil {
		t.Fatal("terminal job has no aggregate")
	}
	if agg := info.Aggregate; agg.Replicates != info.Records ||
		agg.SuccessRate < 0 || agg.SuccessRate > 1 ||
		agg.WilsonLo > agg.SuccessRate || agg.WilsonHi < agg.SuccessRate ||
		agg.Rounds.Mean <= 0 {
		t.Fatalf("implausible aggregate %+v", agg)
	}
	// The records endpoint agrees with the snapshot.
	_, recs := fetchRecords(t, ts, info.ID, "")
	if len(recs) != info.Records {
		t.Fatalf("JSONL has %d records, snapshot says %d", len(recs), info.Records)
	}
	seeds := mc.RepSeeds(smallSpec().Seed, smallSpec().Replicates)
	for i, rec := range recs {
		if rec.Rep != i || rec.Seed != seeds[i] || rec.Job != info.Name {
			t.Fatalf("record %d not normalized: %+v", i, rec)
		}
	}
}

func TestAutoRoutingByCost(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	// Small cost → synchronous 200.
	status, info, raw := postJob(t, ts, smallSpec(), "")
	if status != http.StatusOK || !info.State.Terminal() {
		t.Fatalf("small job: status %d state %s (%s)", status, info.State, raw)
	}
	// Large cost → 202 queued/running.
	status, info, raw = postJob(t, ts, slowSpec(), "")
	if status != http.StatusAccepted {
		t.Fatalf("large job: status %d (%s)", status, raw)
	}
	if info.State.Terminal() {
		t.Fatalf("large job already terminal: %s", info.State)
	}
	cancelJob(t, ts, info.ID)
	waitFor(t, ts, info.ID, "terminal", func(i JobInfo) bool { return i.State.Terminal() })
}

func TestAsyncSubmitPollFetch(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	spec := smallSpec()
	status, info, raw := postJob(t, ts, spec, "?wait=0")
	if status != http.StatusAccepted {
		t.Fatalf("status %d, body %s", status, raw)
	}
	done := waitFor(t, ts, info.ID, "done", func(i JobInfo) bool { return i.State == StateDone })
	if done.Records != spec.Replicates || done.Aggregate == nil {
		t.Fatalf("done job: %d records, aggregate %v", done.Records, done.Aggregate)
	}
	_, recs := fetchRecords(t, ts, info.ID, "")
	if len(recs) != spec.Replicates {
		t.Fatalf("JSONL has %d records, want %d", len(recs), spec.Replicates)
	}
}

// TestRecordsByteIdenticalAcrossWorkersAndPaths is the acceptance-
// criteria determinism proof: the same spec produces byte-identical
// JSONL whether it runs synchronously or asynchronously, on a 1-worker
// or a 3-worker pool.
func TestRecordsByteIdenticalAcrossWorkersAndPaths(t *testing.T) {
	spec := JobSpec{Rule: "3majority", Engine: "sampled", N: 20_000, K: 3,
		Seed: 21, Replicates: 6, MaxRounds: 5000}
	var want []byte
	check := func(raw []byte, label string) {
		t.Helper()
		if want == nil {
			want = raw
			return
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("%s records differ from the first run", label)
		}
	}
	for _, workers := range []int{1, 3} {
		_, ts := newTestServer(t, Options{Workers: workers})
		status, info, raw := postJob(t, ts, spec, "?wait=1")
		if status != http.StatusOK {
			t.Fatalf("workers=%d sync: status %d (%s)", workers, status, raw)
		}
		rawRecs, recs := fetchRecords(t, ts, info.ID, "")
		if len(recs) != spec.Replicates {
			t.Fatalf("workers=%d sync: %d records", workers, len(recs))
		}
		check(rawRecs, fmt.Sprintf("workers=%d sync", workers))

		status, info, raw = postJob(t, ts, spec, "?wait=0")
		if status != http.StatusAccepted {
			t.Fatalf("workers=%d async: status %d (%s)", workers, status, raw)
		}
		waitFor(t, ts, info.ID, "done", func(i JobInfo) bool { return i.State == StateDone })
		rawRecs, _ = fetchRecords(t, ts, info.ID, "")
		check(rawRecs, fmt.Sprintf("workers=%d async", workers))
	}
}

func TestCancelMidRun(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Executors: 1})
	status, info, raw := postJob(t, ts, slowSpec(), "?wait=0")
	if status != http.StatusAccepted {
		t.Fatalf("status %d (%s)", status, raw)
	}
	// Wait until the job is demonstrably mid-run: running, with at least
	// one replicate completed and streamed.
	waitFor(t, ts, info.ID, "mid-run", func(i JobInfo) bool {
		return i.State == StateRunning && i.Records >= 1
	})
	cancelJob(t, ts, info.ID)
	final := waitFor(t, ts, info.ID, "terminal", func(i JobInfo) bool { return i.State.Terminal() })
	if final.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", final.State)
	}
	if final.Records == 0 || final.Records >= slowSpec().Replicates {
		t.Fatalf("cancelled with %d records, want a proper partial prefix", final.Records)
	}
	if final.Aggregate == nil || final.Aggregate.Replicates != final.Records {
		t.Fatalf("partial aggregate %+v does not match %d records", final.Aggregate, final.Records)
	}
	// The partial records are still the deterministic replicate prefix.
	_, recs := fetchRecords(t, ts, info.ID, "")
	seeds := mc.RepSeeds(slowSpec().Seed, slowSpec().Replicates)
	for i, rec := range recs {
		if rec.Rep != i || rec.Seed != seeds[i] {
			t.Fatalf("record %d is not the replicate prefix: %+v", i, rec)
		}
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Executors: 1, Backlog: 2})
	_, blocking, _ := postJob(t, ts, slowSpec(), "?wait=0")
	waitFor(t, ts, blocking.ID, "running", func(i JobInfo) bool { return i.State == StateRunning })

	_, queued, _ := postJob(t, ts, slowSpec(), "?wait=0")
	if got := getJob(t, ts, queued.ID); got.State != StateQueued {
		t.Fatalf("second job state %s, want queued behind the single executor", got.State)
	}
	info := cancelJob(t, ts, queued.ID)
	if info.State != StateCancelled || info.Records != 0 {
		t.Fatalf("cancelled queued job: state %s, %d records", info.State, info.Records)
	}
	cancelJob(t, ts, blocking.ID)
	waitFor(t, ts, blocking.ID, "terminal", func(i JobInfo) bool { return i.State.Terminal() })
}

func TestQueueFull429(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Executors: 1, Backlog: 1})
	_, running, _ := postJob(t, ts, slowSpec(), "?wait=0")
	waitFor(t, ts, running.ID, "running", func(i JobInfo) bool { return i.State == StateRunning })
	_, queued, _ := postJob(t, ts, slowSpec(), "?wait=0")

	status, _, raw := postJob(t, ts, slowSpec(), "?wait=0")
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d (%s), want 429", status, raw)
	}
	if !strings.Contains(raw, "backlog") {
		t.Fatalf("429 body %q does not explain the backlog", raw)
	}
	// The rejected job left no trace.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []JobInfo `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 2 {
		t.Fatalf("listing has %d jobs after a rejected submit, want 2", len(listing.Jobs))
	}
	for _, id := range []string{running.ID, queued.ID} {
		cancelJob(t, ts, id)
		waitFor(t, ts, id, "terminal", func(i JobInfo) bool { return i.State.Terminal() })
	}
	// With the backlog drained, submissions are admitted again.
	status, info, raw := postJob(t, ts, slowSpec(), "?wait=0")
	if status != http.StatusAccepted {
		t.Fatalf("post-drain submit: status %d (%s)", status, raw)
	}
	cancelJob(t, ts, info.ID)
}

func TestSyncSlotsFull429(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxSync: 1})
	type result struct {
		status int
		info   JobInfo
	}
	ch := make(chan result, 1)
	go func() {
		var res result
		res.status, res.info, _ = postJob(t, ts, slowSpec(), "?wait=1")
		ch <- res
	}()
	// Wait until the sync job occupies the only slot.
	deadline := time.Now().Add(30 * time.Second)
	var blocking JobInfo
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		var listing struct {
			Jobs []JobInfo `json:"jobs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&listing)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(listing.Jobs) == 1 && listing.Jobs[0].State == StateRunning {
			blocking = listing.Jobs[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sync job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	status, _, raw := postJob(t, ts, smallSpec(), "?wait=1")
	if status != http.StatusTooManyRequests {
		t.Fatalf("second sync submit: status %d (%s), want 429", status, raw)
	}
	cancelJob(t, ts, blocking.ID)
	res := <-ch
	if res.status != http.StatusOK || res.info.State != StateCancelled {
		t.Fatalf("cancelled sync submit: status %d state %s", res.status, res.info.State)
	}
}

func TestFollowStreamsUntilTerminal(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	spec := JobSpec{Rule: "3majority", Engine: "sampled", N: 50_000, K: 2,
		Bias: "0", Seed: 5, Replicates: 8, MaxRounds: 20}
	status, info, raw := postJob(t, ts, spec, "?wait=0")
	if status != http.StatusAccepted {
		t.Fatalf("status %d (%s)", status, raw)
	}
	// follow=1 keeps the stream open until the job finishes; reading to
	// EOF therefore yields every record without any polling.
	rawRecs, recs := fetchRecords(t, ts, info.ID, "?follow=1")
	if len(recs) != spec.Replicates {
		t.Fatalf("followed stream has %d records, want %d", len(recs), spec.Replicates)
	}
	final := getJob(t, ts, info.ID)
	if final.State != StateDone {
		t.Fatalf("job state %s after follow EOF, want done", final.State)
	}
	snapshot, _ := fetchRecords(t, ts, info.ID, "")
	if !bytes.Equal(rawRecs, snapshot) {
		t.Fatal("followed stream differs from the terminal snapshot")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	bad := smallSpec()
	bad.K = 1
	status, _, raw := postJob(t, ts, bad, "")
	if status != http.StatusBadRequest || !strings.Contains(raw, "k must be") {
		t.Fatalf("invalid spec: status %d body %s", status, raw)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"n": 1000, "k": 4, "colour": "red"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "colour") {
		t.Fatalf("unknown field: status %d body %s", resp.StatusCode, body)
	}
	status, _, raw = postJob(t, ts, smallSpec(), "?wait=perhaps")
	if status != http.StatusBadRequest {
		t.Fatalf("bad wait param: status %d (%s)", status, raw)
	}
}

// TestSubmitRetiredSampler: a POST naming the retired batch sampler is a
// 400 carrying ErrUnsupportedSampler, not a job run under another
// discipline.
func TestSubmitRetiredSampler(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"engine":"graph","graph":"regular:6","n":64,"k":2,"sampler":"batch"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), ErrUnsupportedSampler.Error()) {
		t.Fatalf("batch sampler: status %d body %s", resp.StatusCode, body)
	}
}

func TestUnknownJob404(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, url := range []string{"/v1/jobs/nope", "/v1/jobs/nope/records"} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", url, resp.StatusCode)
		}
	}
}

func TestCancelTerminalJobIsIdempotent(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	status, info, _ := postJob(t, ts, smallSpec(), "?wait=1")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	after := cancelJob(t, ts, info.ID)
	if after.State != StateDone {
		t.Fatalf("cancelling a done job moved it to %s", after.State)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
		Backlog int    `json:"backlog"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.Workers != 2 {
		t.Fatalf("healthz %+v", body)
	}
}
