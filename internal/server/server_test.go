package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"splitmfg"
	"splitmfg/internal/cell"
	defengine "splitmfg/internal/defense/engine"
	"splitmfg/internal/netlist"
)

// newTestServer wires a manager and its handler into an httptest server,
// both torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m, ts
}

// smallRequest is a fast request of the given kind: one benchmark, one
// split layer, the cheap random attacker, and a shallow pattern depth.
func smallRequest(kind splitmfg.JobKind) splitmfg.JobRequest {
	req := splitmfg.JobRequest{
		Kind:         kind,
		Benchmark:    "c432",
		PatternWords: 4,
		SplitLayers:  []int{3},
		Attackers:    []string{"random"},
	}
	switch kind {
	case splitmfg.JobProtect:
		req.MaxAttempts = 1
	case splitmfg.JobMatrix, splitmfg.JobSuite:
		req.Defenses = []string{"pin-swapping"}
	}
	return req
}

func submit(t *testing.T, ts *httptest.Server, req splitmfg.JobRequest) Info {
	t.Helper()
	info, status := submitRaw(t, ts, req)
	if status != http.StatusAccepted {
		t.Fatalf("submit returned %d, want 202", status)
	}
	return info
}

func submitRaw(t *testing.T, ts *httptest.Server, req splitmfg.JobRequest) (Info, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info Info
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
	}
	return info, resp.StatusCode
}

// jobStatus is the status endpoint's response shape with the report kept
// raw for key-level assertions.
type jobStatus struct {
	Info
	Report json.RawMessage `json:"report"`
}

func getStatus(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s returned %d, want 200", id, resp.StatusCode)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal polls the status endpoint until the job reaches a terminal
// state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st := getStatus(t, ts, id)
		if st.State.terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after deadline", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getStats(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSubmitPollReport: every job kind round-trips submit → poll → report,
// and the report carries its kind's signature JSON keys.
func TestSubmitPollReport(t *testing.T) {
	_, ts := newTestServer(t, Config{Parallelism: 2, MaxRunning: 1})
	wantKeys := map[splitmfg.JobKind][]string{
		splitmfg.JobProtect:  {"erroneous_oer", "base_ppa", "final_ppa"},
		splitmfg.JobAttack:   {"attackers", "per_attacker"},
		splitmfg.JobEvaluate: {"attackers", "per_attacker"},
		splitmfg.JobMatrix:   {"design", "rows", "base_ppa"},
		splitmfg.JobSuite:    {"per_benchmark", "aggregate", "cache"},
	}
	for _, kind := range splitmfg.JobKinds() {
		t.Run(string(kind), func(t *testing.T) {
			info := submit(t, ts, smallRequest(kind))
			if info.State != StateQueued && info.State != StateRunning {
				t.Fatalf("submitted job in state %s", info.State)
			}
			st := waitTerminal(t, ts, info.ID)
			if st.State != StateDone {
				t.Fatalf("job ended %s (error %q), want done", st.State, st.Error)
			}
			if len(st.Report) == 0 {
				t.Fatal("done job has no report")
			}
			var rep map[string]any
			if err := json.Unmarshal(st.Report, &rep); err != nil {
				t.Fatalf("report is not a JSON object: %v", err)
			}
			for _, key := range wantKeys[kind] {
				if _, ok := rep[key]; !ok {
					t.Errorf("%s report lacks key %q", kind, key)
				}
			}
			if st.Events == 0 {
				t.Error("job recorded no progress events")
			}
		})
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	id    string
	name  string
	data  string
	event Event // decoded data for name == "progress"
}

// readSSE consumes a whole SSE stream (the server ends it after the
// terminal "done" event).
func readSSE(t *testing.T, ts *httptest.Server, id string) []sseEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events endpoint returned %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("events endpoint Content-Type = %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.name != "" {
				if cur.name == "progress" {
					if err := json.Unmarshal([]byte(cur.data), &cur.event); err != nil {
						t.Fatalf("bad progress payload %q: %v", cur.data, err)
					}
				}
				events = append(events, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestSSEOrderingMatchesDirectRun: the progress events streamed over SSE
// are exactly the events a direct pipeline run emits, in the same order —
// the stream is a faithful transcript, not a sample.
func TestSSEOrderingMatchesDirectRun(t *testing.T) {
	req := smallRequest(splitmfg.JobEvaluate)
	req.Parallelism = 1

	var want []splitmfg.ProgressEvent
	rec := func(ev splitmfg.ProgressEvent) { want = append(want, ev) }
	if _, err := req.Run(context.Background(),
		splitmfg.WithProgress(rec),
		splitmfg.WithParallelism(1)); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("direct run emitted no events")
	}

	// Parallelism 1 with one worker slot grants the job a share of 1, so
	// the server-side run is the same serial schedule as the direct one.
	_, ts := newTestServer(t, Config{Parallelism: 1, MaxRunning: 1})
	info := submit(t, ts, req)
	waitTerminal(t, ts, info.ID)

	events := readSSE(t, ts, info.ID)
	if len(events) == 0 {
		t.Fatal("SSE stream empty")
	}
	last := events[len(events)-1]
	if last.name != "done" {
		t.Fatalf("stream ended with %q, want done", last.name)
	}
	var final Info
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatalf("bad done payload: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("done event carries state %s", final.State)
	}
	progress := events[:len(events)-1]
	if len(progress) != len(want) {
		t.Fatalf("streamed %d progress events, direct run emitted %d", len(progress), len(want))
	}
	for i, ev := range progress {
		if ev.name != "progress" {
			t.Fatalf("event %d is %q, want progress", i, ev.name)
		}
		if ev.event.Seq != i || ev.id != fmt.Sprint(i) {
			t.Fatalf("event %d has seq %d / id %q", i, ev.event.Seq, ev.id)
		}
		w := want[i]
		if ev.event.Stage != string(w.Stage) || ev.event.Detail != w.Detail ||
			ev.event.Layer != w.Layer || ev.event.Attempt != w.Attempt {
			t.Fatalf("event %d = %+v, want stage %s layer %d attempt %d detail %q",
				i, ev.event, w.Stage, w.Layer, w.Attempt, w.Detail)
		}
	}
}

// routeRecorder is a test defense that records the route worker count
// each build is handed, then builds pin-swapping's layout.
type routeRecorder struct {
	mu   sync.Mutex
	seen []int
}

func (*routeRecorder) Name() string { return "test-route-recorder" }

func (r *routeRecorder) Protect(ctx context.Context, nl *netlist.Netlist, lib *cell.Library, opt defengine.Options) (*defengine.Protected, error) {
	r.mu.Lock()
	r.seen = append(r.seen, opt.RouteParallelism)
	r.mu.Unlock()
	d, _ := defengine.Lookup("pin-swapping")
	return d.Protect(ctx, nl, lib, opt)
}

// TestMatrixJobRoutesWithinShare: a job's parallelism share is its whole
// budget. A matrix job granted 4 workers builds its baseline and two
// defense rows at once, so each build routes with 4/3 = 1 worker rather
// than with the full share.
func TestMatrixJobRoutesWithinShare(t *testing.T) {
	rec := &routeRecorder{}
	defengine.Register(rec)
	_, ts := newTestServer(t, Config{Parallelism: 4, MaxRunning: 1})
	info := submit(t, ts, splitmfg.JobRequest{
		Kind:         splitmfg.JobMatrix,
		Benchmark:    "c432",
		PatternWords: 1,
		SplitLayers:  []int{3},
		Attackers:    []string{"random"},
		Defenses:     []string{rec.Name(), "pin-swapping"},
	})
	if st := waitTerminal(t, ts, info.ID); st.State != StateDone {
		t.Fatalf("matrix job ended %s: %s", st.State, st.Error)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.seen) != 1 || rec.seen[0] != 1 {
		t.Fatalf("defense builds routed with %v workers, want [1]", rec.seen)
	}
}

// TestCancelMidSuite: DELETE on a running suite returns 200 and the job
// lands in canceled, with the cancellation reflected by the status
// endpoint and the SSE done event.
func TestCancelMidSuite(t *testing.T) {
	_, ts := newTestServer(t, Config{Parallelism: 1, MaxRunning: 1})
	req := splitmfg.JobRequest{
		Kind:       splitmfg.JobSuite,
		Benchmarks: []string{"c432", "c880", "c1908"},
		Replicates: 3,
	}
	info := submit(t, ts, req)

	// Wait for real work to start so the cancel lands mid-run.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getStatus(t, ts, info.ID)
		if st.State == StateRunning && st.Events > 0 {
			break
		}
		if st.State.terminal() {
			t.Fatalf("suite finished (%s) before it could be canceled; enlarge the request", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("suite never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	httpReq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE returned %d, want 200", resp.StatusCode)
	}

	st := waitTerminal(t, ts, info.ID)
	if st.State != StateCanceled {
		t.Fatalf("job ended %s, want canceled", st.State)
	}
	if len(st.Report) != 0 {
		t.Fatal("canceled job has a report")
	}
	events := readSSE(t, ts, info.ID)
	if len(events) == 0 || events[len(events)-1].name != "done" {
		t.Fatal("canceled job's stream did not end with a done event")
	}
}

// TestConcurrentSubmitsShareCache: two identical jobs submitted
// back-to-back compute once — the second shares the first's report and the
// stats counters show the hit.
func TestConcurrentSubmitsShareCache(t *testing.T) {
	m, ts := newTestServer(t, Config{Parallelism: 2, MaxRunning: 2})
	req := smallRequest(splitmfg.JobMatrix)
	a := submit(t, ts, req)
	b := submit(t, ts, req)

	sa := waitTerminal(t, ts, a.ID)
	sb := waitTerminal(t, ts, b.ID)
	if sa.State != StateDone || sb.State != StateDone {
		t.Fatalf("jobs ended %s / %s, want done / done", sa.State, sb.State)
	}
	if !bytes.Equal(sa.Report, sb.Report) {
		t.Fatal("identical requests produced different reports")
	}
	stats := getStats(t, ts)
	if stats.Cache.Hits < 1 {
		t.Fatalf("cache hits = %d, want >= 1", stats.Cache.Hits)
	}
	if stats.Cache.Misses != 1 {
		t.Fatalf("cache misses = %d, want 1 (one computation)", stats.Cache.Misses)
	}
	if sa.CacheHit == sb.CacheHit {
		t.Fatalf("exactly one job should be a cache hit (got %v / %v)", sa.CacheHit, sb.CacheHit)
	}
	// The sharing job's event log says so.
	hitID := a.ID
	if sb.CacheHit {
		hitID = b.ID
	}
	job, ok := m.Get(hitID)
	if !ok {
		t.Fatal("hit job missing from registry")
	}
	found := false
	for _, ev := range job.log.snapshot() {
		found = found || ev.Stage == StageCached
	}
	if !found {
		t.Fatalf("cache-hit job's log lacks a %q event", StageCached)
	}
}

// TestBadRequestsRejected: malformed bodies and invalid requests are 400s
// with an error message; unknown jobs are 404s.
func TestBadRequestsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRunning: 1})
	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}
	if code, _ := post("{not json"); code != http.StatusBadRequest {
		t.Fatalf("malformed body returned %d, want 400", code)
	}
	if code, _ := post(`{"kind":"evaluate","benchmark":"c432","bogus_field":1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field returned %d, want 400", code)
	}
	// Route workers come out of the job's parallelism share; there is no
	// separate knob to pin them.
	if code, _ := post(`{"kind":"evaluate","benchmark":"c432","route_parallelism":2}`); code != http.StatusBadRequest {
		t.Fatalf("route_parallelism returned %d, want 400", code)
	}
	if code, msg := post(`{"kind":"bake","benchmark":"c432"}`); code != http.StatusBadRequest || msg == "" {
		t.Fatalf("unknown kind returned %d %q, want 400 with message", code, msg)
	}
	if code, msg := post(`{"kind":"evaluate","benchmark":"c432","fraction":-1}`); code != http.StatusBadRequest || !strings.Contains(msg, "WithFraction") {
		t.Fatalf("invalid option returned %d %q, want 400 naming WithFraction", code, msg)
	}
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/job-999999"},
		{http.MethodDelete, "/v1/jobs/job-999999"},
		{http.MethodGet, "/v1/jobs/job-999999/events"},
	} {
		req, err := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s returned %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// TestCatalogAndHealth: the discovery endpoints serve the benchmark
// catalog with published sizes, the registries, and liveness.
func TestCatalogAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRunning: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz returned %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cat catalogResponse
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	if len(cat.Benchmarks) != len(splitmfg.Benchmarks()) {
		t.Fatalf("catalog lists %d benchmarks, want %d", len(cat.Benchmarks), len(splitmfg.Benchmarks()))
	}
	for _, e := range cat.Benchmarks {
		if e.Cells <= 0 {
			t.Fatalf("catalog entry %s has no published cell count", e.Name)
		}
	}
	if len(cat.Attackers) == 0 || len(cat.Defenses) == 0 || len(cat.Kinds) != 5 {
		t.Fatalf("catalog incomplete: %d attackers, %d defenses, %d kinds",
			len(cat.Attackers), len(cat.Defenses), len(cat.Kinds))
	}
}

// TestJobListing: GET /v1/jobs returns every submission in order.
func TestJobListing(t *testing.T) {
	_, ts := newTestServer(t, Config{Parallelism: 1, MaxRunning: 1})
	a := submit(t, ts, smallRequest(splitmfg.JobEvaluate))
	b := submit(t, ts, smallRequest(splitmfg.JobAttack))
	waitTerminal(t, ts, a.ID)
	waitTerminal(t, ts, b.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list jobsResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 || list.Jobs[0].ID != a.ID || list.Jobs[1].ID != b.ID {
		t.Fatalf("job listing = %+v, want [%s %s] in order", list.Jobs, a.ID, b.ID)
	}
}

// TestResultStoreSurvivesRestart runs the same suite job against two
// successive servers sharing one -cache-dir: the second server must serve
// the report from disk (a cache hit with zero misses) and the store must
// also hold the suite's inner baseline/cell checkpoints, since suite jobs
// thread the cache dir down into the flow scheduler.
func TestResultStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := smallRequest(splitmfg.JobSuite)

	_, ts1 := newTestServer(t, Config{MaxRunning: 1, CacheDir: dir})
	first := waitTerminal(t, ts1, submit(t, ts1, req).ID)
	if first.State != StateDone {
		t.Fatalf("first run state = %s, want done", first.State)
	}
	if first.CacheHit {
		t.Fatal("first run on an empty store was a cache hit")
	}
	firstReport := getStatus(t, ts1, first.ID).Report
	ts1.Close()

	_, ts2 := newTestServer(t, Config{MaxRunning: 1, CacheDir: dir})
	second := waitTerminal(t, ts2, submit(t, ts2, req).ID)
	if second.State != StateDone {
		t.Fatalf("restarted run state = %s, want done", second.State)
	}
	if !second.CacheHit {
		t.Fatal("restarted run did not hit the disk store")
	}
	if !bytes.Equal(getStatus(t, ts2, second.ID).Report, firstReport) {
		t.Fatal("restarted report differs from the computed one")
	}
	st := getStats(t, ts2)
	if st.Cache.DiskHits != 1 || st.Cache.Misses != 0 {
		t.Fatalf("restarted cache stats = %+v, want 1 disk hit / 0 misses", st.Cache)
	}
	// The store holds the server-level report plus the suite's own
	// baseline and cell checkpoints (1 benchmark × 1 defense × 1 attacker
	// × default replicates ≥ 1).
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if entries := len(files); entries < 3 {
		t.Fatalf("store holds %d entries, want the report plus suite checkpoints (>= 3)", entries)
	}
}
