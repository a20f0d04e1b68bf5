package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"splitmfg"
	"splitmfg/internal/store"
)

func TestEventLogOverflowKeepsTail(t *testing.T) {
	l := newEventLog(4)
	for i := 0; i < 10; i++ {
		l.append(Event{Stage: fmt.Sprintf("s%d", i)})
	}
	if l.count() != 10 {
		t.Fatalf("count = %d, want 10", l.count())
	}
	snap := l.snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot retains %d events, want 4", len(snap))
	}
	for i, ev := range snap {
		want := 6 + i
		if ev.Seq != want || ev.Stage != fmt.Sprintf("s%d", want) {
			t.Fatalf("snapshot[%d] = %+v, want seq %d", i, ev, want)
		}
	}
}

func TestEventLogSubscribeLive(t *testing.T) {
	l := newEventLog(16)
	l.append(Event{Stage: "a"})
	l.append(Event{Stage: "b"})
	replay, live, cancel := l.subscribe()
	defer cancel()
	if len(replay) != 2 || replay[0].Seq != 0 || replay[1].Seq != 1 {
		t.Fatalf("replay = %+v, want the 2 retained events", replay)
	}
	l.append(Event{Stage: "c"})
	select {
	case ev := <-live:
		if ev.Seq != 2 || ev.Stage != "c" {
			t.Fatalf("live event = %+v, want seq 2 stage c", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("live event never arrived")
	}
	l.close()
	select {
	case _, open := <-live:
		if open {
			t.Fatal("expected channel close after log close")
		}
	case <-time.After(time.Second):
		t.Fatal("channel not closed after log close")
	}
	if l.count() != 3 {
		t.Fatalf("count = %d, want 3", l.count())
	}
	l.append(Event{Stage: "late"})
	if l.count() != 3 {
		t.Fatal("append after close was recorded")
	}
}

func TestEventLogLateSubscriber(t *testing.T) {
	l := newEventLog(16)
	l.append(Event{Stage: "a"})
	l.close()
	replay, live, cancel := l.subscribe()
	defer cancel()
	if len(replay) != 1 {
		t.Fatalf("late subscriber replayed %d events, want 1", len(replay))
	}
	select {
	case _, open := <-live:
		if open {
			t.Fatal("late subscriber's channel should be closed")
		}
	default:
		t.Fatal("late subscriber's channel should be closed immediately")
	}
}

func TestEventLogSlowSubscriberDrops(t *testing.T) {
	// Capacity 1 gives the subscriber a 1-slot channel: the first
	// undrained event is buffered and later ones drop, visible as a Seq
	// gap against the ring.
	l := newEventLog(1)
	_, live, cancel := l.subscribe()
	defer cancel()
	for i := 0; i < 3; i++ {
		l.append(Event{Stage: fmt.Sprintf("s%d", i)})
	}
	ev := <-live
	if ev.Seq != 0 {
		t.Fatalf("buffered event has seq %d, want 0", ev.Seq)
	}
	select {
	case ev := <-live:
		t.Fatalf("expected drops, got %+v", ev)
	default:
	}
	snap := l.snapshot()
	if len(snap) != 1 || snap[0].Seq != 2 {
		t.Fatalf("ring retains %+v, want only seq 2", snap)
	}
}

func TestResultCacheHitAndStats(t *testing.T) {
	c := store.NewCache(256, nil)
	calls := 0
	compute := func() (any, error) { calls++; return 42, nil }
	v, hit, err := c.Do(context.Background(), "k", nil, compute)
	if err != nil || hit || v != 42 {
		t.Fatalf("first do = (%v, %v, %v), want (42, false, nil)", v, hit, err)
	}
	v, hit, err = c.Do(context.Background(), "k", nil, compute)
	if err != nil || !hit || v != 42 {
		t.Fatalf("second do = (%v, %v, %v), want (42, true, nil)", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestResultCacheFailureEvicted(t *testing.T) {
	c := store.NewCache(256, nil)
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), "k", nil, func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failed computation must not poison the key.
	v, hit, err := c.Do(context.Background(), "k", nil, func() (any, error) { return "ok", nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("retry = (%v, %v, %v), want (ok, false, nil)", v, hit, err)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 0 hits / 2 misses", st)
	}
}

func TestResultCacheSingleflight(t *testing.T) {
	c := store.NewCache(256, nil)
	release := make(chan struct{})
	computing := make(chan struct{})
	type result struct {
		v   any
		hit bool
		err error
	}
	results := make(chan result, 1)
	go func() {
		v, hit, err := c.Do(context.Background(), "k", nil, func() (any, error) {
			close(computing)
			<-release
			return "shared", nil
		})
		results <- result{v, hit, err}
	}()
	<-computing
	waiter := make(chan result, 1)
	go func() {
		v, hit, err := c.Do(context.Background(), "k", nil, func() (any, error) {
			t.Error("waiter should not compute")
			return nil, nil
		})
		waiter <- result{v, hit, err}
	}()
	// A waiter whose context dies gives up without canceling the computer.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, "k", nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter returned %v, want context.Canceled", err)
	}
	close(release)
	r := <-results
	if r.err != nil || r.hit || r.v != "shared" {
		t.Fatalf("computer got %+v", r)
	}
	r = <-waiter
	if r.err != nil || !r.hit || r.v != "shared" {
		t.Fatalf("waiter got %+v, want a hit on the shared value", r)
	}
}

func TestManagerShare(t *testing.T) {
	m := &Manager{cfg: Config{Parallelism: 8, MaxRunning: 2}}
	cases := []struct{ requested, want int }{
		{0, 4},   // unbounded request: equal split
		{3, 3},   // tighter request wins
		{100, 4}, // looser request is clamped to the split
	}
	for _, tc := range cases {
		if got := m.share(tc.requested); got != tc.want {
			t.Errorf("share(%d) = %d, want %d", tc.requested, got, tc.want)
		}
	}
	// Budget smaller than the slot count still grants at least 1.
	m = &Manager{cfg: Config{Parallelism: 1, MaxRunning: 4}}
	if got := m.share(0); got != 1 {
		t.Errorf("share(0) with tiny budget = %d, want 1", got)
	}
}

// TestRouteStrategyDefault: a server-wide routing-strategy default folds
// into requests that omit one — at submission, so it lands in the cache
// key — and never overrides an explicit choice; an unknown default fails
// NewManager at startup rather than per request.
func TestRouteStrategyDefault(t *testing.T) {
	if _, err := NewManager(Config{RouteStrategy: "bogus"}); err == nil {
		t.Fatal("NewManager accepted an unknown route-strategy default")
	}
	m, err := NewManager(Config{MaxRunning: 1, RouteStrategy: "hier"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		m.Shutdown(ctx)
	}()
	req := splitmfg.JobRequest{Kind: splitmfg.JobEvaluate, Benchmark: "c432", PatternWords: 1}
	defaulted, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := defaulted.Request().RouteStrategy; got != "hier" {
		t.Fatalf("omitted strategy folded to %q, want %q", got, "hier")
	}
	req.RouteStrategy = "flat"
	explicit, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := explicit.Request().RouteStrategy; got != "flat" {
		t.Fatalf("explicit strategy overridden to %q", got)
	}
	if defaulted.Request().CacheKey() == explicit.Request().CacheKey() {
		t.Fatal("hier-defaulted and flat requests share a cache key")
	}
}

// TestQueueFullAndShutdown: submissions beyond the queue bound are
// rejected; Shutdown cancels queued and running jobs and refuses new ones.
func TestQueueFullAndShutdown(t *testing.T) {
	m, err := NewManager(Config{Parallelism: 1, MaxRunning: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A slow job to occupy the single worker slot.
	blocker, err := m.Submit(splitmfg.JobRequest{
		Kind:       splitmfg.JobSuite,
		Benchmarks: []string{"c432", "c880", "c1908"},
		Replicates: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for blocker.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}

	// The queue (capacity MaxRunning+QueueDepth = 2) now fills behind it.
	small := smallRequest(splitmfg.JobEvaluate)
	queued := make([]*Job, 0, 2)
	for i := 0; i < 2; i++ {
		req := small
		req.Seed = int64(i + 100) // distinct jobs
		j, err := m.Submit(req)
		if err != nil {
			t.Fatalf("submission %d rejected: %v", i, err)
		}
		queued = append(queued, j)
	}
	req := small
	req.Seed = 999
	if _, err := m.Submit(req); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit returned %v, want ErrQueueFull", err)
	}

	// Shutdown with an expired deadline: queued jobs are canceled without
	// running, the blocker's context is canceled, and it still drains.
	expired, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	m.Shutdown(expired)
	if st := blocker.State(); st != StateCanceled {
		t.Fatalf("blocker ended %s, want canceled", st)
	}
	for i, j := range queued {
		if st := j.State(); st != StateCanceled {
			t.Fatalf("queued job %d ended %s, want canceled", i, st)
		}
	}
	if _, err := m.Submit(small); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown submit returned %v, want ErrShuttingDown", err)
	}
	// Idempotent.
	m.Shutdown(context.Background())
}

// TestJobInfoLifecycle: Info reflects the queued → running → done
// transitions with their timestamps.
func TestJobInfoLifecycle(t *testing.T) {
	j := newJob("job-000001", smallRequest(splitmfg.JobEvaluate), 8)
	info := j.Info()
	if info.State != StateQueued || info.Started != nil || info.Finished != nil {
		t.Fatalf("fresh job info = %+v", info)
	}
	if !j.start(3, func() {}) {
		t.Fatal("start on a queued job returned false")
	}
	info = j.Info()
	if info.State != StateRunning || info.Started == nil || info.Parallelism != 3 {
		t.Fatalf("running job info = %+v", info)
	}
	j.finish("report", false, nil)
	info = j.Info()
	if info.State != StateDone || info.Finished == nil || info.Error != "" {
		t.Fatalf("done job info = %+v", info)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("Done channel not closed")
	}
	// A second finish (e.g. a racing cancel) is a no-op.
	j.finish(nil, false, errors.New("late"))
	if j.State() != StateDone {
		t.Fatal("terminal state overwritten")
	}
}

// TestJobCancelRacesAdmission: a cancel that lands while the job is queued
// finalizes it; start() then refuses to run it.
func TestJobCancelRacesAdmission(t *testing.T) {
	j := newJob("job-000002", smallRequest(splitmfg.JobEvaluate), 8)
	j.requestCancel()
	if j.State() != StateCanceled {
		t.Fatalf("canceled queued job is %s", j.State())
	}
	if j.start(1, func() {}) {
		t.Fatal("start on a canceled job returned true")
	}
	// Cancellation errors classify as canceled, not failed.
	k := newJob("job-000003", smallRequest(splitmfg.JobEvaluate), 8)
	k.start(1, func() {})
	k.finish(nil, false, fmt.Errorf("stage: %w", context.Canceled))
	if k.State() != StateCanceled {
		t.Fatalf("cancellation error classified as %s", k.State())
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	c := store.NewCache(2, nil)
	put := func(k string) (any, bool) {
		t.Helper()
		v, hit, err := c.Do(context.Background(), k, nil, func() (any, error) { return k, nil })
		if err != nil {
			t.Fatal(err)
		}
		return v, hit
	}
	put("a")
	put("b")
	put("c") // over the cap: "a" (least recently used) falls out
	if st := c.Stats(); st.Evictions != 1 || st.Misses != 3 {
		t.Fatalf("stats = %+v, want 1 eviction / 3 misses", st)
	}
	if _, hit := put("b"); !hit {
		t.Fatal("recently used entry was evicted")
	}
	if _, hit := put("a"); hit {
		t.Fatal("evicted entry still served")
	}
	// Re-adding "a" displaced the now-least-recent "c".
	if st := c.Stats(); st.Evictions != 2 || st.Misses != 4 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 evictions / 4 misses / 1 hit", st)
	}
}

func TestResultCacheInFlightNeverEvicted(t *testing.T) {
	c := store.NewCache(1, nil)
	release := make(chan struct{})
	computing := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, err := c.Do(context.Background(), "slow", nil, func() (any, error) {
			close(computing)
			<-release
			return "slow-value", nil
		})
		if err != nil || v != "slow-value" {
			t.Errorf("slow compute = (%v, %v)", v, err)
		}
	}()
	<-computing
	// Churn the cache past its cap while "slow" is still in flight: only
	// completed entries may be evicted.
	for _, k := range []string{"x", "y", "z"} {
		if _, _, err := c.Do(context.Background(), k, nil, func() (any, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	<-done
	v, hit, err := c.Do(context.Background(), "slow", nil, func() (any, error) {
		t.Error("in-flight entry was evicted and recomputed")
		return nil, nil
	})
	if err != nil || !hit || v != "slow-value" {
		t.Fatalf("post-completion lookup = (%v, %v, %v), want the in-flight survivor", v, hit, err)
	}
}

func TestResultCacheDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	openStore := func() *store.Store {
		t.Helper()
		st, err := store.Open(dir, store.Options{KeySchema: resultKeySchema})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	decode := func(raw []byte) (any, error) {
		var s string
		err := json.Unmarshal(raw, &s)
		return s, err
	}
	c1 := store.NewCache(4, openStore())
	if _, _, err := c1.Do(context.Background(), "k", decode, func() (any, error) { return "v", nil }); err != nil {
		t.Fatal(err)
	}
	// A fresh cache over the same directory — the process restart — must
	// serve the key from disk without computing.
	c2 := store.NewCache(4, openStore())
	v, hit, err := c2.Do(context.Background(), "k", decode, func() (any, error) {
		t.Error("disk-backed key recomputed")
		return nil, nil
	})
	if err != nil || !hit || v != "v" {
		t.Fatalf("restarted lookup = (%v, %v, %v), want a disk hit", v, hit, err)
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 disk hit / 0 misses", st)
	}
}

// injectFinished registers n already-terminal jobs with sequential IDs,
// the retention policy's raw material, bypassing the queue.
func injectFinished(t *testing.T, m *Manager, n int) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("job-%06d", i)
		j := newJob(id, smallRequest(splitmfg.JobEvaluate), 4)
		j.markCanceled()
		m.jobs[id] = j
		m.order = append(m.order, id)
		m.nextID = i
	}
}

func TestManagerRetentionCountPrunes(t *testing.T) {
	m, err := NewManager(Config{MaxRunning: 1, RetainCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	injectFinished(t, m, 4)
	jobs := m.Jobs() // any registry read applies the policy
	if len(jobs) != 2 || jobs[0].ID() != "job-000003" || jobs[1].ID() != "job-000004" {
		ids := make([]string, len(jobs))
		for i, j := range jobs {
			ids[i] = j.ID()
		}
		t.Fatalf("retained %v, want the 2 newest", ids)
	}
	if _, ok := m.Get("job-000001"); ok {
		t.Fatal("pruned job still resolvable")
	}
	if !m.Expired("job-000001") {
		t.Fatal("pruned job not reported expired")
	}
	if m.Expired("job-000004") {
		t.Fatal("live job reported expired")
	}
	if m.Expired("job-000099") {
		t.Fatal("never-assigned ID reported expired")
	}
	if m.Expired("job-1") || m.Expired("nonsense") {
		t.Fatal("malformed ID reported expired")
	}
}

func TestManagerRetentionTTLPrunes(t *testing.T) {
	m, err := NewManager(Config{MaxRunning: 1, RetainTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	injectFinished(t, m, 2)
	// Age the first job past the TTL; the second stays fresh.
	m.mu.Lock()
	j := m.jobs["job-000001"]
	m.mu.Unlock()
	j.mu.Lock()
	j.finished = time.Now().Add(-2 * time.Minute)
	j.mu.Unlock()
	if st := m.Stats(); st.Jobs[StateCanceled] != 1 {
		t.Fatalf("job states after TTL prune = %v, want 1 canceled", st.Jobs)
	}
	if !m.Expired("job-000001") || m.Expired("job-000002") {
		t.Fatal("TTL prune misreported expiry")
	}
}

func TestExpiredJobGets404WithBody(t *testing.T) {
	m, err := NewManager(Config{MaxRunning: 1, RetainCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	injectFinished(t, m, 3)
	h := NewHandler(m)
	get := func(path string) (int, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}
	code, body := get("/v1/jobs/job-000001")
	if code != 404 || !strings.Contains(body, "expired") {
		t.Fatalf("pruned job: %d %q, want 404 naming expiry", code, body)
	}
	code, body = get("/v1/jobs/job-000001/events")
	if code != 404 || !strings.Contains(body, "expired") {
		t.Fatalf("pruned job events: %d %q, want 404 naming expiry", code, body)
	}
	code, body = get("/v1/jobs/job-000099")
	if code != 404 || strings.Contains(body, "expired") {
		t.Fatalf("unknown job: %d %q, want plain 404", code, body)
	}
}
