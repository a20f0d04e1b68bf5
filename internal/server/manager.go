package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"splitmfg"
	"splitmfg/internal/store"
)

// resultKeySchema versions the server's disk-store key format
// (JobRequest.CacheKey). Bump it whenever cached reports become stale
// without the key bytes changing.
//
// Schema 2: CacheKey gained the route strategy, and the hierarchical
// router changed what large-die (auto-resolved) requests compute —
// reports cached by pre-strategy binaries cannot be trusted for any
// strategy, including the implicit auto.
//
// Schema 3: the router's A* took a layer-aware lower bound, which breaks
// ties between equal-cost routes differently and so changed layouts and
// reports; and CacheKey began resolving omitted design-independent
// defaults, so a spelled-out default now shares the omitted field's key.
//
// Schema 4: the proximity attack's flow became a primal-dual solve and
// its candidate and commit orders became total, so among equal-cost
// assignments it picks a different one and attack reports changed.
//
// Schema 5: congestion negotiation re-routes only each overflowed edge's
// excess nets and stops when a pass stalls, so every negotiated layout,
// and the reports built on it, changed.
//
// Schema 6: the router's A* frontier became a monotone radix queue that
// pops equal f-scores newest first, which breaks ties between equal-cost
// routes differently and so changed layouts and reports.
const resultKeySchema = 6

// Submission errors the handlers map to HTTP status codes.
var (
	// ErrQueueFull means the bounded run queue has no room; clients should
	// retry later (503).
	ErrQueueFull = errors.New("server: job queue full")
	// ErrShuttingDown means the manager no longer admits jobs (503).
	ErrShuttingDown = errors.New("server: shutting down")
)

// Config parameterizes a Manager. The zero value of every field resolves
// to a sensible default.
type Config struct {
	// Parallelism is the global worker budget split across concurrently
	// running jobs (default GOMAXPROCS). Each running job is granted
	// Parallelism/MaxRunning workers (at least 1), or the request's own
	// parallelism when that is smaller, as its whole WithParallelism
	// budget — route workers included — generalizing how Matrix and Suite
	// split one budget across their inner jobs.
	Parallelism int
	// MaxRunning bounds how many jobs run concurrently (default 2).
	MaxRunning int
	// QueueDepth bounds how many admitted jobs may wait behind the running
	// ones before submissions are rejected with ErrQueueFull (default 64).
	QueueDepth int
	// EventBuffer is the per-job progress ring capacity: how many events a
	// late SSE subscriber can replay (default 4096).
	EventBuffer int
	// CacheDir, when non-empty, backs the result cache with the
	// disk-based content-addressed store rooted there: identical requests
	// are free across restarts (and across smbench runs sharing the
	// directory), and suite jobs checkpoint their per-cell results into
	// the same store. Empty keeps the cache memory-only.
	CacheDir string
	// CacheEntries caps how many completed reports the in-memory result
	// cache retains, LRU-evicted beyond that (default 256; in-flight
	// computations are never evicted).
	CacheEntries int
	// RetainCount caps how many finished jobs the registry keeps for
	// status polls and listings (default 512). Oldest finished jobs are
	// pruned first; queued and running jobs are never pruned.
	RetainCount int
	// RetainTTL caps how long a finished job stays in the registry
	// (default 1h).
	RetainTTL time.Duration
	// Logf, when non-nil, receives one line per job lifecycle transition.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.MaxRunning <= 0 {
		c.MaxRunning = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 4096
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.RetainCount <= 0 {
		c.RetainCount = 512
	}
	if c.RetainTTL <= 0 {
		c.RetainTTL = time.Hour
	}
	return c
}

// Stats is the server-wide snapshot served by GET /v1/stats.
type Stats struct {
	Jobs  map[State]int    `json:"jobs"` // job count per lifecycle state
	Cache store.CacheStats `json:"cache"`
	// Parallelism and MaxRunning echo the budget configuration so clients
	// can see what share a job will be granted.
	Parallelism int `json:"parallelism"`
	MaxRunning  int `json:"max_running"`
}

// Manager owns the job registry, the bounded run queue, the worker pool
// that drains it, and the shared result cache. It is safe for concurrent
// use by the HTTP handlers.
type Manager struct {
	cfg   Config
	cache *store.Cache

	// baseCtx parents every job context; Shutdown cancels it to stop
	// still-running jobs once the drain deadline passes.
	baseCtx context.Context
	stopAll context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for stable listings
	nextID int
	closed bool

	queue chan *Job
	wg    sync.WaitGroup // the MaxRunning workers
}

// NewManager starts a manager with cfg's worker pool running. It fails
// only when cfg.CacheDir is set but cannot be created.
func NewManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	var disk *store.Store
	if cfg.CacheDir != "" {
		var err error
		disk, err = store.Open(cfg.CacheDir, store.Options{
			KeySchema: resultKeySchema, Logf: cfg.Logf,
		})
		if err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:     cfg,
		cache:   store.NewCache(cfg.CacheEntries, disk),
		baseCtx: ctx,
		stopAll: cancel,
		jobs:    map[string]*Job{},
		queue:   make(chan *Job, cfg.MaxRunning+cfg.QueueDepth),
	}
	for w := 0; w < cfg.MaxRunning; w++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for job := range m.queue {
				m.runJob(job)
			}
		}()
	}
	return m, nil
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// Submit validates and admits one job, returning its record. Validation
// failures surface as *splitmfg.OptionError (a 400); a full queue as
// ErrQueueFull and a draining manager as ErrShuttingDown (503s).
func (m *Manager) Submit(req splitmfg.JobRequest) (*Job, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrShuttingDown
	}
	m.pruneLocked()
	m.nextID++
	job := newJob(fmt.Sprintf("job-%06d", m.nextID), req, m.cfg.EventBuffer)
	select {
	case m.queue <- job:
	default:
		m.nextID--
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	m.jobs[job.id] = job
	m.order = append(m.order, job.id)
	m.mu.Unlock()
	bench := req.Benchmark
	if len(req.Benchmarks) > 0 {
		bench = strings.Join(req.Benchmarks, ",")
	}
	m.logf("queued %s: %s %s", job.id, req.Kind, bench)
	return job, nil
}

// Get returns the job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pruneLocked()
	j, ok := m.jobs[id]
	return j, ok
}

// Expired reports whether id names a job that was admitted but has since
// been pruned by the retention policy. Needs no tombstone bookkeeping:
// IDs are assigned sequentially, so any well-formed ID at or below the
// high-water mark that is absent from the registry was pruned.
func (m *Manager) Expired(id string) bool {
	rest, found := strings.CutPrefix(id, "job-")
	if !found {
		return false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || fmt.Sprintf("job-%06d", n) != id {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.jobs[id]; ok {
		return false
	}
	return n >= 1 && n <= m.nextID
}

// Jobs lists every known job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pruneLocked()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// pruneLocked enforces the finished-job retention policy under m.mu:
// terminal jobs older than RetainTTL are dropped, and the oldest
// terminal jobs beyond RetainCount are dropped. Queued and running jobs
// are untouched; SSE subscribers holding a pruned *Job keep draining its
// (closed) event log unaffected.
func (m *Manager) pruneLocked() {
	cutoff := time.Now().Add(-m.cfg.RetainTTL)
	type fin struct {
		id string
		at time.Time
	}
	finished := make([]fin, 0, len(m.order))
	for _, id := range m.order {
		if at, done := m.jobs[id].terminalSince(); done {
			finished = append(finished, fin{id, at})
		}
	}
	excess := len(finished) - m.cfg.RetainCount
	pruned := false
	for _, f := range finished {
		if excess > 0 || f.at.Before(cutoff) {
			delete(m.jobs, f.id)
			excess--
			pruned = true
			m.logf("pruned %s (retention policy)", f.id)
		}
	}
	if !pruned {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		if _, ok := m.jobs[id]; ok {
			kept = append(kept, id)
		}
	}
	m.order = kept
}

// Cancel requests cancellation of the job by ID.
func (m *Manager) Cancel(id string) (*Job, bool) {
	job, ok := m.Get(id)
	if !ok {
		return nil, false
	}
	job.requestCancel()
	m.logf("cancel requested for %s", id)
	return job, true
}

// Stats snapshots the registry and cache counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	m.pruneLocked()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	st := Stats{
		Jobs:        map[State]int{},
		Cache:       m.cache.Stats(),
		Parallelism: m.cfg.Parallelism,
		MaxRunning:  m.cfg.MaxRunning,
	}
	for _, j := range jobs {
		st.Jobs[j.State()]++
	}
	return st
}

// share computes the parallelism budget granted to one job: an equal split
// of the global budget across the worker slots, tightened to the request's
// own bound when that is smaller.
func (m *Manager) share(requested int) int {
	share := m.cfg.Parallelism / m.cfg.MaxRunning
	if share < 1 {
		share = 1
	}
	if requested > 0 && requested < share {
		share = requested
	}
	return share
}

// runJob executes one admitted job on a worker slot.
func (m *Manager) runJob(job *Job) {
	share := m.share(job.req.Parallelism)
	jobCtx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()
	if !job.start(share, cancel) {
		return // canceled while queued
	}
	m.logf("running %s with parallelism %d", job.id, share)

	hook := func(ev splitmfg.ProgressEvent) { job.log.append(wireEvent(ev)) }
	// The share is the job's whole budget: the pipeline splits it further
	// among builds, layer attacks and route waves.
	extra := []splitmfg.Option{
		splitmfg.WithProgress(hook),
		splitmfg.WithParallelism(share),
	}
	if m.cfg.CacheDir != "" {
		// Suite jobs checkpoint their per-cell results into the same
		// store, so a drained server resumes a half-finished suite and
		// smbench runs sharing the directory reuse its cells.
		extra = append(extra, splitmfg.WithCacheDir(m.cfg.CacheDir))
	}
	decode := func(raw []byte) (any, error) {
		return splitmfg.DecodeReport(job.req.Kind, raw)
	}
	val, hit, err := m.cache.Do(jobCtx, job.req.CacheKey(), decode, func() (any, error) {
		return job.req.Run(jobCtx, extra...)
	})
	if hit {
		job.log.append(Event{Stage: StageCached, Detail: "report shared from the result cache"})
	}
	job.finish(val, hit, err)
	m.logf("%s %s", job.id, job.State())
}

// Shutdown drains the manager: no new admissions, queued jobs are
// canceled, and running jobs get until ctx's deadline to finish before
// their contexts are canceled. It returns once every worker has exited.
func (m *Manager) Shutdown(ctx context.Context) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	close(m.queue)
	queued := make([]*Job, 0)
	for _, j := range m.jobs {
		if j.State() == StateQueued {
			queued = append(queued, j)
		}
	}
	m.mu.Unlock()
	// Finalize queued jobs; a worker that already pulled one observes the
	// terminal state in start() and skips it.
	for _, j := range queued {
		j.markCanceled()
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		m.logf("drain deadline passed; canceling running jobs")
		m.stopAll()
		<-done
	}
	m.stopAll()
}
