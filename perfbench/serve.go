package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"splitmfg"
)

// serveClients is the closed loop's client count, one per smserve job slot.
const serveClients = 2

// child is one running smserve process.
type child struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	out    *listenWatcher
	waited chan struct{}
	err    error // cmd.Wait's result, valid once waited is closed
}

// listenWatcher collects smserve's stdout and reports the address from its
// "listening on" line.
type listenWatcher struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addr  string
	ready chan struct{}
}

func (w *listenWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if w.addr == "" {
		for _, line := range strings.Split(w.buf.String(), "\n") {
			if a, ok := strings.CutPrefix(line, "smserve: listening on "); ok {
				w.addr = strings.TrimSpace(a)
				close(w.ready)
				break
			}
		}
	}
	return len(p), nil
}

// startChild starts smserve on a loopback port with a fresh cache dir and
// returns once /healthz answers, with the time that took.
func startChild(ctx context.Context, bin, cacheDir string) (*child, time.Duration, error) {
	t0 := time.Now()
	c := &child{out: &listenWatcher{ready: make(chan struct{})}, waited: make(chan struct{})}
	c.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-jobs", "2",
		"-cache-dir", cacheDir, "-cache-entries", "8")
	c.cmd.Stdout = c.out
	c.cmd.Stderr = os.Stderr
	if err := c.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start smserve: %w", err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.waited)
	}()
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	select {
	case <-c.out.ready:
	case <-c.waited:
		return nil, 0, fmt.Errorf("smserve exited before listening: %v", c.err)
	case <-deadline.C:
		c.stop()
		return nil, 0, errors.New("smserve did not report a listen address within 30s")
	}
	c.base = "http://" + c.out.addr
	for {
		resp, err := http.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(t0), nil
			}
		}
		select {
		case <-ctx.Done():
			c.stop()
			return nil, 0, ctx.Err()
		case <-deadline.C:
			c.stop()
			return nil, 0, errors.New("smserve /healthz did not answer within 30s")
		case <-time.After(time.Millisecond):
		}
	}
}

// stop drains smserve with SIGTERM (killing it if it has not exited within
// 30s) and waits for it, returning its resource usage.
func (c *child) stop() *syscall.Rusage {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.waited:
	case <-time.After(30 * time.Second):
		c.cmd.Process.Kill()
		<-c.waited
	}
	ru, _ := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru
}

// jobInfo is the part of smserve's job status the benchmark reads.
type jobInfo struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	CacheHit bool       `json:"cache_hit"`
	Error    string     `json:"error"`
}

// jobStatus is GET /v1/jobs/{id}: the job's status plus its report.
type jobStatus struct {
	jobInfo
	Report json.RawMessage `json:"report"`
}

// serveSample is one request's client-side record.
type serveSample struct {
	req                         splitmfg.JobRequest
	start, posted, fetch0, done time.Time
	info                        jobInfo
	report                      json.RawMessage
	err                         error
}

// serveRun is what one serve-mix run measured.
type serveRun struct {
	setup     []float64
	start     time.Time // first request submitted
	samples   []serveSample
	wall      float64
	cpu       float64
	rssMiB    float64
	stats     serverStats
	store     storeCounts
	attempted int
	failed    int
	problems  []string
}

// serverStats is the cache part of GET /v1/stats.
type serverStats struct {
	Cache struct {
		Hits      int `json:"hits"`
		Misses    int `json:"misses"`
		DiskHits  int `json:"disk_hits"`
		Evictions int `json:"evictions"`
	} `json:"cache"`
}

// storeCounts describes the -cache-dir after a run.
type storeCounts struct {
	entries, bytes, quarantined int64
}

// measureServe starts smserve setupRepeats times (keeping the last one),
// drives it with the request stream from serveClients closed-loop
// clients, checks every report, and stops it.
func measureServe(ctx context.Context, bin, workDir string, stream []splitmfg.JobRequest) (*serveRun, error) {
	if bin == "" {
		return nil, errors.New("serve-mix needs -smserve, the path to an smserve binary")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	s := &serveRun{}
	var c *child
	var cacheDir string
	for i := 0; i < setupRepeats; i++ {
		dir, err := os.MkdirTemp(workDir, "store-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		srv, took, err := startChild(ctx, bin, dir)
		if err != nil {
			return nil, err
		}
		s.setup = append(s.setup, took.Seconds())
		if i < setupRepeats-1 {
			srv.stop()
			continue
		}
		c, cacheDir = srv, dir
	}

	tr := &http.Transport{MaxIdleConnsPerHost: serveClients}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	s.samples = make([]serveSample, len(stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	s.start = time.Now()
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(stream) || ctx.Err() != nil {
					return
				}
				s.samples[i] = runRequest(ctx, client, c.base, stream[i])
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		c.stop()
		return nil, err
	}
	var last time.Time
	for _, sm := range s.samples {
		if sm.done.After(last) {
			last = sm.done
		}
	}
	s.wall = last.Sub(s.start).Seconds()
	statsErr := getJSON(ctx, client, c.base+"/v1/stats", &s.stats)
	ru := c.stop()
	if ru != nil {
		s.cpu = rusageCPU(ru)
		s.rssMiB = float64(ru.Maxrss) / 1024
	}
	if statsErr != nil {
		return nil, fmt.Errorf("read /v1/stats: %w", statsErr)
	}
	s.store = countStore(cacheDir)
	s.check()
	return s, nil
}

// runRequest submits one job, waits for its SSE "done" event and fetches
// its report.
func runRequest(ctx context.Context, client *http.Client, base string, req splitmfg.JobRequest) (sm serveSample) {
	sm = serveSample{req: req, start: time.Now()}
	defer func() { sm.done = time.Now() }()
	ctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	body, err := json.Marshal(req)
	if err != nil {
		sm.err = err
		return sm
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		sm.err = err
		return sm
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		sm.err = err
		return sm
	}
	err = decodeBody(resp, http.StatusAccepted, &sm.info)
	sm.posted = time.Now()
	if err != nil {
		sm.err = fmt.Errorf("submit: %w", err)
		return sm
	}
	if err := waitDone(ctx, client, base+"/v1/jobs/"+sm.info.ID+"/events"); err != nil {
		sm.err = fmt.Errorf("events: %w", err)
		return sm
	}
	sm.fetch0 = time.Now()
	var st jobStatus
	if err := getJSON(ctx, client, base+"/v1/jobs/"+sm.info.ID, &st); err != nil {
		sm.err = fmt.Errorf("status: %w", err)
		return sm
	}
	sm.info, sm.report = st.jobInfo, st.Report
	if st.State != "done" || len(st.Report) == 0 {
		sm.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return sm
}

// waitDone reads a job's SSE stream until its terminal "done" event.
func waitDone(ctx context.Context, client *http.Client, url string) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if sc.Text() == "event: done" {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("stream ended without a done event")
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return err
	}
	return decodeBody(resp, http.StatusOK, v)
}

// decodeBody decodes a JSON response with the wanted status and closes it.
func decodeBody(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// check counts failures: requests that errored or were refused, and
// repeats whose report differs from the first completed report of the same
// request, whether served from memory, from disk or recomputed.
func (s *serveRun) check() {
	first := map[string]json.RawMessage{}
	for i, sm := range s.samples {
		s.attempted++
		err := sm.err
		if err == nil {
			key := sm.req.CacheKey()
			if want, ok := first[key]; !ok {
				first[key] = sm.report
			} else if !bytes.Equal(sm.report, want) {
				err = fmt.Errorf("report differs from the first report of the same request")
			}
		}
		if err != nil {
			s.failed++
			s.problems = append(s.problems, fmt.Sprintf("request %d (%s %s): %v", i+1, sm.req.Kind, sm.req.Benchmark, err))
		}
	}
}

// countStore counts the result store's entries and bytes, and the entries
// it quarantined.
func countStore(dir string) storeCounts {
	var sc storeCounts
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if info, err := e.Info(); err == nil && !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
				sc.entries++
				sc.bytes += info.Size()
			}
		}
	}
	if q, err := os.ReadDir(filepath.Join(dir, "quarantine")); err == nil {
		sc.quarantined = int64(len(q))
	}
	return sc
}

// values maps the run onto the benchmark's metric names: the end-to-end
// metrics plus the server and store layers.
func (s *serveRun) values() map[string]float64 {
	lat := s.latencies()
	var admit, fetch, queue, run, hitRun []float64
	completed := 0
	for _, sm := range s.samples {
		if sm.err != nil {
			continue
		}
		completed++
		admit = append(admit, sm.posted.Sub(sm.start).Seconds())
		fetch = append(fetch, sm.done.Sub(sm.fetch0).Seconds())
		in := sm.info
		if in.Started == nil || in.Finished == nil {
			continue
		}
		queue = append(queue, in.Started.Sub(in.Created).Seconds())
		if in.CacheHit {
			hitRun = append(hitRun, in.Finished.Sub(*in.Started).Seconds())
		} else {
			run = append(run, in.Finished.Sub(*in.Started).Seconds())
		}
	}
	st := s.stats.Cache
	v := map[string]float64{
		"setup_s":             median(s.setup),
		"wall_s":              s.wall,
		"cpu_s":               s.cpu,
		"peak_rss_mb":         s.rssMiB,
		"job_p50_s":           median(lat),
		"job_p90_s":           percentile(lat, 90),
		"server.admit_s":      median(admit),
		"server.fetch_s":      median(fetch),
		"server.queue_wait_s": median(queue),
		"server.run_s":        median(run),
		"server.hit_run_s":    median(hitRun),
		"server.cache_hits":   float64(st.Hits),
		"server.cache_misses": float64(st.Misses),
		"server.disk_hits":    float64(st.DiskHits),
		"server.evictions":    float64(st.Evictions),
		"store.entries":       float64(s.store.entries),
		"store.bytes":         float64(s.store.bytes),
		"store.quarantined":   float64(s.store.quarantined),
	}
	if s.wall > 0 {
		v["jobs_per_s"] = float64(completed) / s.wall
	}
	if len(s.samples) > 0 {
		v["server.hit_ratio"] = float64(st.Hits+st.DiskHits) / float64(len(s.samples))
	}
	return v
}

// latencies are the client-observed job times, POST until the report is in
// hand (or the request failed).
func (s *serveRun) latencies() []float64 {
	lat := make([]float64, 0, len(s.samples))
	for _, sm := range s.samples {
		lat = append(lat, sm.done.Sub(sm.start).Seconds())
	}
	return lat
}

// spans turns the client-side timings into one span tree per request:
// the whole request, its POST, its wait on the event stream and its
// report fetch.
func (s *serveRun) spans(rec *recorder) {
	for i, sm := range s.samples {
		if sm.posted.IsZero() {
			continue
		}
		job := i + 1
		root := rec.add("client.job", job, -1, sm.start, sm.done)
		rec.add("server.admit", job, root, sm.start, sm.posted)
		if !sm.fetch0.IsZero() {
			rec.add("client.wait", job, root, sm.posted, sm.fetch0)
			rec.add("server.fetch", job, root, sm.fetch0, sm.done)
		}
	}
}
