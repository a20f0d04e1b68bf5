package main

import (
	"math"
	"math/rand"
	"time"

	"splitmfg"
)

// workload is one seeded input set the benchmark runs. Batch workloads are
// one JobRequest run in-process through the root splitmfg API; serve-mix
// drives a child smserve over HTTP.
type workload struct {
	name string
	// why is the one-line reason the workload exists; BENCHMARK.json
	// carries the same text.
	why string
	// nominal is about how long one round (batch) or one request (serve)
	// takes at the seed commit on a 2-core box. A run sizes its work from
	// it to fill --seconds, so the work is fixed for a given seed and
	// --seconds, and a faster program finishes sooner.
	nominal time.Duration
	// request builds the batch job for a workload seed (nil for serve-mix).
	request func(seed int64) splitmfg.JobRequest
}

// iscasDesigns are the ISCAS-85 designs of the iscas-suite workload.
var iscasDesigns = []string{"c432", "c880", "c1355", "c1908", "c2670", "c3540"}

// Defense panels: smbench's default suite panel, and the two lifting
// schemes the superblue matrix compares.
var (
	suiteDefenses     = []string{"randomize-correction", "naive-lifted", "pin-swapping"}
	superblueDefenses = []string{"randomize-correction", "naive-lifted"}
)

const (
	superblueDesign = "superblue18"
	superblueScale  = 100
)

var workloads = []workload{
	{
		// The Tables 4/5 reproduction users run with smbench -suite. Every
		// ISCAS die resolves the auto route strategy to flat (no corridor
		// nets), so the work is flat wave routing, the defense builds and
		// the proximity attack, with both cores busy (CPU about 1.85x
		// wall). It bypasses hierarchical routing, crouting and the server.
		name:    "iscas-suite",
		why:     "Tables 4/5 suite on six ISCAS-85 designs: flat routing, three defense builds and the proximity attack on both cores; bypasses hier routing, crouting and the server.",
		nominal: 20 * time.Second,
		request: func(seed int64) splitmfg.JobRequest {
			return splitmfg.JobRequest{
				Kind:         splitmfg.JobSuite,
				Benchmarks:   iscasDesigns,
				Defenses:     suiteDefenses,
				Attackers:    []string{"proximity"},
				Replicates:   2,
				SplitLayers:  []int{3, 4, 5},
				PatternWords: 256,
				Seed:         seed,
			}
		},
	},
	{
		// The paper's superblue path: Table 3's crouting attack plus the
		// Sec. 5.3 PPA overheads, at the largest scale that fits a run.
		// Auto resolves to hier here (thousands of corridor nets on the
		// baseline), so the work is the coarse pass, corridor waves,
		// corridor-confined negotiation and crouting, mostly serial. No
		// proximity attack runs.
		name:    "superblue-matrix",
		why:     "Table 3 path on superblue18 at scale 100: hier routing with corridors, two lifting defenses and crouting at M5, mostly serial; no proximity attack runs.",
		nominal: 16 * time.Second,
		request: func(seed int64) splitmfg.JobRequest {
			return splitmfg.JobRequest{
				Kind:        splitmfg.JobMatrix,
				Benchmark:   superblueDesign,
				Scale:       superblueScale,
				Defenses:    superblueDefenses,
				Attackers:   []string{"crouting"},
				SplitLayers: []int{5},
				Seed:        seed,
			}
		},
	},
	{
		// The long-running service path: admission, queue, singleflight
		// result cache, LRU eviction, store writes, disk-hit reads and
		// report JSON, which no batch workload touches. smserve's callers
		// (scripts, CI smoke, curl) each submit a job and wait for it, so
		// the load is a closed loop of two clients. The working set (about
		// 70 distinct results per 100 requests) is larger than the 8-entry
		// memory tier, so repeats split between memory and disk hits.
		name:    "serve-mix",
		why:     "smserve under a 2-client closed loop of protect/attack/evaluate/matrix jobs with 30% repeats: admission, queue, result cache, LRU eviction and the disk store.",
		nominal: 140 * time.Millisecond, // per request
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// perRun is how many nominal rounds or requests fill seconds.
func (w workload) perRun(seconds int) int {
	return int(time.Duration(seconds) * time.Second / w.nominal)
}

// rounds is how many rounds of w fill seconds: at least two, so every run
// checks that its reports are byte-identical across rounds.
func (w workload) rounds(seconds int) int {
	n := w.perRun(seconds)
	if n < 2 {
		n = 2
	}
	return n
}

// serveKinds and serveDesigns span the serve-mix request space.
var (
	serveKinds   = []splitmfg.JobKind{splitmfg.JobProtect, splitmfg.JobAttack, splitmfg.JobEvaluate, splitmfg.JobMatrix}
	serveDesigns = []string{"c432", "c880", "c1355", "c1908"}
)

const (
	// serveRepeatShare is the share of requests that repeat an earlier one.
	serveRepeatShare = 0.3
	// serveMinRequests keeps ten samples beyond the 90th percentile.
	serveMinRequests = 100
)

// passes is how many passes over the (kind, design) pairs a serve-mix run
// of seconds makes: enough that the run sends at least one request per
// nominal request time, and at least serveMinRequests.
func (w workload) passes(seconds int) int {
	n := w.perRun(seconds)
	if n < serveMinRequests {
		n = serveMinRequests
	}
	pairs := len(serveKinds) * len(serveDesigns)
	fresh := math.Ceil(float64(n) * (1 - serveRepeatShare))
	return int(math.Ceil(fresh / float64(pairs)))
}

// serveStream generates the seeded request stream: `passes` shuffled
// passes over every (kind, design) pair with fresh job seeds, so every
// workload seed sends the same mix, and serveRepeatShare of the stream
// repeating uniformly chosen earlier requests, recent (a memory hit) or
// old (evicted from the memory tier, a disk hit), at seeded positions.
func serveStream(seed int64, passes int) []splitmfg.JobRequest {
	rng := rand.New(rand.NewSource(seed))
	pairs := len(serveKinds) * len(serveDesigns)
	fresh := passes * pairs
	n := fresh + int(math.Round(float64(fresh)*serveRepeatShare/(1-serveRepeatShare)))
	repeat := make([]bool, n)
	for _, i := range rng.Perm(n - 1)[:n-fresh] {
		repeat[i+1] = true // the first request is always fresh
	}
	var seen, out []splitmfg.JobRequest
	var pass []int
	for i := 0; i < n; i++ {
		if repeat[i] {
			out = append(out, seen[rng.Intn(len(seen))])
			continue
		}
		if len(pass) == 0 {
			pass = rng.Perm(pairs)
		}
		pair := pass[0]
		pass = pass[1:]
		req := splitmfg.JobRequest{
			Kind:      serveKinds[pair/len(serveDesigns)],
			Benchmark: serveDesigns[pair%len(serveDesigns)],
			Seed:      1 + rng.Int63n(1<<31),
		}
		if req.Kind == splitmfg.JobProtect {
			// Without escalation a protect job costs about what the other
			// kinds cost on the same design. With it, protect on the two
			// largest designs takes 2-4x longer and forms a cluster of
			// about 9% of the requests, so the 90th percentile would sit
			// on the gap below that cluster and jump from seed to seed.
			req.MaxAttempts = 1
		}
		seen = append(seen, req)
		out = append(out, req)
	}
	return out
}
