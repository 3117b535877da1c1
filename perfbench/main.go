// Command perfbench runs one repetition of one PIER benchmark workload
// and prints its measurements as a single JSON line. run.py (next to
// this file) builds it, repeats it, checks determinism across the
// repetitions and aggregates the figures the benchmark reports.
//
//	perfbench -workload ring-build -seed 1 [-sim-seed 1] [-profile cpu.pprof]
//
// Each workload drives the system through its public packages on the
// sequential scheduler (workers=0): one goroutine plus the garbage
// collector. Every answer is checked against an oracle the workload
// computes itself; a wrong answer is counted as failed, never dropped.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"pier/internal/qp"
	"pier/internal/sim"
)

// scenario is one benchmark workload. setup builds the cluster and loads
// data; run is the measured phase; check compares the outcome with the
// workload's own oracle.
type scenario interface {
	setup(seed int64, d deployment, sp *spans)
	run(sp *spans)
	check() outcome
	// cluster returns the environment and nodes for the common counters.
	cluster() (*sim.Env, []*qp.Node)
}

// outcome is an oracle verdict: attempted operations, how many of them
// failed, the first few failure descriptions, and the workload's
// deterministic virtual-time and count metrics.
type outcome struct {
	attempted, failed int
	errs              []string
	det               map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < 8 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// newScenario sizes are chosen so one repetition takes a few seconds of
// wall time on a 2-vCPU machine; see README.md for why each workload
// exists and which layers it loads.
func newScenario(name string) (scenario, error) {
	switch name {
	case "ring-build":
		return &ringBuild{n: 256, probes: 6000, perTick: 20, tick: 200 * time.Millisecond}, nil
	case "adhoc-agg":
		return &adhocAgg{n: 128, rows: 1000, sources: 400, clients: 4, perClient: 2,
			timeout: 10 * time.Second, probes: 1000}, nil
	case "qstorm":
		return &qstorm{n: 64, queries: 1000, shapes: 5, clients: 10, events: 200,
			duration: 30 * time.Second, flush: 5 * time.Second, probes: 1000}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want ring-build, adhoc-agg or qstorm)", name)
}

// rep is one repetition's record, the line run.py reads.
type rep struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	SetupS    float64            `json:"setup_s"`
	RunS      float64            `json:"run_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors"`
	Det       map[string]float64 `json:"det"`
	Measured  map[string]float64 `json:"measured"`
	CPU       map[string]float64 `json:"cpu,omitempty"`
	Spans     map[string]float64 `json:"spans,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload: ring-build, adhoc-agg or qstorm")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs: probe keys and sources, stored rows, published events, adhoc-agg's query proxies")
	simSeed := flag.Int64("sim-seed", defaultSimSeed, "simulation seed of the deployment; any other than the default also renames the nodes, giving a different ring")
	profile := flag.String("profile", "", "write a CPU profile of the measured phase here and attribute it to layers")
	flag.Parse()
	w, err := newScenario(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r, err := runRep(w, *name, *seed, newDeployment(*simSeed), *profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runRep runs setup, the measured phase and the oracle once. With a
// profile path the measured phase runs under the CPU profiler and the
// driver records spans; otherwise spans are a no-op so the plain run
// measures the program alone.
func runRep(w scenario, name string, seed int64, d deployment, profile string) (*rep, error) {
	sp := &spans{on: profile != ""}
	t0 := time.Now()
	w.setup(seed, d, sp)
	setup := time.Since(t0)

	env, nodes := w.cluster()
	ev0, msg0, bytes0 := env.Stats()
	v0 := env.Now()
	routed0, hops0 := routerTotals(nodes)
	// Start the measured phase from a collected heap, so garbage left by
	// set-up is not charged to it.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	var pf *os.File
	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			return nil, fmt.Errorf("create profile: %w", err)
		}
		pf = f
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("start profile: %w", err)
		}
	}
	t1 := time.Now()
	w.run(sp)
	runWall := time.Since(t1)
	if pf != nil {
		pprof.StopCPUProfile()
		if err := pf.Close(); err != nil {
			return nil, fmt.Errorf("close profile: %w", err)
		}
	}
	runtime.ReadMemStats(&ms1)

	env, nodes = w.cluster()
	ev1, msg1, bytes1 := env.Stats()
	virt := env.Now().Sub(v0).Seconds()
	routed1, hops1 := routerTotals(nodes)

	end := sp.begin("oracle")
	o := w.check()
	end()

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r := &rep{
		Workload:  name,
		Seed:      seed,
		SetupS:    setup.Seconds(),
		RunS:      runWall.Seconds(),
		PeakRSSMB: rss,
		Attempted: o.attempted,
		Failed:    o.failed,
		Errors:    o.errs,
		Det:       o.det,
	}
	events := float64(ev1 - ev0)
	perNodeS := float64(len(nodes)) * virt
	r.Det["sim.events"] = events
	r.Det["sim.msgs"] = float64(msg1 - msg0)
	r.Det["sim.kb"] = float64(bytes1-bytes0) / 1024
	r.Det["msgs_per_node_s"] = float64(msg1-msg0) / perNodeS
	r.Det["kb_per_node_s"] = float64(bytes1-bytes0) / 1024 / perNodeS
	r.Det["overlay.hops_per_route"] = ratio(float64(hops1-hops0), float64(routed1-routed0))
	for k, v := range qpCounters(nodes) {
		r.Det[k] = v
	}
	allocs := float64(ms1.Mallocs - ms0.Mallocs)
	r.Measured = map[string]float64{
		"sim.events_per_s":     events / runWall.Seconds(),
		"sim.allocs_per_event": ratio(allocs, events),
		"heap.allocs":          allocs,
		"heap.alloc_mb":        float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		"gc.cycles":            float64(ms1.NumGC - ms0.NumGC),
		"gc.pause_ms":          float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
	}
	if profile != "" {
		cpu, err := attributeProfile(profile)
		if err != nil {
			return nil, err
		}
		r.CPU = cpu
	}
	if sp.on {
		r.Spans = sp.totals()
	}
	return r, nil
}

// routerTotals sums every node's overlay routing counters.
func routerTotals(nodes []*qp.Node) (routed, hops uint64) {
	for _, n := range nodes {
		r, h := n.DHT().RouterStats()
		routed += r
		hops += h
	}
	return routed, hops
}

// qpCounters sums the query-runtime counters the per-layer report uses.
func qpCounters(nodes []*qp.Node) map[string]float64 {
	var st qp.NodeStats
	for _, n := range nodes {
		s := n.Stats()
		st.ChainFeeds += s.ChainFeeds
		st.SubtreeHits += s.SubtreeHits
		st.SubtreeBuilds += s.SubtreeBuilds
		st.ResultsSent += s.ResultsSent
		st.BatchFrames += s.BatchFrames
		st.BatchedGraphs += s.BatchedGraphs
		st.SendRetries += s.SendRetries
		st.SendExhausted += s.SendExhausted
	}
	return map[string]float64{
		"exec.chain_feeds":      float64(st.ChainFeeds),
		"exec.subtree_hit_rate": ratio(float64(st.SubtreeHits), float64(st.SubtreeHits+st.SubtreeBuilds)),
		"qp.results_sent":       float64(st.ResultsSent),
		"qp.graphs_per_frame":   ratio(float64(st.BatchedGraphs), float64(st.BatchFrames)),
		"qp.send_retries":       float64(st.SendRetries),
		"qp.send_exhausted":     float64(st.SendExhausted),
	}
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the nearest-rank q-quantile of sorted durations in
// milliseconds.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := max(int(math.Ceil(q*float64(len(sorted))))-1, 0)
	return float64(sorted[i]) / float64(time.Millisecond)
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
