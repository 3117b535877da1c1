package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"pier/internal/qp"
	"pier/internal/sim"
	"pier/internal/sqlfront"
	"pier/internal/tuple"
	"pier/internal/workload"
)

// aggShape is one ad-hoc SQL aggregation over the stored firewall table
// and the column pair its answer is read from. topK > 0 marks an ORDER
// BY ... LIMIT query, compared tie-aware; otherwise every group must be
// present with the exact value.
type aggShape struct {
	sql       string
	key, val  string
	topK      int
	truthFrom func(src string, dstport, severity int64) (key string, v float64, ok bool)
	avg       bool
}

// adhocShapes cycle over the queries: Figure 2's top-10 sources by
// count, the same with a WHERE filter, and SUM and AVG by port.
var adhocShapes = []aggShape{
	{
		sql: "SELECT src, COUNT(*) AS cnt FROM fwlogs GROUP BY src ORDER BY cnt DESC LIMIT 10",
		key: "src", val: "cnt", topK: 10,
		truthFrom: func(src string, _, _ int64) (string, float64, bool) { return src, 1, true },
	},
	{
		sql: "SELECT src, COUNT(*) AS cnt FROM fwlogs WHERE severity >= 4 GROUP BY src ORDER BY cnt DESC LIMIT 10",
		key: "src", val: "cnt", topK: 10,
		truthFrom: func(src string, _, sev int64) (string, float64, bool) { return src, 1, sev >= 4 },
	},
	{
		sql: "SELECT dstport, SUM(severity) AS total FROM fwlogs GROUP BY dstport",
		key: "dstport", val: "total",
		truthFrom: func(_ string, port, sev int64) (string, float64, bool) {
			return fmt.Sprint(port), float64(sev), true
		},
	},
	{
		sql: "SELECT dstport, AVG(severity) AS mean FROM fwlogs GROUP BY dstport",
		key: "dstport", val: "mean", avg: true,
		truthFrom: func(_ string, port, sev int64) (string, float64, bool) {
			return fmt.Sprint(port), float64(sev), true
		},
	},
}

// truth is a shape's ground truth: per group, the summed value and the
// row count (the AVG divisor).
type truth struct {
	sum map[string]float64
	n   map[string]float64
}

func (t truth) value(key string, avg bool) float64 {
	if avg {
		return t.sum[key] / t.n[key]
	}
	return t.sum[key]
}

// answer is what the driver keeps of one query's result: the (key,
// value) pair of each row, never the tuples.
type answer struct {
	sql   string
	shape int
	err   error
	done  bool
	rows  []keyVal
	bad   int
}

type keyVal struct {
	key string
	v   float64
}

// adhocAgg is Figure 2 as private, read-heavy execution: a warm cluster
// whose nodes each store a Zipf firewall log, queried by a closed loop
// of clients, each sending its next one-shot SQL aggregation only after
// the previous answer arrived. Every query re-scans and re-decodes the
// stored table. Set-up is the cluster build plus the load.
type adhocAgg struct {
	n, rows, sources, clients, perClient int
	timeout                              time.Duration
	probes                               int

	sp      *spans
	env     *sim.Env
	nodes   []*qp.Node
	truth   []truth
	proxies []int
	answers []answer
	p       *probes
	build   time.Duration
}

func (w *adhocAgg) setup(seed int64, d deployment, sp *spans) {
	w.sp = sp
	w.env, w.nodes, w.build = d.build(w.n, sp)

	w.truth = make([]truth, len(adhocShapes))
	for i := range w.truth {
		w.truth[i] = truth{sum: map[string]float64{}, n: map[string]float64{}}
	}
	rng := rand.New(rand.NewSource(seed))
	w.proxies = make([]int, w.clients*w.perClient)
	for i := range w.proxies {
		w.proxies[i] = rng.Intn(w.n)
	}
	gen := workload.NewFirewallGen(rng.Int63(), w.sources, 1.2)
	for _, nd := range w.nodes {
		end := sp.begin("PublishLocal")
		for r := 0; r < w.rows; r++ {
			ev := gen.Next(w.env.Now())
			port, sev := int64(ev.DstPort), int64(ev.Severity)
			for i, s := range adhocShapes {
				if k, v, ok := s.truthFrom(ev.Src, port, sev); ok {
					w.truth[i].sum[k] += v
					w.truth[i].n[k]++
				}
			}
			nd.PublishLocal("fwlogs", tuple.New("fwlogs").
				Set("src", tuple.String(ev.Src)).
				Set("dstport", tuple.Int(port)).
				Set("severity", tuple.Int(sev)), 4*time.Hour)
		}
		end()
	}
	w.p = planProbes(newRing(addrsOf(w.nodes)), w.n, rng, w.probes)
}

func (w *adhocAgg) cluster() (*sim.Env, []*qp.Node) { return w.env, w.nodes }

// querySpan is the virtual time one query occupies its client: the query
// timeout plus the proxy's default 2s done-grace.
func (w *adhocAgg) querySpan() time.Duration { return w.timeout + 2*time.Second }

func (w *adhocAgg) run(sp *spans) {
	w.answers = make([]answer, w.clients*w.perClient)
	for c := 0; c < w.clients; c++ {
		w.submit(c, 0)
	}
	window := time.Duration(w.perClient) * w.querySpan()
	loop := w.p.schedule(w.nodes, perSecond(w.probes, window), time.Second)
	end := sp.begin("Env.Run")
	w.env.Run(max(window, loop+lookupTimeout) + time.Second)
	end()
}

// submit sends client c's k-th query; its completion sends the next.
func (w *adhocAgg) submit(c, k int) {
	q := c + w.clients*k
	a := &w.answers[q]
	a.shape = q % len(adhocShapes)
	a.sql = fmt.Sprintf("%s TIMEOUT %s", adhocShapes[a.shape].sql, w.timeout)
	end := w.sp.begin("sqlfront.Run")
	plan, err := sqlfront.Run(fmt.Sprintf("adhoc%d", q), a.sql, sqlfront.Options{})
	end()
	if err != nil {
		a.err = err
		return
	}
	s := adhocShapes[a.shape]
	proxy := w.nodes[w.proxies[q]]
	end = w.sp.begin("Node.Submit")
	err = proxy.Submit(plan, fmt.Sprintf("client%d", c), func(t *tuple.Tuple) {
		kv, ok := readKeyVal(t, s.key, s.val)
		if !ok {
			a.bad++
			return
		}
		a.rows = append(a.rows, kv)
	}, func() {
		a.done = true
		if k+1 < w.perClient {
			w.submit(c, k+1)
		}
	})
	end()
	if err != nil {
		a.err = err
	}
}

func readKeyVal(t *tuple.Tuple, key, val string) (keyVal, bool) {
	k, ok1 := t.Get(key)
	v, ok2 := t.Get(val)
	if !ok1 || !ok2 {
		return keyVal{}, false
	}
	f, ok := v.AsFloat()
	if !ok {
		return keyVal{}, false
	}
	return keyVal{key: k.String(), v: f}, true
}

func (w *adhocAgg) check() outcome {
	o := outcome{det: map[string]float64{"build_virtual_s": w.build.Seconds()}}
	for i := range w.answers {
		a := &w.answers[i]
		o.attempted++
		if msg := verifyAnswer(a, adhocShapes[a.shape], w.truth[a.shape]); msg != "" {
			o.fail("query %d (%s): %s", i, a.sql, msg)
		}
	}
	w.p.check(&o)
	return o
}

// verifyAnswer returns "" when the answer matches the ground truth, or
// a description of the first difference.
func verifyAnswer(a *answer, s aggShape, t truth) string {
	switch {
	case a.err != nil:
		return a.err.Error()
	case !a.done:
		return "no answer"
	case a.bad > 0:
		return fmt.Sprintf("%d malformed rows", a.bad)
	}
	seen := map[string]bool{}
	got := make([]float64, 0, len(a.rows))
	for _, r := range a.rows {
		if seen[r.key] {
			return fmt.Sprintf("group %s returned twice", r.key)
		}
		seen[r.key] = true
		want, ok := t.sum[r.key]
		if !ok {
			return fmt.Sprintf("group %s does not exist", r.key)
		}
		want = t.value(r.key, s.avg)
		if !closeTo(r.v, want) {
			return fmt.Sprintf("group %s = %v, want %v", r.key, r.v, want)
		}
		got = append(got, r.v)
	}
	if s.topK == 0 {
		if len(a.rows) != len(t.sum) {
			return fmt.Sprintf("%d groups, want %d", len(a.rows), len(t.sum))
		}
		return ""
	}
	// Tie-aware top-k: any k groups are right if their values are the k
	// largest values of the truth, so ties at the boundary may resolve
	// either way.
	all := make([]float64, 0, len(t.sum))
	for k := range t.sum {
		all = append(all, t.value(k, s.avg))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(all)))
	if len(all) > s.topK {
		all = all[:s.topK]
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(got)))
	if len(got) != len(all) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(all))
	}
	for i := range got {
		if got[i] != all[i] {
			return fmt.Sprintf("rank %d value %v, want %v", i+1, got[i], all[i])
		}
	}
	return ""
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}
