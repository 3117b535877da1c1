package main

import (
	"fmt"
	"math/rand"
	"time"

	"pier/internal/qp"
	"pier/internal/sim"
	"pier/internal/tuple"
	"pier/internal/ufl"
	"pier/internal/workload"
)

// stormPlan is one continuous count over the fwlogs stream, grouped by
// the publishing node so the driver can tell which nodes contributed.
// Shape 0 is the plain count; shape s > 0 inserts a Select whose
// constant differs per shape, making s distinct shared operator chains
// that still pass every event (ports top out at 3389).
func stormPlan(id string, shape int, flush, timeout time.Duration) (*ufl.Query, error) {
	sel, edges := "", "    agg <- src\n"
	if shape > 0 {
		sel = fmt.Sprintf("    sel = Select(pred='dstport <= %d')\n", 4000+shape)
		edges = "    sel <- src\n    agg <- sel\n"
	}
	return ufl.Parse(fmt.Sprintf(`
query %s timeout %s
opgraph g disseminate broadcast {
    src = NewData(table='fwlogs')
%s    agg = GroupBy(keys='node', aggs='count(*) as cnt', flushevery='%s')
    out = Result()
%s    out <- agg
}
`, id, timeout, sel, flush, edges))
}

// tally is one query's collector: rows counted and counts summed per
// contributing node, never the tuples themselves, so the process's peak
// memory is the system's and not the harness's.
type tally struct {
	err     error
	done    bool
	rows    int
	bad     int
	perNode []int64
}

// qstorm is the multi-query, write-streaming side of the same layers:
// many concurrent continuous aggregations in a few distinct shapes from
// several clients, while every node publishes firewall events at a
// fixed virtual interval (an open loop). Each publish is decoded once
// into the shared chains and results fan out through the batched result
// plane. Set-up is the cluster build.
type qstorm struct {
	n, queries, shapes, clients, events int
	duration, flush                     time.Duration
	probes                              int

	seed    int64
	sp      *spans
	env     *sim.Env
	nodes   []*qp.Node
	tallies []tally
	p       *probes
	build   time.Duration
}

func (w *qstorm) setup(seed int64, d deployment, sp *spans) {
	w.seed, w.sp = seed, sp
	w.env, w.nodes, w.build = d.build(w.n, sp)
	w.p = planProbes(newRing(addrsOf(w.nodes)), w.n, rand.New(rand.NewSource(seed)), w.probes)
}

func (w *qstorm) cluster() (*sim.Env, []*qp.Node) { return w.env, w.nodes }

// publisher is one node's event source: a node-context tick publishing
// from the node's own generator until its quota is spent.
type publisher struct {
	w        *qstorm
	index    int
	gen      *workload.FirewallGen
	interval time.Duration
	left     int
}

func (p *publisher) tick() {
	n := p.w.nodes[p.index]
	end := p.w.sp.begin("PublishLocal")
	ev := p.gen.Next(n.Runtime().Now())
	n.PublishLocal("fwlogs", tuple.New("fwlogs").
		Set("src", tuple.String(ev.Src)).
		Set("dstport", tuple.Int(int64(ev.DstPort))).
		Set("severity", tuple.Int(int64(ev.Severity))).
		Set("node", tuple.Int(int64(p.index))), 4*time.Hour)
	end()
	if p.left--; p.left > 0 {
		n.Runtime().Schedule(p.interval, p.tick)
	}
}

func (w *qstorm) run(sp *spans) {
	// Publishers start this long after the queries so every graph is
	// live before the first event lands; queries end a second after the
	// last event.
	const lead = 2 * time.Second
	timeout := lead + w.duration + time.Second
	w.tallies = make([]tally, w.queries)
	for i := range w.tallies {
		t := &w.tallies[i]
		t.perNode = make([]int64, len(w.nodes))
		plan, err := stormPlan(fmt.Sprintf("qs%d", i), i%w.shapes, w.flush, timeout)
		if err != nil {
			t.err = err
			continue
		}
		end := sp.begin("Node.Submit")
		t.err = w.nodes[i%len(w.nodes)].Submit(plan, fmt.Sprintf("tenant%d", i%w.clients),
			func(row *tuple.Tuple) { t.add(row) }, func() { t.done = true })
		end()
	}
	interval := w.duration / time.Duration(w.events)
	for i, n := range w.nodes {
		p := &publisher{w: w, index: i, interval: interval, left: w.events,
			gen: workload.NewFirewallGen(w.seed*1000003+int64(i), 64, 1.2)}
		n.Runtime().Schedule(lead+time.Duration(i*131)*time.Microsecond, p.tick)
	}
	w.p.schedule(w.nodes, perSecond(w.probes, w.duration), time.Second)
	end := sp.begin("Env.Run")
	// The storm, the proxies' done-grace, and teardown.
	w.env.Run(timeout + 12*time.Second)
	end()
}

func (t *tally) add(row *tuple.Tuple) {
	nv, ok1 := row.Get("node")
	cv, ok2 := row.Get("cnt")
	node, ok3 := nv.AsInt()
	cnt, ok4 := cv.AsInt()
	if !ok1 || !ok2 || !ok3 || !ok4 || node < 0 || int(node) >= len(t.perNode) {
		t.bad++
		return
	}
	t.rows++
	t.perNode[node] += cnt
}

func (w *qstorm) check() outcome {
	o := outcome{det: map[string]float64{"build_virtual_s": w.build.Seconds()}}
	minComplete := 1.0
	for i := range w.tallies {
		o.attempted++
		c, msg := verifyTally(&w.tallies[i], int64(w.events))
		if c < minComplete {
			minComplete = c
		}
		if msg != "" {
			o.fail("query qs%d: %s", i, msg)
		}
	}
	o.det["qp.completeness_min"] = minComplete
	o.attempted++
	if msg := teardownLeaks(w.nodes); msg != "" {
		o.fail("after teardown: %s", msg)
	}
	w.p.check(&o)
	return o
}

// verifyTally returns the query's completeness (contributing nodes over
// nodes) and "" when every node's events were counted exactly once, so
// that the counts sum to nodes x events.
func verifyTally(t *tally, perNode int64) (float64, string) {
	contributed := 0
	for _, c := range t.perNode {
		if c > 0 {
			contributed++
		}
	}
	complete := ratio(float64(contributed), float64(len(t.perNode)))
	switch {
	case t.err != nil:
		return complete, t.err.Error()
	case !t.done:
		return complete, "did not complete"
	case t.bad > 0:
		return complete, fmt.Sprintf("%d malformed rows", t.bad)
	case contributed < len(t.perNode):
		return complete, fmt.Sprintf("completeness %d/%d", contributed, len(t.perNode))
	}
	for node, c := range t.perNode {
		if c != perNode {
			return complete, fmt.Sprintf("node %d counted %d events, published %d", node, c, perNode)
		}
	}
	return complete, ""
}

// teardownLeaks checks that every query released its state and that no
// published event failed to decode.
func teardownLeaks(nodes []*qp.Node) string {
	var st qp.NodeStats
	for _, n := range nodes {
		s := n.Stats()
		st.LiveGraphs += s.LiveGraphs
		st.Subscriptions += s.Subscriptions
		st.SharedSubtrees += s.SharedSubtrees
		st.SubtreeAttachments += s.SubtreeAttachments
		st.TrackedClients += s.TrackedClients
		st.PendingSends += s.PendingSends
		st.MalformedDrops += s.MalformedDrops
		st.GraphsRejected += s.GraphsRejected
	}
	if st.LiveGraphs+st.Subscriptions+st.SharedSubtrees+st.SubtreeAttachments+st.TrackedClients+st.PendingSends > 0 ||
		st.MalformedDrops+st.GraphsRejected > 0 {
		return fmt.Sprintf("graphs=%d subscriptions=%d subtrees=%d attachments=%d clients=%d pending-sends=%d malformed=%d rejected=%d",
			st.LiveGraphs, st.Subscriptions, st.SharedSubtrees, st.SubtreeAttachments, st.TrackedClients,
			st.PendingSends, st.MalformedDrops, st.GraphsRejected)
	}
	return ""
}
