package qp

import (
	"fmt"
	"strings"
	"time"

	"pier/internal/exec"
	"pier/internal/expr"
	"pier/internal/ufl"
	"pier/internal/vri"
)

// liveGraph is one instantiated opgraph executing at this node: the
// graph id, the probe tag, the roots, and the teardown hooks. It keeps
// only what a running graph owns: the decoded opgraph and the id-keyed
// operator map are build-time state of instantiate and are dropped once
// the graph is wired, so a node running thousands of continuous queries
// holds no copy of their plans.
type liveGraph struct {
	n  *Node
	rq *runningQuery
	// id is the opgraph's id, which redundant-delivery dedup matches on
	// (acceptGraph).
	id string

	roots   []exec.Op
	tag     exec.Tag
	cancels []func()
	timers  []vri.Timer
	closed  bool

	// sig is the opgraph's structural signature (ufl), tracked for the
	// node's sharing statistics.
	sig uint64
	// wheelEntry is this graph's registration on the node's coalesced
	// flush wheel (nil when the graph has no flushevery interval, and
	// always nil on the shared path — the subtree owns the registration).
	wheelEntry *wheelEntry

	flushEvery time.Duration

	// shared/demuxTarget are set when this graph runs on the shared-
	// subtree path (subtree.go): roots then holds only the private tail,
	// attached to the shared chain's demux under this graph's tag.
	shared      *sharedSubtree
	demuxTarget *exec.DemuxTarget
	// client is the submitting client id, for the per-client quota ledger.
	client string
}

// opHost implementation (subtree.go): the private-graph flavor.
func (lg *liveGraph) node() *Node        { return lg.n }
func (lg *liveGraph) addCancel(c func()) { lg.cancels = append(lg.cancels, c) }
func (lg *liveGraph) done() bool         { return lg.closed }

// instantiate builds the local dataflow for an opgraph (§3.3.2: "when a
// node receives an opgraph it creates an instance of each operator in
// the graph and establishes the dataflow links between the operators").
// Tags scope operator state per instantiation and never leave the node,
// so the counter is per-node: a package global would be written from
// every shard worker under the sharded scheduler.
func (n *Node) instantiate(rq *runningQuery, g ufl.Opgraph) (*liveGraph, error) {
	n.tagCounter++
	lg := &liveGraph{n: n, rq: rq, id: g.ID, tag: n.tagCounter}
	sig, subtree := g.Signatures(rq.id)
	lg.sig = sig

	// Share-eligible graphs take the subtree path: the chain beneath the
	// tail resolves through the node's signature-keyed cache (one shared
	// instance, however many queries), and only the tail is private.
	if tail, topID, ok := sharePlan(&g); ok {
		if err := n.attachShared(lg, g, tail, topID, subtree[topID]); err != nil {
			return nil, err
		}
		return lg, nil
	}

	ops := make(map[string]exec.Op, len(g.Ops))
	for _, spec := range g.Ops {
		op, err := lg.buildOp(spec)
		if err != nil {
			return nil, fmt.Errorf("qp: opgraph %q op %q: %w", g.ID, spec.ID, err)
		}
		ops[spec.ID] = op
		if fe := spec.Arg("flushevery", ""); fe != "" {
			d, err := time.ParseDuration(fe)
			if err != nil {
				return nil, fmt.Errorf("qp: opgraph %q op %q: bad flushevery: %w", g.ID, spec.ID, err)
			}
			if lg.flushEvery == 0 || d < lg.flushEvery {
				lg.flushEvery = d
			}
		}
	}

	// Wire edges: the consumer adopts the producer as a child on the
	// given input slot. Producers feeding several consumers must be Tee.
	fanOut := make(map[string]int)
	for _, e := range g.Edges {
		fanOut[e.From]++
	}
	for _, e := range g.Edges {
		if fanOut[e.From] > 1 && !strings.EqualFold(g.Op(e.From).Kind, "tee") {
			return nil, fmt.Errorf("qp: opgraph %q: op %q feeds %d consumers; insert a Tee", g.ID, e.From, fanOut[e.From])
		}
		if err := attachChild(ops[e.To], e.Slot, ops[e.From]); err != nil {
			return nil, fmt.Errorf("qp: opgraph %q: edge %s->%s: %w", g.ID, e.From, e.To, err)
		}
	}

	// Roots are operators nobody consumes; probes start there.
	consumed := make(map[string]bool)
	for _, e := range g.Edges {
		consumed[e.From] = true
	}
	for _, spec := range g.Ops {
		if !consumed[spec.ID] {
			lg.roots = append(lg.roots, ops[spec.ID])
		}
	}
	if len(lg.roots) == 0 {
		return nil, fmt.Errorf("qp: opgraph %q has no root operator (cycle?)", g.ID)
	}
	return lg, nil
}

// attachChild wires child as an input of parent on the given slot,
// dispatching on the operator's wiring surface.
func attachChild(parent exec.Op, slot int, child exec.Op) error {
	switch p := parent.(type) {
	case *exec.SymmetricHashJoin:
		switch slot {
		case 0:
			p.SetLeft(child)
		case 1:
			p.SetRight(child)
		default:
			return fmt.Errorf("join has slots 0 and 1, got %d", slot)
		}
		return nil
	case *exec.Union:
		p.AddChild(child)
		return nil
	case interface{ SetChild(exec.Op) }:
		p.SetChild(child)
		return nil
	default:
		return fmt.Errorf("operator %T accepts no inputs", parent)
	}
}

// open issues the initial probe on every root and registers on the
// node's flush wheel for continuous queries: all graphs sharing a
// flushevery period ride ONE node-level timer instead of arming one
// each (see wheel.go).
func (lg *liveGraph) open() {
	for _, r := range lg.roots {
		r.Open(lg.tag)
	}
	if lg.flushEvery > 0 {
		lg.wheelEntry = lg.n.wheel.add(lg.flushEvery, lg)
	}
}

// flush forces stateful operators to emit (timeout- or timer-driven,
// §3.3.2). On the shared path the chain flushes once under its own tag
// and the demux emits to EVERY attached tail — the shared-window
// contract (subtree.go).
func (lg *liveGraph) flush() {
	if lg.shared != nil {
		lg.shared.flush()
		return
	}
	for _, r := range lg.roots {
		r.Flush(lg.tag)
	}
}

// close releases operators, cancels subscriptions and timers, detaches
// from the flush wheel (or the shared chain's demux — the last detach
// retires the chain), and returns the graph's admission slot.
func (lg *liveGraph) close() {
	if lg.closed {
		return
	}
	lg.closed = true
	lg.n.liveGraphs--
	lg.n.clientGraphClosed(lg.client)
	if c := lg.n.sigCounts[lg.sig]; c <= 1 {
		delete(lg.n.sigCounts, lg.sig)
	} else {
		lg.n.sigCounts[lg.sig] = c - 1
	}
	if lg.wheelEntry != nil {
		lg.wheelEntry.remove()
	}
	if lg.demuxTarget != nil {
		lg.demuxTarget.Detach()
	}
	for _, c := range lg.cancels {
		c()
	}
	for _, t := range lg.timers {
		t.Cancel()
	}
	for _, r := range lg.roots {
		r.Close()
	}
}

// buildOp constructs one operator instance from its spec. Kind names are
// case-insensitive. The deterministic, host-agnostic kinds live in
// buildSharedOp (subtree.go — the same constructors serve shared
// chains); this switch adds the private-only operators: catch-up scans,
// the network-facing operators of netops.go, randomized routing, and the
// per-query tails.
func (lg *liveGraph) buildOp(spec ufl.OpSpec) (exec.Op, error) {
	if op, handled, err := buildSharedOp(lg, spec); handled {
		return op, err
	}
	switch strings.ToLower(spec.Kind) {
	case "scan":
		table := spec.Arg("table", spec.Arg("ns", ""))
		if table == "" {
			return nil, fmt.Errorf("Scan needs table=")
		}
		return newScan(lg, table, true, spec.Arg("only", "")), nil

	case "fetchmatches":
		ns := spec.Arg("ns", spec.Arg("table", ""))
		keyCols := splitList(spec.Arg("key", ""))
		if ns == "" || len(keyCols) == 0 {
			return nil, fmt.Errorf("FetchMatches needs ns= and key=")
		}
		fm := lg.newFetchMatches(ns, keyCols)
		if out := spec.Arg("out", ""); out != "" {
			fm.outTable = out
		}
		if spec.Arg("prefix", "true") == "false" {
			fm.prefix = false
		}
		if spec.Arg("semijoin", "") == "true" {
			fm.semiJoin = true
		}
		return fm, nil

	case "hieragg":
		return lg.newHierAgg(spec)

	case "bloombuild":
		return lg.newBloomBuild(spec)

	case "bloomfilter":
		return lg.newBloomFilter(spec)

	case "eddy":
		e := exec.NewEddy(lg.n.rt.Rand())
		preds := spec.Arg("preds", "")
		if preds == "" {
			return nil, fmt.Errorf("Eddy needs preds='p1; p2; ...'")
		}
		for i, src := range strings.Split(preds, ";") {
			src = strings.TrimSpace(src)
			if src == "" {
				continue
			}
			p, err := expr.Parse(src)
			if err != nil {
				return nil, fmt.Errorf("Eddy module %d: %w", i, err)
			}
			e.AddModule(fmt.Sprintf("m%d", i), p)
		}
		return e, nil

	case "put":
		return lg.buildPut(spec, false)

	case "send":
		return lg.buildPut(spec, true)

	case "result":
		return lg.newResult(), nil

	default:
		return nil, fmt.Errorf("unknown operator kind %q", spec.Kind)
	}
}

// buildPut constructs the rehash operator from its spec.
func (lg *liveGraph) buildPut(spec ufl.OpSpec, send bool) (exec.Op, error) {
	ns := spec.Arg("ns", "")
	keyCols := splitList(spec.Arg("key", ""))
	fixed := spec.Arg("fixedkey", "")
	if ns == "" || (len(keyCols) == 0 && fixed == "") {
		return nil, fmt.Errorf("%s needs ns= and key= (or fixedkey=)", spec.Kind)
	}
	p := lg.newPut(ns, keyCols, send)
	p.fixedKey = fixed
	return p, nil
}

// splitList parses "a, b, c" into trimmed fields; empty input gives nil.
func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseProjectCols parses "expr as name; expr as name" (or bare column
// names separated by commas).
func parseProjectCols(src string) ([]exec.ProjectCol, error) {
	src = strings.TrimSpace(src)
	if src == "" {
		return nil, fmt.Errorf("Project needs cols=")
	}
	var out []exec.ProjectCol
	sep := ";"
	if !strings.Contains(src, ";") {
		sep = ","
	}
	for _, part := range strings.Split(src, sep) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name := part
		exprSrc := part
		if i := strings.LastIndex(strings.ToLower(part), " as "); i >= 0 {
			exprSrc = strings.TrimSpace(part[:i])
			name = strings.TrimSpace(part[i+4:])
		}
		e, err := expr.Parse(exprSrc)
		if err != nil {
			return nil, fmt.Errorf("Project col %q: %w", part, err)
		}
		out = append(out, exec.ProjectCol{Name: name, E: e})
	}
	return out, nil
}

// ParseAggSpecs parses "count(*) as cnt; sum(bytes) as total" into
// aggregate specs. Exported for the SQL frontend.
func ParseAggSpecs(src string) ([]exec.AggSpec, error) {
	src = strings.TrimSpace(src)
	if src == "" {
		return nil, fmt.Errorf("aggregation needs aggs=")
	}
	var out []exec.AggSpec
	for _, part := range strings.Split(src, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		spec := part
		as := ""
		if i := strings.LastIndex(strings.ToLower(part), " as "); i >= 0 {
			spec = strings.TrimSpace(part[:i])
			as = strings.TrimSpace(part[i+4:])
		}
		open := strings.Index(spec, "(")
		if open < 0 || !strings.HasSuffix(spec, ")") {
			return nil, fmt.Errorf("bad aggregate %q: want fn(col) or fn(*)", part)
		}
		kind, ok := exec.ParseAggKind(strings.TrimSpace(spec[:open]))
		if !ok {
			return nil, fmt.Errorf("unknown aggregate %q", spec[:open])
		}
		col := strings.TrimSpace(spec[open+1 : len(spec)-1])
		if col == "*" {
			col = ""
		}
		out = append(out, exec.AggSpec{Kind: kind, Col: col, As: as})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("aggregation needs at least one aggregate")
	}
	return out, nil
}
