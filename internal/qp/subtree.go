package qp

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"pier/internal/exec"
	"pier/internal/expr"
	"pier/internal/tuple"
	"pier/internal/ufl"
)

// Operator-subtree sharing: the full multi-query optimization PIER
// sketches in §3.3.2, one level up from the shared access methods of
// bus.go. The table bus already decodes each arrival once and fans the
// SAME batch to every subscribed query — but each query still ran its
// whole operator chain privately, so 1000 same-shape continuous
// aggregations paid 1000× the Select/GroupBy work per publish. This file
// shares the chains themselves:
//
//   - Every arriving opgraph gets per-op subtree signatures
//     (ufl.Signatures: structural hash of the op plus everything
//     feeding it, query-id normalized). When the graph is share-eligible
//     (one tail over a NewData-fed chain of deterministic operators), the
//     node resolves the tail's input chain through a signature-keyed
//     cache: the first query BUILDS the chain, every structurally
//     identical later query ATTACHES to it.
//   - The shared chain executes once per publish under its own tag and
//     terminates in an exec.Demux, which fans output to each attached
//     query's private tail (Result/Put/Send) under that query's own tag —
//     downstream forwarding cannot tell it is not running privately.
//   - Retirement is refcounted through the demux's complist: the last
//     detaching query tears the chain down (wheel entry, bus
//     subscription, operator state) exactly once, OnEmpty-style.
//
// Sharing changes WHEN stateful operators flush, and the contract is
// deliberate: the shared chain has one window. A query attaching to an
// existing chain adopts the chain's current window (NewData semantics —
// no history is replayed, but in-window accumulation is shared), and any
// attached query's flush (wheel tick or its own timeout) emits the
// window to ALL attached tails. Graphs whose semantics cannot share a
// window — catch-up Scans, per-query rendezvous (HierAgg, FetchMatches,
// Put destinations are fine: they're tails), randomized routing (Eddy) —
// are excluded by sharePlan and keep the private path unchanged.

// opHost is the surface an operator under construction needs from its
// owner, implemented by both the private liveGraph and the shared
// subtree: node access for runtime services, cancel registration for
// subscriptions, and the teardown flag dispatch paths check.
type opHost interface {
	node() *Node
	addCancel(func())
	done() bool
}

// shareableOpKinds are the operator kinds that may live inside a shared
// subtree: deterministic, node-local (or bus-fed), and keyed purely by
// their spec. Excluded on purpose: scan (catch-up replays history, which
// a late attacher must not receive), eddy (randomized routing order),
// hieragg (per-query rendezvous namespace and timers), fetchmatches and
// the bloom operators (per-probe DHT state), and the tails themselves.
var shareableOpKinds = map[string]bool{
	"newdata": true, "select": true, "project": true, "join": true,
	"groupby": true, "dupelim": true, "limit": true, "topk": true,
	"union": true, "tee": true, "queue": true,
}

// sharePlan decides share-eligibility for an opgraph: exactly one tail
// (Result/Put/Send) consuming exactly one input chain, every chain
// operator of a shareable kind. It returns the tail's spec and the id of
// the chain's top operator (the tail's single producer).
func sharePlan(g *ufl.Opgraph) (tail ufl.OpSpec, topID string, ok bool) {
	consumed := make(map[string]bool)
	fanOut := make(map[string]int)
	for _, e := range g.Edges {
		consumed[e.From] = true
		fanOut[e.From]++
	}
	tails := 0
	for _, op := range g.Ops {
		if !consumed[op.ID] {
			tail = op
			tails++
		}
	}
	if tails != 1 {
		return tail, "", false
	}
	switch strings.ToLower(tail.Kind) {
	case "result", "put", "send":
	default:
		return tail, "", false
	}
	tailIn := 0
	for _, e := range g.Edges {
		if e.To == tail.ID {
			tailIn++
			topID = e.From
		}
	}
	// The chain's top must feed the tail alone: a top that also fans
	// elsewhere would leave the demux replacing only one branch.
	if tailIn != 1 || fanOut[topID] != 1 {
		return tail, "", false
	}
	for _, op := range g.Ops {
		if op.ID == tail.ID {
			continue
		}
		if !shareableOpKinds[strings.ToLower(op.Kind)] {
			return tail, "", false
		}
	}
	return tail, topID, true
}

// sharedSubtree is one refcounted operator chain serving every attached
// query with the same subtree signature. It mirrors liveGraph's
// lifecycle surface (open/flush/close discipline, wheel registration,
// cancel list) but is owned by the node's cache, not a query.
type sharedSubtree struct {
	n   *Node
	sig uint64

	roots   []exec.Op // the chain's top; probes/flushes start here
	demux   *exec.Demux
	tag     exec.Tag // the chain's own probe tag; tails re-tag via demux
	cancels []func()

	wheelEntry *wheelEntry
	flushEvery time.Duration
	closed     bool
}

func (st *sharedSubtree) node() *Node        { return st.n }
func (st *sharedSubtree) addCancel(c func()) { st.cancels = append(st.cancels, c) }
func (st *sharedSubtree) done() bool         { return st.closed }

// flush forces the shared chain to emit its current window — through the
// demux, to every attached tail (see the window-sharing contract above).
func (st *sharedSubtree) flush() {
	for _, r := range st.roots {
		r.Flush(st.tag)
	}
}

// open issues the chain's first probe and registers its (single) wheel
// entry; called once at build, never per attachment.
func (st *sharedSubtree) open() {
	for _, r := range st.roots {
		r.Open(st.tag)
	}
	if st.flushEvery > 0 {
		st.wheelEntry = st.n.wheel.add(st.flushEvery, st)
	}
}

// retire tears the chain down after the last query detaches: wheel entry,
// bus subscriptions, operator state, cache slot. Wired as the demux's
// OnEmpty, so it runs exactly once and outside any in-flight dispatch.
func (st *sharedSubtree) retire() {
	if st.closed {
		return
	}
	st.closed = true
	if st.n.subtrees[st.sig] == st {
		delete(st.n.subtrees, st.sig)
	}
	if st.wheelEntry != nil {
		st.wheelEntry.remove()
	}
	for _, c := range st.cancels {
		c()
	}
	for _, r := range st.roots {
		r.Close()
	}
}

// fanoutSink wraps a per-query tail as a demux target, counting shared
// deliveries on the node so the sharing win is observable (Stats).
type fanoutSink struct {
	n *Node
	s exec.Sink
}

func (f fanoutSink) Push(tag exec.Tag, t *tuple.Tuple) {
	f.n.sharedFanout++
	f.s.Push(tag, t)
}

func (f fanoutSink) PushBatch(tag exec.Tag, b *tuple.Batch) {
	f.n.sharedFanout++
	exec.PushBatchTo(f.s, tag, b)
}

// attachShared runs lg on the shared-subtree path: build the query's
// private tail, resolve (or build) the shared chain under key, the
// subtree signature of the tail's input, and attach the tail to the
// chain's demux under the query's own tag. The tail builds FIRST so a
// build error leaves no freshly built zero-refcount chain behind.
func (n *Node) attachShared(lg *liveGraph, g ufl.Opgraph, tail ufl.OpSpec, topID string, key uint64) error {
	tailOp, err := lg.buildOp(tail)
	if err != nil {
		return fmt.Errorf("qp: opgraph %q op %q: %w", g.ID, tail.ID, err)
	}
	st := n.subtrees[key]
	if st == nil {
		st, err = n.buildSubtree(g, tail.ID, topID, key)
		if err != nil {
			return err
		}
		n.subtrees[key] = st
		n.subtreeBuilds++
		st.open()
	} else {
		n.subtreeHits++
	}
	lg.roots = []exec.Op{tailOp}
	lg.shared = st
	lg.demuxTarget = st.demux.Attach(lg.tag, fanoutSink{n: n, s: tailOp})
	return nil
}

// buildSubtree constructs the shared chain for an opgraph minus its
// tail, under a fresh chain-private tag, terminated by a demux.
func (n *Node) buildSubtree(g ufl.Opgraph, tailID, topID string, sig uint64) (*sharedSubtree, error) {
	n.tagCounter++
	st := &sharedSubtree{n: n, sig: sig, tag: n.tagCounter, demux: &exec.Demux{}}
	ops := make(map[string]exec.Op, len(g.Ops))
	for _, spec := range g.Ops {
		if spec.ID == tailID {
			continue
		}
		op, handled, err := buildSharedOp(st, spec)
		if err != nil {
			return nil, fmt.Errorf("qp: opgraph %q op %q: %w", g.ID, spec.ID, err)
		}
		if !handled {
			// sharePlan vetted every kind; reaching here is a bug, but
			// degrade to an error instead of a panic.
			return nil, fmt.Errorf("qp: opgraph %q op %q: kind %q not shareable", g.ID, spec.ID, spec.Kind)
		}
		ops[spec.ID] = op
		if fe := spec.Arg("flushevery", ""); fe != "" {
			d, err := time.ParseDuration(fe)
			if err != nil {
				return nil, fmt.Errorf("qp: opgraph %q op %q: bad flushevery: %w", g.ID, spec.ID, err)
			}
			if st.flushEvery == 0 || d < st.flushEvery {
				st.flushEvery = d
			}
		}
	}

	// Wire edges among chain ops, with the same Tee fan-out discipline as
	// the private path; the tail's input edge is replaced by the demux.
	fanOut := make(map[string]int)
	for _, e := range g.Edges {
		if e.From == tailID || e.To == tailID {
			continue
		}
		fanOut[e.From]++
	}
	for _, e := range g.Edges {
		if e.From == tailID || e.To == tailID {
			continue
		}
		if fanOut[e.From] > 1 && !strings.EqualFold(g.Op(e.From).Kind, "tee") {
			return nil, fmt.Errorf("qp: opgraph %q: op %q feeds %d consumers; insert a Tee", g.ID, e.From, fanOut[e.From])
		}
		if err := attachChild(ops[e.To], e.Slot, ops[e.From]); err != nil {
			return nil, fmt.Errorf("qp: opgraph %q: edge %s->%s: %w", g.ID, e.From, e.To, err)
		}
	}
	top := ops[topID]
	if top == nil {
		return nil, fmt.Errorf("qp: opgraph %q: chain top %q missing", g.ID, topID)
	}
	top.SetParent(st.demux)
	st.roots = append(st.roots, top)
	st.demux.OnEmpty(st.retire)
	return st, nil
}

// buildSharedOp constructs the operators allowed inside shared subtrees —
// the deterministic, host-agnostic subset of the physical-operator menu.
// handled=false means the kind belongs to the private path (liveGraph's
// buildOp picks it up).
func buildSharedOp(h opHost, spec ufl.OpSpec) (op exec.Op, handled bool, err error) {
	switch strings.ToLower(spec.Kind) {
	case "newdata":
		table := spec.Arg("table", spec.Arg("ns", ""))
		if table == "" {
			return nil, true, fmt.Errorf("NewData needs table=")
		}
		return newScan(h, table, false, spec.Arg("only", "")), true, nil

	case "select":
		pred, perr := expr.Parse(spec.Arg("pred", "true"))
		if perr != nil {
			return nil, true, perr
		}
		return exec.NewSelect(pred), true, nil

	case "project":
		cols, perr := parseProjectCols(spec.Arg("cols", ""))
		if perr != nil {
			return nil, true, perr
		}
		return exec.NewProject(cols...), true, nil

	case "join":
		left := splitList(spec.Arg("leftkey", spec.Arg("key", "")))
		right := splitList(spec.Arg("rightkey", spec.Arg("key", "")))
		if len(left) == 0 || len(right) == 0 || len(left) != len(right) {
			return nil, true, fmt.Errorf("Join needs matching leftkey= and rightkey=")
		}
		j := exec.NewSymmetricHashJoin(left, right)
		if out := spec.Arg("out", ""); out != "" {
			j.OutTable = out
		}
		if spec.Arg("prefix", "true") == "false" {
			j.PrefixCols = false
		}
		return j, true, nil

	case "groupby":
		keys := splitList(spec.Arg("keys", ""))
		aggs, perr := ParseAggSpecs(spec.Arg("aggs", ""))
		if perr != nil {
			return nil, true, perr
		}
		gb := exec.NewGroupBy(keys, aggs)
		if out := spec.Arg("out", ""); out != "" {
			gb.OutTable = out
		}
		return gb, true, nil

	case "topk":
		k, aerr := strconv.Atoi(spec.Arg("k", "10"))
		if aerr != nil || k <= 0 {
			return nil, true, fmt.Errorf("TopK needs positive k=")
		}
		col := spec.Arg("col", "")
		if col == "" {
			return nil, true, fmt.Errorf("TopK needs col=")
		}
		tk := exec.NewTopK(k, col)
		tk.Ascending = spec.Arg("asc", "") == "true"
		return tk, true, nil

	case "dupelim":
		return exec.NewDupElim(splitList(spec.Arg("cols", ""))...), true, nil

	case "limit":
		limN, aerr := strconv.Atoi(spec.Arg("n", ""))
		if aerr != nil || limN < 0 {
			return nil, true, fmt.Errorf("Limit needs n=")
		}
		return exec.NewLimit(limN), true, nil

	case "union":
		return exec.NewUnion(), true, nil

	case "tee":
		return exec.NewTee(), true, nil

	case "queue":
		rt := h.node().rt
		q := exec.NewQueue(func(fn func()) { rt.Schedule(0, fn) })
		if b := spec.Arg("batch", ""); b != "" {
			qn, aerr := strconv.Atoi(b)
			if aerr != nil {
				return nil, true, fmt.Errorf("Queue batch=: %w", aerr)
			}
			q.Batch = qn
		}
		return q, true, nil
	}
	return nil, false, nil
}
