package qp

import (
	"fmt"
	"sort"
	"time"

	"pier/internal/overlay"
	"pier/internal/vri"
	"pier/internal/wire"
)

// distTrees maintains PIER's query distribution trees (§3.3.3), the
// true-predicate index that lets a query ranging over all data reach all
// nodes.
//
// Construction follows the paper: upon joining (and periodically, since
// membership is soft state), each node routes a message containing its
// own address toward a well-known root identifier. The node at the first
// hop receives an upcall, records the sender as a child, and drops the
// message. A node's parent is therefore its first hop toward the root,
// the tree's shape follows the DHT's routing algorithm, and a node's
// depth equals its routing distance from the root.
//
// Reliability comes from three mechanisms layered on that soft state:
//
//   - Config.NumTrees redundant trees with distinct root keys (§3.3.3's
//     reliability knob): every broadcast is injected once per tree under
//     one shared execution id, and the node-level seenExec set collapses
//     the redundant deliveries to a single execution.
//   - Nack-driven repair: a broadcast forward whose transport ack comes
//     back false drops the child immediately (instead of letting it ride
//     out its TTL absorbing payloads) and re-routes the pending payload
//     toward the root after a short jittered delay, so subtrees orphaned
//     mid-broadcast are reached again once they re-attach.
//   - Early re-join: each tree remembers its parent (the announce's
//     confirmed first hop); when the overlay evicts that peer as dead,
//     the tree re-announces promptly instead of waiting for the refresh
//     timer, so orphans re-attach on the failure signal itself.
//
// To broadcast, the proxy forwards the payload to each tree's root
// (resolved via the root identifier); the root sends a copy to each
// recorded child, and each child forwards recursively while executing
// the payload itself (once, however many trees deliver it).
type distTrees struct {
	n       *Node
	trees   []*distTree
	stopped bool
	// seenExec dedups broadcast EXECUTION: every redundant copy of a
	// payload — across trees, and across repair re-injections within a
	// tree — carries the same execution id. Entries expire on the
	// refresh tick (sweep), bounding the map; an unbounded dedup set
	// was the tree's memory leak.
	seenExec map[string]time.Time
	// seenFwd dedups FORWARDING per injection: each injection of a
	// payload into a tree carries a fresh forward id, so a repair
	// re-injection travels the whole tree again (reaching re-attached
	// orphans) while routing loops under churn still terminate. Swept
	// together with seenExec.
	seenFwd map[string]time.Time

	// Counters (stats/tests).
	broadcasts uint64 // payloads executed here (post-dedup)
	repairs    uint64 // children dropped on a forward nack
	reinjects  uint64 // payload re-routes toward a root (repair + root retry)
	rejoins    uint64 // early re-announces (parent evicted or announce lost)

	// onJoined, if set, runs once every tree with awaitJoin set has had
	// an announce confirmed; see Node.AnnounceTrees.
	onJoined func()
	unjoined int
}

// distTree is one of the node's redundant distribution trees.
type distTree struct {
	ts      *distTrees
	idx     int
	rootKey string
	// children maps child address → soft-state expiry.
	children map[vri.Addr]time.Time
	refresh  vri.Timer
	// parent is the confirmed first hop of the latest announce — this
	// node's parent in the tree. Empty while unknown or when this node
	// is the root.
	parent vri.Addr
	// announceFn is the pre-bound announce closure (one alloc per tree,
	// not per refresh).
	announceFn func()
	// awaitJoin marks a tree whose confirmation Node.AnnounceTrees is
	// still waiting for.
	awaitJoin bool
}

// treeNS is the DHT namespace carrying tree-join traffic for every tree;
// trees are distinguished by root key (and a tree index carried in the
// announce payload).
const treeNS = "!qp-tree"

// maxTrees bounds Config.NumTrees: the marginal reliability of each
// additional tree falls fast while dissemination traffic grows linearly.
const maxTrees = 8

// seenTTL returns how long broadcast-dedup entries live. TreeChildTTL
// comfortably outlasts in-flight propagation plus repair re-injection
// delays, and reuses a knob operators already reason about.
func (ts *distTrees) seenTTL() time.Duration { return ts.n.cfg.TreeChildTTL }

func newDistTrees(n *Node) *distTrees {
	ts := &distTrees{
		n:        n,
		seenExec: make(map[string]time.Time),
		seenFwd:  make(map[string]time.Time),
	}
	ts.trees = make([]*distTree, n.cfg.NumTrees)
	for i := range ts.trees {
		rootKey := n.cfg.TreeRootKey
		if i > 0 {
			rootKey = fmt.Sprintf("%s#%d", n.cfg.TreeRootKey, i)
		}
		ts.trees[i] = &distTree{
			ts:       ts,
			idx:      i,
			rootKey:  rootKey,
			children: make(map[vri.Addr]time.Time),
		}
	}
	return ts
}

func (ts *distTrees) start() {
	n := ts.n
	// Intercept join messages one hop out from the sender: record the
	// child in the announced tree and consume the message (§3.3.3). The
	// upcall also fires when this node is the root itself (the final
	// hop), covering the root's immediate children.
	n.dht.OnUpcall(treeNS, func(obj overlay.Object) bool {
		if len(obj.Data) < 1 {
			return false
		}
		idx := int(obj.Data[0])
		child := vri.Addr(obj.Data[1:])
		if idx < len(ts.trees) && child != "" && child != n.rt.Addr() {
			ts.trees[idx].children[child] = n.rt.Now().Add(n.cfg.TreeChildTTL)
		}
		return false // drop: the join message never travels further
	})
	// A dead peer evicted by the overlay may be one of our tree parents;
	// re-announcing on that signal re-attaches the orphaned subtree in
	// one backoff step instead of a refresh period.
	n.dht.OnPeerDropped(ts.peerDropped)
	for _, t := range ts.trees {
		t.announceFn = t.announce
		// First announcement goes out promptly but staggered to avoid a
		// thundering herd when many nodes (and trees) start together.
		delay := time.Duration(n.rt.Rand().Int63n(int64(n.cfg.TreeRefresh)))
		t.refresh = n.rt.Schedule(delay, t.announceFn)
	}
}

func (ts *distTrees) stop() {
	ts.stopped = true
	for _, t := range ts.trees {
		if t.refresh != nil {
			t.refresh.Cancel()
		}
	}
}

// announce routes this node's address toward the tree root; the first
// hop intercepts and records us as its child. The announce is tracked:
// the confirmed first hop is our parent, and a send the overlay abandons
// entirely (no live candidate) re-announces after a backoff instead of
// waiting out the refresh period.
func (t *distTree) announce() {
	ts := t.ts
	if ts.stopped {
		return
	}
	n := ts.n
	if t.idx == 0 {
		ts.sweepSeen()
	}
	// Announce payload: [tree index][own address].
	data := make([]byte, 0, 1+len(n.rt.Addr()))
	data = append(data, byte(t.idx))
	data = append(data, n.rt.Addr()...)
	n.dht.SendTracked(treeNS, t.rootKey, string(n.rt.Addr()), data, n.cfg.TreeChildTTL,
		func(ok bool) {
			if !ok {
				t.rejoin()
				return
			}
			if t.awaitJoin {
				t.awaitJoin = false
				ts.unjoined--
				if ts.unjoined == 0 {
					done := ts.onJoined
					ts.onJoined = nil
					done()
				}
			}
		},
		func(hop vri.Addr) { t.parent = hop })
	t.refresh = n.rt.Schedule(n.cfg.TreeRefresh, t.announceFn)
}

// announceNow announces this node to every tree immediately and calls
// done once each announce has been confirmed (retrying lost ones as
// usual). It replaces the pending staggered or refresh announce, so the
// tree timers stay one per tree.
func (ts *distTrees) announceNow(done func()) {
	if ts.stopped {
		return
	}
	ts.onJoined = done
	ts.unjoined = len(ts.trees)
	for _, t := range ts.trees {
		t.awaitJoin = true
		if t.refresh != nil {
			t.refresh.Cancel()
		}
		t.announce()
	}
}

// rejoin re-announces early (jittered backoff), collapsing onto the
// single refresh timer so failure bursts cannot pile up timers.
func (t *distTree) rejoin() {
	ts := t.ts
	if ts.stopped {
		return
	}
	ts.rejoins++
	t.parent = ""
	if t.refresh != nil {
		t.refresh.Cancel()
	}
	t.refresh = ts.n.rt.Schedule(ts.n.retryDelay(0), t.announceFn)
}

// peerDropped is the overlay's dead-peer signal: any tree whose parent
// was just evicted re-attaches promptly.
func (ts *distTrees) peerDropped(addr vri.Addr) {
	if ts.stopped {
		return
	}
	for _, t := range ts.trees {
		if t.parent == addr {
			t.rejoin()
		}
	}
}

// sweepSeen expires broadcast-dedup entries, run on the soft-state
// refresh tick so the maps track in-flight traffic instead of growing
// with query history.
func (ts *distTrees) sweepSeen() {
	now := ts.n.rt.Now()
	for id, exp := range ts.seenExec {
		if !exp.After(now) {
			delete(ts.seenExec, id)
		}
	}
	for id, exp := range ts.seenFwd {
		if !exp.After(now) {
			delete(ts.seenFwd, id)
		}
	}
}

// liveChildren prunes expired entries and returns current children in
// address order. The canonical order keeps broadcast fan-out — and with
// it every downstream message sequence — deterministic across runs and
// scheduler modes, which Go's randomized map iteration would break.
func (t *distTree) liveChildren() []vri.Addr {
	now := t.ts.n.rt.Now()
	out := make([]vri.Addr, 0, len(t.children))
	for a, exp := range t.children {
		if exp.After(now) {
			out = append(out, a)
		} else {
			delete(t.children, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// childCount returns the number of live children across all trees
// without mutating state — safe from driver context at a barrier (used
// by the scenario runner to pick interior victims).
func (ts *distTrees) childCount() int {
	now := ts.n.rt.Now()
	count := 0
	for _, t := range ts.trees {
		for _, exp := range t.children {
			if exp.After(now) {
				count++
			}
		}
	}
	return count
}

// snapshot serializes every tree's live children with their remaining
// soft-state TTLs, in tree then address order so checkpoint bytes are
// deterministic. Dedup sets and counters are transient and not captured.
func (ts *distTrees) snapshot(w *wire.Writer, now time.Time) {
	w.U8(uint8(len(ts.trees)))
	for _, t := range ts.trees {
		live := make([]vri.Addr, 0, len(t.children))
		for a, exp := range t.children {
			if exp.After(now) {
				live = append(live, a)
			}
		}
		sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
		w.U32(uint32(len(live)))
		for _, a := range live {
			w.String(string(a))
			w.Duration(t.children[a].Sub(now))
		}
	}
}

// restore installs a snapshot, re-anchoring child TTLs at now. Restoring
// the children (rather than waiting for re-announcement) keeps the
// broadcast trees usable immediately after a warm start; announcements
// resume on their own timers and refresh the entries as usual.
func (ts *distTrees) restore(r *wire.Reader, now time.Time) error {
	count := r.U8()
	if r.Err() != nil {
		return r.Err()
	}
	if int(count) != len(ts.trees) {
		return fmt.Errorf("qp: checkpoint holds %d distribution trees, node configured for %d", count, len(ts.trees))
	}
	for _, t := range ts.trees {
		k := r.U32()
		for i := uint32(0); i < k && r.Err() == nil; i++ {
			a := vri.Addr(r.String())
			ttl := r.Duration()
			if r.Err() != nil {
				break
			}
			if a != "" && ttl > 0 {
				t.children[a] = now.Add(ttl)
			}
		}
	}
	return r.Err()
}

// broadcast sends payload (a PortQuery message) to every node: once per
// tree toward that tree's root, which fans it out recursively. All
// copies share one execution id, so redundant deliveries execute once.
func (ts *distTrees) broadcast(payload []byte) {
	execID := ts.n.uniquifier()
	for _, t := range ts.trees {
		t.inject(execID, payload, 0)
	}
}

// inject routes one copy of a broadcast toward this tree's root: the
// first leg of every broadcast, and the repair path's re-route after a
// child nack. Each injection gets a fresh forward id so it traverses the
// whole tree again; attempt bounds root-send retries for this injection.
func (t *distTree) inject(execID string, payload []byte, attempt int) {
	ts := t.ts
	if ts.stopped {
		return
	}
	n := ts.n
	fwdID := n.uniquifier()
	// The lookup callback may run asynchronously, so these bytes must
	// outlive this call: encode into a fresh writer, not n.scratch.
	wrapped := encodeTreeBroadcast(wire.NewWriter(64+len(payload)), t.idx, fwdID, execID, payload)
	n.dht.Lookup(treeNS, t.rootKey, func(root vri.Addr, err error) {
		if err != nil || ts.stopped {
			return
		}
		if root == n.rt.Addr() {
			t.deliver(fwdID, execID, payload)
			return
		}
		n.rt.Send(root, vri.PortQuery, wrapped, func(ok bool) {
			if ok || ts.stopped || attempt >= sendRetryLimit {
				return
			}
			// The root died with the payload in flight; a fresh lookup
			// after ring repair finds its successor.
			ts.reinjects++
			n.rt.Schedule(n.retryDelay(attempt), func() {
				t.inject(execID, payload, attempt+1)
			})
		})
	})
}

func encodeTreeBroadcast(w *wire.Writer, idx int, fwdID, execID string, payload []byte) []byte {
	w.Reset()
	w.U8(qmTreeBroadcast)
	w.U8(uint8(idx))
	w.String(fwdID)
	w.String(execID)
	w.Bytes32(payload)
	return w.Bytes()
}

// handleBroadcast processes a tree-broadcast frame: execute locally
// (once across trees) and forward to this tree's children.
func (ts *distTrees) handleBroadcast(r *wire.Reader) {
	idx := int(r.U8())
	fwdID := r.String()
	execID := r.String()
	payload := append([]byte(nil), r.Bytes32()...)
	if r.Err() != nil || idx >= len(ts.trees) {
		return
	}
	ts.trees[idx].deliver(fwdID, execID, payload)
}

func (t *distTree) deliver(fwdID, execID string, payload []byte) {
	ts := t.ts
	n := ts.n
	now := n.rt.Now()
	if _, dup := ts.seenFwd[fwdID]; dup {
		return
	}
	ts.seenFwd[fwdID] = now.Add(ts.seenTTL())
	// Forward down the tree first (latency), then execute locally. Every
	// Send consumes the bytes synchronously and nothing re-encodes
	// between the sends, so the node's scratch writer is safe here — the
	// fan-out to all children costs no payload allocation. The per-child
	// ack closures are the price of repair, paid once per broadcast
	// frame per child (not on the per-event hot path).
	wrapped := encodeTreeBroadcast(n.scratch, t.idx, fwdID, execID, payload)
	for _, child := range t.liveChildren() {
		child := child
		n.rt.Send(child, vri.PortQuery, wrapped, func(ok bool) {
			if !ok {
				t.childNacked(child, execID, payload)
			}
		})
	}
	if _, dup := ts.seenExec[execID]; !dup {
		ts.seenExec[execID] = now.Add(ts.seenTTL())
		ts.broadcasts++
		// The payload is itself a PortQuery message (qmDisseminate).
		n.handleMessage(n.rt.Addr(), payload)
	}
}

// childNacked is the repair path: the transport reported a broadcast
// forward undeliverable. Drop the child now — its TTL would otherwise
// keep absorbing payloads for up to TreeChildTTL — and re-route the
// pending payload toward the root after a jittered beat, so the child's
// orphaned subtree (which re-attaches on its own dead-parent signal)
// receives what it missed.
func (t *distTree) childNacked(child vri.Addr, execID string, payload []byte) {
	ts := t.ts
	if ts.stopped {
		return
	}
	delete(t.children, child)
	ts.repairs++
	ts.reinjects++
	n := ts.n
	n.rt.Schedule(n.retryDelay(1), func() {
		t.inject(execID, payload, 0)
	})
}
