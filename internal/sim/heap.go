package sim

// eventHeap is a 4-ary min-heap of *event ordered by the deterministic
// dispatch key (at, src, seq) — see event.before. It replaces
// container/heap on the scheduler hot path: the concrete element type
// removes the `any` boxing of Push/Pop and the interface method calls of
// Less/Swap, and the d=4 layout halves tree depth versus a binary heap,
// trading a slightly wider sibling scan (cache-friendly: four adjacent
// pointers) for half the swap chains. Because the key is a strict total
// order, the pop sequence is exactly the one container/heap would
// produce (locked in by TestEventHeapMatchesReference and
// FuzzEventHeapMatchesReference), so both scheduler modes stay
// bit-identical to the previous implementation.
//
// The heap also counts its dead entries: events cancelled through a
// timer handle while queued. Request timers are armed for every overlay
// request and almost always cancelled by the reply, so without pruning
// most of a long-running heap is dead weight that every sift walks past.
// Once dead entries are at least half the heap, compact drops them all.
// That cannot change the live pop sequence: the key is a strict total
// order, so any heap over the same live events pops them identically.
type eventHeap struct {
	q []*event
	// dead counts the cancelled events currently in q. push, pop, cancel
	// and compact keep it exact; see Env.cancel.
	dead int
}

// push inserts ev, restoring the heap property by sifting up.
func (h *eventHeap) push(ev *event) {
	ev.queued = true
	if ev.cancelled {
		h.dead++
	}
	q := append(h.q, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !q[i].before(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	h.q = q
}

// pop removes and returns the minimum event. The caller must ensure the
// heap is non-empty.
func (h *eventHeap) pop() *event {
	q := h.q
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = nil // release the reference for the pool/GC
	q = q[:n]
	h.q = q
	if n > 1 {
		siftDown(q, 0)
	}
	top.queued = false
	if top.cancelled {
		h.dead--
	}
	return top
}

// siftDown restores the heap property below index i.
func siftDown(q []*event, i int) {
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			return
		}
		m := c // index of the smallest child
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(q[i]) {
			return
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}

// adopt replaces the heap's contents with evs and heapifies them in
// place, used when a batch of pending events is adopted wholesale
// (SetWorkers migrating between scheduler modes).
func (h *eventHeap) adopt(evs []*event) {
	h.q = evs
	h.dead = 0
	for _, ev := range evs {
		ev.queued = true
		if ev.cancelled {
			h.dead++
		}
	}
	h.reinit()
}

// reinit heapifies q in place.
func (h *eventHeap) reinit() {
	for i := (len(h.q) - 2) / 4; i >= 0; i-- {
		siftDown(h.q, i)
	}
}

// noteCancelled records that a queued event was just cancelled, and
// compacts once dead events make up at least half the heap. p is the
// pool of the context that owns the heap.
func (h *eventHeap) noteCancelled(p *pool) {
	h.dead++
	if 2*h.dead >= len(h.q) {
		h.compact(p)
	}
}

// compact removes every cancelled event, recycles it into p (the
// generation bump leaves any handle still pointing at it inert), and
// re-heapifies the survivors.
func (h *eventHeap) compact(p *pool) {
	live := h.q[:0]
	for _, ev := range h.q {
		if ev.cancelled {
			ev.queued = false
			p.putEvent(ev)
			continue
		}
		live = append(live, ev)
	}
	clear(h.q[len(live):])
	h.q = live
	h.dead = 0
	h.reinit()
}
