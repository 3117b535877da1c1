package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refHeap is the reference implementation the concrete 4-ary heap must
// match: the previous container/heap-backed queue, ordered by the same
// event.before total order. Because (at, src, seq) is a strict total
// order, any correct min-heap pops the unique minimum at every step, so
// the two implementations must produce identical pop sequences.
type refHeap []*event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// heapModel drives an eventHeap and a container/heap reference through
// the same operations, cancels included. The reference keeps cancelled
// events and skips them when popping, which is what the scheduler's
// dispatch loops do.
type heapModel struct {
	t       *testing.T
	ctx     string // failure-message prefix
	op      int
	got     eventHeap
	want    refHeap
	pool    pool
	deadIn  int      // the model's count of cancelled events in got
	pushed  []*event // every event ever pushed, in push order
	lastPop *event
	seqs    [8]uint64
}

func (m *heapModel) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("%s op %d: "+format, append([]any{m.ctx, m.op}, args...)...)
}

// isDead reports whether ev was cancelled. Compaction recycles dead
// events, and putEvent clears the flag but bumps the generation.
func isDead(ev *event) bool { return ev.cancelled || ev.gen.Load() != 0 }

// push adds an event with a unique (src, seq) key. Times come from a
// small set so same-instant ties are common and the src/seq tie-break
// actually decides order. A pre-cancelled push models an outbox lane or
// a scheduler-mode migration handing over an already-dead event.
func (m *heapModel) push(at int64, src uint64, cancelled bool) {
	m.seqs[src]++
	ev := &event{at: at, src: src, seq: m.seqs[src], cancelled: cancelled}
	if cancelled {
		m.deadIn++
	}
	m.pushed = append(m.pushed, ev)
	m.got.push(ev)
	heap.Push(&m.want, ev)
}

// cancel does to ev what Env.cancel does to a timer's event, and checks
// that the heap compacts exactly when dead events reach half of it.
func (m *heapModel) cancel(ev *event) {
	if isDead(ev) {
		return
	}
	ev.cancelled = true
	if !ev.queued {
		return
	}
	m.deadIn++
	n := len(m.got.q)
	m.got.noteCancelled(&m.pool)
	if 2*m.deadIn >= n {
		if want := n - m.deadIn; len(m.got.q) != want {
			m.fatalf("%d of %d events dead after a cancel: heap holds %d, want compacted to %d", m.deadIn, n, len(m.got.q), want)
		}
		m.deadIn = 0
	}
}

// compact compacts the heap on demand.
func (m *heapModel) compact() {
	m.got.compact(&m.pool)
	m.deadIn = 0
}

// popLive pops the next live event from both heaps and requires them
// to be the same one.
func (m *heapModel) popLive() {
	var g, w *event
	for len(m.got.q) > 0 {
		ev := m.got.pop()
		if !ev.cancelled {
			g = ev
			break
		}
		m.deadIn--
	}
	for len(m.want) > 0 {
		if ev := heap.Pop(&m.want).(*event); !isDead(ev) {
			w = ev
			break
		}
	}
	if g != w {
		m.fatalf("live pop mismatch: got %v, want %v", describe(g), describe(w))
	}
	m.lastPop = g
}

// check compares the heap's dead count with the model's, and with a
// full scan when full is set (a scan per operation would make long fuzz
// inputs quadratic).
func (m *heapModel) check(full bool) {
	if m.got.dead != m.deadIn {
		m.fatalf("dead count %d, model counts %d", m.got.dead, m.deadIn)
	}
	if !full {
		return
	}
	n := 0
	for _, ev := range m.got.q {
		if !ev.queued {
			m.fatalf("event in heap not marked queued")
		}
		if ev.cancelled {
			n++
		}
	}
	if n != m.got.dead {
		m.fatalf("dead count %d, heap holds %d cancelled events", m.got.dead, n)
	}
}

// drain pops every remaining live event from both heaps.
func (m *heapModel) drain() {
	for {
		m.popLive()
		if m.lastPop == nil {
			break
		}
	}
	if len(m.got.q) != 0 || m.got.dead != 0 {
		m.fatalf("%d events (%d dead) left in 4-ary heap after reference drained", len(m.got.q), m.got.dead)
	}
}

func describe(ev *event) string {
	if ev == nil {
		return "<none>"
	}
	return fmt.Sprintf("(at=%v src=%d seq=%d)", time.Duration(ev.at), ev.src, ev.seq)
}

// TestEventHeapMatchesReference drives random interleavings of pushes,
// pops, cancels (of queued events and of the event just popped, as a
// timer cancelling itself from its own callback does) and explicit
// compactions through both heaps, and requires pointer-identical live
// pop sequences across many seeds.
func TestEventHeapMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &heapModel{t: t, ctx: fmt.Sprintf("seed %d", seed)}
		for ; m.op < 2000; m.op++ {
			switch r := rng.Intn(12); {
			case r < 6 || len(m.want) == 0:
				m.push(int64(rng.Intn(8))*int64(time.Millisecond), uint64(rng.Intn(5)), rng.Intn(16) == 0)
			case r < 8:
				m.popLive()
			case r < 10:
				m.cancel(m.pushed[rng.Intn(len(m.pushed))])
			case r < 11:
				if m.lastPop != nil {
					m.cancel(m.lastPop)
				}
			default:
				m.compact()
			}
			m.check(true)
		}
		m.drain()
	}
}

// TestEventHeapReinit checks the batch heapify used when SetWorkers
// migrates pending events between scheduler modes, dead ones included.
func TestEventHeapReinit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := &heapModel{t: t, ctx: "adopt"}
	var batch []*event
	for i := 0; i < 500; i++ {
		m.push(int64(rng.Intn(8))*int64(time.Millisecond), uint64(rng.Intn(5)), rng.Intn(4) == 0)
		batch = append(batch, m.got.pop())
	}
	m.got.adopt(batch)
	m.check(true)
	m.drain()
}

// FuzzEventHeapMatchesReference explores operation interleavings chosen
// by the fuzzer. Each input byte drives one operation: the low three
// bits select pop, cancel, compact or push, and the rest pick the event
// time and source (small ranges, so ties are dense) or which pushed
// event to cancel.
func FuzzEventHeapMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 250, 13, 0, 0, 7})
	f.Add([]byte("pushpoppushpushpop"))
	f.Add([]byte{3, 11, 19, 27, 35, 9, 17, 0, 25, 2, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		m := &heapModel{t: t, ctx: "fuzz"}
		for i, b := range ops {
			m.op = i
			switch b & 7 {
			case 0:
				m.popLive()
			case 1:
				if len(m.pushed) > 0 {
					m.cancel(m.pushed[int(b>>3)%len(m.pushed)])
				}
			case 2:
				m.compact()
			default:
				m.push(int64(b>>3&7)*int64(time.Millisecond), uint64(b>>6), false)
			}
			m.check(i%64 == 0)
		}
		m.drain()
	})
}
