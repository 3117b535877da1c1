package sim

import (
	"fmt"
	"testing"
	"time"

	"pier/internal/vri"
)

// TestTimerCancelAfterFireIsInert pins the pooled-event handle contract:
// a vri.Timer kept past its firing must go inert, not cancel whatever
// event reused the pooled struct. Before generation pinning this was the
// classic stale-handle bug of every object pool.
func TestTimerCancelAfterFireIsInert(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	n := env.Spawn("a")

	var fired []string
	h1 := n.Schedule(10*time.Millisecond, func() { fired = append(fired, "first") })
	env.Run(20 * time.Millisecond) // first fires; its event recycles

	// The recycled struct is reused by the very next schedule.
	n.Schedule(10*time.Millisecond, func() { fired = append(fired, "second") })
	h1.Cancel() // stale: must NOT cancel the reincarnation
	env.Run(20 * time.Millisecond)

	if len(fired) != 2 || fired[0] != "first" || fired[1] != "second" {
		t.Fatalf("fired = %v, want [first second] (stale Cancel must be inert)", fired)
	}

	// A live handle still cancels.
	h3 := n.Schedule(10*time.Millisecond, func() { fired = append(fired, "third") })
	h3.Cancel()
	env.Run(20 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired = %v after cancelling third, want it suppressed", fired)
	}

	// Double-cancel and cancel-after-cancelled-dispatch stay no-ops.
	h3.Cancel()
	env.Drain()
}

// TestEventPoolReusesEvents checks that the scheduler actually recycles:
// a sustained schedule/dispatch loop on the sequential scheduler must
// reuse pooled event structs rather than growing the free list without
// bound (the free list is LIFO, so steady-state traffic touches the same
// few structs).
func TestEventPoolReusesEvents(t *testing.T) {
	env := NewEnv(Options{Seed: 2})
	a, b := env.Spawn("a"), env.Spawn("b")
	_ = b.Listen(vri.PortQuery, func(vri.Addr, []byte) {})
	payload := []byte("ping")
	var tick func()
	tick = func() {
		a.Send(b.Addr(), vri.PortQuery, payload, nil)
		a.Schedule(time.Millisecond, tick)
	}
	a.Schedule(0, tick)
	env.Run(time.Second)
	// Stop the storm and let in-flight deliveries land, so every pooled
	// buffer is back in the pool rather than attached to pending events.
	tick = func() {}
	env.Drain()

	free := 0
	for ev := env.pool.freeEv; ev != nil; ev = ev.next {
		free++
	}
	// ~1000 timer + ~1000 delivery dispatches ran; without recycling the
	// free list would hold thousands of structs (or none at all). The
	// steady-state population is bounded by the peak event backlog (one
	// pending tick plus the ~40ms of deliveries in flight), not by the
	// dispatch count.
	if free == 0 {
		t.Fatal("free list empty after a run: events are not being recycled")
	}
	if free > 256 {
		t.Fatalf("free list holds %d events after a steady 2-node loop; recycling is not reusing structs", free)
	}
	if len(env.pool.bufs) == 0 {
		t.Fatal("payload buffer pool empty after message traffic: buffers are not being recycled")
	}
}

// TestDeliveryAckAndLossTypedEvents exercises the typed evDeliver/evAck
// bodies end to end: a delivered message acks true, a message to a dead
// node acks false after AckTimeout, and per-node traffic accounting
// matches the closure-based implementation's behavior.
func TestDeliveryAckAndLossTypedEvents(t *testing.T) {
	env := NewEnv(Options{Seed: 3, AckTimeout: 500 * time.Millisecond})
	a, b := env.Spawn("a"), env.Spawn("b")
	var got []byte
	_ = b.Listen(vri.PortQuery, func(src vri.Addr, p []byte) {
		if src != a.Addr() {
			t.Errorf("handler src = %s, want %s", src, a.Addr())
		}
		got = append([]byte(nil), p...)
	})
	acks := map[string]bool{}
	a.Send(b.Addr(), vri.PortQuery, []byte("hello"), func(ok bool) { acks["live"] = ok })
	env.Run(time.Second)
	if string(got) != "hello" {
		t.Fatalf("delivered payload = %q, want %q", got, "hello")
	}
	if ok, present := acks["live"]; !present || !ok {
		t.Fatalf("acks = %v, want live delivery acked true", acks)
	}
	bt := env.Traffic(b.Addr())
	if bt.MsgsIn != 1 || bt.BytesIn != uint64(len("hello")) {
		t.Fatalf("dst traffic = %+v, want 1 msg / %d bytes in", bt, len("hello"))
	}

	env.Fail(b.Addr())
	a.Send(b.Addr(), vri.PortQuery, []byte("dead letter"), func(ok bool) { acks["dead"] = ok })
	env.Run(2 * time.Second)
	if ok, present := acks["dead"]; !present || ok {
		t.Fatalf("acks = %v, want dead-destination send acked false after AckTimeout", acks)
	}
}

// TestTimerCancelAfterCompactionIsInert pins the handle contract across
// heap compaction: cancelling half of a heap's timers compacts it,
// recycling the dead events, and the recycled structs serve the next
// schedules. A second Cancel through the old handles must then be inert
// rather than cancel the reincarnations, in both scheduler modes.
func TestTimerCancelAfterCompactionIsInert(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			env := NewEnv(Options{Seed: 1})
			if workers > 0 {
				env.SetWorkers(workers)
			}
			n := env.Spawn("a")
			h := &env.queue
			if env.par != nil {
				h = &env.par.shards[n.shard].heap
			}
			var fired []int
			schedule := func(i int) vri.Timer {
				return n.Schedule(time.Duration(i+1)*time.Millisecond, func() { fired = append(fired, i) })
			}
			var old []vri.Timer
			for i := 0; i < 8; i++ {
				old = append(old, schedule(i))
			}
			for i := 1; i < 8; i += 2 {
				old[i].Cancel()
			}
			if len(h.q) != 4 || h.dead != 0 {
				t.Fatalf("after cancelling 4 of 8 timers: heap len %d, dead %d; want compacted to 4 live, 0 dead", len(h.q), h.dead)
			}
			recycled := make(map[*event]bool)
			for i := 1; i < 8; i += 2 {
				recycled[old[i].(timerHandle).ev] = true
			}
			// Schedule the successors from a node event, so they draw from
			// the pool compaction recycled into (the shard's, when sharded).
			reused := 0
			n.Schedule(0, func() {
				for i := 8; i < 12; i++ {
					if recycled[schedule(i).(timerHandle).ev] {
						reused++
					}
				}
			})
			env.Run(500 * time.Microsecond)
			if reused == 0 {
				t.Fatal("no compacted event was reused; the test no longer exercises stale handles")
			}
			for i := 1; i < 8; i += 2 {
				old[i].Cancel() // stale: must not cancel the reincarnations
			}
			env.Run(time.Second)
			if want := []int{0, 2, 4, 6, 8, 9, 10, 11}; fmt.Sprint(fired) != fmt.Sprint(want) {
				t.Fatalf("fired = %v, want %v (stale Cancel after compaction must be inert)", fired, want)
			}
		})
	}
}
