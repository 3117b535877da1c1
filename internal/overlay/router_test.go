package overlay

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pier/internal/sim"
	"pier/internal/vri"
)

// fireCounter wraps a runtime and counts scheduled callbacks that fire
// once stopped is set.
type fireCounter struct {
	vri.Runtime
	stopped        bool
	firedAfterStop int
}

func (f *fireCounter) Schedule(d time.Duration, fn func()) vri.Timer {
	return f.Runtime.Schedule(d, func() {
		if f.stopped {
			f.firedAfterStop++
		}
		fn()
	})
}

// Each maintenance loop re-arms itself; the router must keep exactly one
// live handle per loop rather than accumulate every re-armed timer for
// the node's whole life, and stop must leave nothing that fires.
func TestRouterKeepsOneTimerPerMaintenanceLoop(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 1})
	dhts := ring(t, env, 6)
	env.Run(2 * time.Minute)
	for _, d := range dhts {
		if n := len(d.router.timers); n != 3 {
			t.Fatalf("%s holds %d maintenance timers after a long run, want 3", d.Addr(), n)
		}
	}

	// A singleton resolves every request locally, so once it stops no
	// timer of its own may fire at all.
	env = sim.NewEnv(sim.Options{Seed: 1})
	rt := &fireCounter{Runtime: env.Spawn("solo")}
	d := New(rt, Config{})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	env.Run(time.Minute)
	if n := len(d.router.timers); n != 3 {
		t.Fatalf("singleton holds %d maintenance timers, want 3", n)
	}
	d.Stop()
	rt.stopped = true
	env.Run(time.Minute)
	if rt.firedAfterStop != 0 {
		t.Fatalf("%d timers fired after Stop, want 0", rt.firedAfterStop)
	}
}

// Two addresses sharing a memo slot evict each other; each lookup must
// still return the address's exact HashNodeAddr identifier.
func TestIDMemoCollisionKeepsExactIDs(t *testing.T) {
	a := vri.Addr("peer-0")
	var b vri.Addr
	for i := 1; b == ""; i++ {
		if c := vri.Addr(fmt.Sprintf("peer-%d", i)); memoSlot(c) == memoSlot(a) {
			b = c
		}
	}
	var m idMemo
	for i := 0; i < 4; i++ {
		for _, addr := range []vri.Addr{a, a, b, a, b, b} {
			got := m.ref(addr)
			if got.addr != addr || got.id != HashNodeAddr(addr) {
				t.Fatalf("ref(%s) = (%s, %v), want (%s, %v)", addr, got.addr, got.id, addr, HashNodeAddr(addr))
			}
		}
	}
	if got := m.ref(""); got.valid() || got.id != HashNodeAddr("") {
		t.Fatalf("ref(\"\") = %+v, want the invalid ref with HashNodeAddr(\"\")", got)
	}
}

// fingerSampleMap and trimSuccsMap are the map-based implementations the
// linear-scan versions replaced; they are the reference for output
// order and contents.
func fingerSampleMap(r *router, max int) []vri.Addr {
	seen := make(map[vri.Addr]bool)
	var out []vri.Addr
	for _, f := range r.fingers {
		if !f.valid() || f.addr == r.self.addr || seen[f.addr] {
			continue
		}
		seen[f.addr] = true
		out = append(out, f.addr)
		if len(out) >= max {
			break
		}
	}
	return out
}

func trimSuccsMap(succs []nodeRef, self nodeRef, limit int) []nodeRef {
	seen := make(map[vri.Addr]bool, len(succs))
	var out []nodeRef
	for _, s := range succs {
		if s.valid() && !seen[s.addr] {
			seen[s.addr] = true
			out = append(out, s)
		}
	}
	if len(out) > limit {
		out = out[:limit]
	}
	if len(out) == 0 {
		out = []nodeRef{self}
	}
	return out
}

// Random finger tables and successor lists full of non-adjacent
// duplicates, self entries and invalid entries must come out of the
// linear-scan dedup exactly as they did from the map-based one.
func TestDedupMatchesMapVersions(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 1})
	r := newRouter(env.Spawn("self"), RouterConfig{})
	pool := []nodeRef{{}, r.self}
	for i := 0; i < 6; i++ {
		pool = append(pool, r.ids.ref(vri.Addr(fmt.Sprintf("p%d", i))))
	}
	rng := rand.New(rand.NewSource(1))
	pick := func() nodeRef { return pool[rng.Intn(len(pool))] }
	for trial := 0; trial < 2000; trial++ {
		for i := range r.fingers {
			r.fingers[i] = nodeRef{}
			if rng.Intn(3) == 0 {
				r.fingers[i] = pick()
			}
		}
		max := 1 + rng.Intn(20)
		want := fingerSampleMap(r, max)
		got := r.fingerSample(max)
		if fmt.Sprint(got) != fmt.Sprint(want) || len(got) != len(want) {
			t.Fatalf("trial %d: fingerSample(%d) = %v, want %v", trial, max, got, want)
		}

		succs := make([]nodeRef, rng.Intn(12))
		for i := range succs {
			succs[i] = pick()
		}
		r.cfg.SuccessorListLen = 1 + rng.Intn(6)
		wantS := trimSuccsMap(succs, r.self, r.cfg.SuccessorListLen)
		r.succs = append([]nodeRef(nil), succs...)
		r.trimSuccs()
		if fmt.Sprint(r.succs) != fmt.Sprint(wantS) {
			t.Fatalf("trial %d: trimSuccs(%v) = %v, want %v", trial, succs, r.succs, wantS)
		}
	}
}
