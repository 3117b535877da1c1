package sim

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// SetNow is the checkpoint/restore clock rebase: a fresh environment
// adopts the virtual instant a checkpoint was taken, and everything
// spawned afterwards observes the rebased clock.
func TestSetNowRebasesClockBeforePopulation(t *testing.T) {
	at := time.Unix(12345, 678).UTC()
	env := NewEnv(Options{Seed: 1})
	env.SetNow(at)
	if !env.Now().Equal(at) {
		t.Fatalf("Now() = %v, want %v", env.Now(), at)
	}
	n := env.Spawn("a")
	if !n.Now().Equal(at) {
		t.Fatalf("spawned node clock = %v, want rebased %v", n.Now(), at)
	}
	var firedAt time.Time
	n.Schedule(time.Second, func() { firedAt = n.Now() })
	env.Drain()
	if want := at.Add(time.Second); !firedAt.Equal(want) {
		t.Fatalf("event fired at %v, want %v", firedAt, want)
	}
}

func TestSetNowRefusesPopulatedEnv(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	env.Spawn("a")
	defer func() {
		if recover() == nil {
			t.Fatal("SetNow after Spawn did not panic")
		}
	}()
	env.SetNow(time.Unix(1, 0))
}

func TestSetNowRefusesPendingEvents(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	env.Schedule(time.Second, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("SetNow with pending events did not panic")
		}
	}()
	env.SetNow(time.Unix(1, 0))
}

// SetNow must also work (and guard) under the sharded scheduler, where
// pending events live in per-shard heaps.
func TestSetNowSharded(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	env.SetWorkers(4)
	at := time.Unix(999, 0).UTC()
	env.SetNow(at)
	if !env.Now().Equal(at) {
		t.Fatalf("Now() = %v, want %v", env.Now(), at)
	}
	n := env.Spawn("a")
	n.Schedule(time.Second, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("sharded SetNow with pending shard events did not panic")
		}
	}()
	env.SetNow(at.Add(time.Hour))
}

// The scheduler keeps virtual time as nanoseconds since its origin and
// converts at the public edges; the conversion must give back the
// caller's instant and Location, for a non-epoch, non-UTC Start and
// across a SetNow rebase into another zone, in both scheduler modes.
func TestClockKeepsStartLocation(t *testing.T) {
	same := func(t *testing.T, what string, got, want time.Time) {
		t.Helper()
		if !got.Equal(want) || got.Location() != want.Location() || got.String() != want.String() {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
	}
	start := time.Date(2031, 5, 6, 7, 8, 9, 10, time.FixedZone("IST", 5*3600+1800))
	rebased := time.Date(1999, 12, 31, 23, 59, 59, 999, time.FixedZone("BRT", -3*3600))
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			check := func(env *Env, origin time.Time, name string) {
				same(t, "Env.Now", env.Now(), origin)
				n := env.Spawn(name)
				same(t, "Node.Now at spawn", n.Now(), origin)
				var inEvent time.Time
				n.Schedule(1500*time.Millisecond, func() { inEvent = n.Now() })
				env.Run(2 * time.Second)
				same(t, "Node.Now in event", inEvent, origin.Add(1500*time.Millisecond))
				same(t, "Env.Now after Run", env.Now(), origin.Add(2*time.Second))
				same(t, "Node.Now after Run", n.Now(), origin.Add(2*time.Second))
			}
			env := NewEnv(Options{Seed: 1, Start: start})
			if workers > 0 {
				env.SetWorkers(workers)
			}
			check(env, start, "a")

			env = NewEnv(Options{Seed: 1, Start: start})
			if workers > 0 {
				env.SetWorkers(workers)
			}
			env.SetNow(rebased)
			check(env, rebased, "b")
		})
	}
}

// A delay past the int64 nanosecond range must saturate at the end of
// time, not wrap into the past and fire at once.
func TestHugeDelaySaturates(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	n := env.Spawn("a")
	env.Run(time.Hour)
	fired := false
	n.Schedule(time.Duration(math.MaxInt64), func() { fired = true })
	env.Schedule(time.Duration(math.MaxInt64), func() { fired = true })
	env.Run(time.Hour)
	if fired {
		t.Fatal("an event scheduled after math.MaxInt64 nanoseconds fired within an hour")
	}
}
