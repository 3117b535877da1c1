package overlay

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"pier/internal/sim"
	"pier/internal/wire"
)

// storeModel is the reference the store tests check the object manager
// against: every object ever stored, by name, with its data and expiry.
type storeModel map[objName]storedObject

// objName is an object's name within its namespace.
type objName struct{ key, suffix string }

// live returns the model's objects live at now in (key, suffix) order,
// rendered as "key/suffix=data".
func (sm storeModel) live(now time.Time) []string {
	var names []objName
	for n, so := range sm {
		if so.expires.After(now) {
			names = append(names, n)
		}
	}
	slices.SortFunc(names, func(a, b objName) int {
		if c := strings.Compare(a.key, b.key); c != 0 {
			return c
		}
		return strings.Compare(a.suffix, b.suffix)
	})
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = n.key + "/" + n.suffix + "=" + string(sm[n].obj.Data)
	}
	return out
}

func renderObj(o Object) string { return o.Key + "/" + o.Suffix + "=" + string(o.Data) }

// checkStore compares scan, count and every key's get with the model.
func checkStore(t *testing.T, step string, m *objectManager, sm storeModel, keys []string) {
	t.Helper()
	now := m.rt.Now()
	want := sm.live(now)
	var got []string
	m.scan("ns", func(o Object) bool {
		got = append(got, renderObj(o))
		return true
	})
	if !slices.Equal(got, want) {
		t.Fatalf("%s: scan order\n got %v\nwant %v", step, got, want)
	}
	if c := m.count("ns"); c != len(want) {
		t.Fatalf("%s: count = %d, want %d", step, c, len(want))
	}
	for _, k := range keys {
		var g, w []string
		for _, o := range m.get("ns", k) {
			g = append(g, renderObj(o))
		}
		for _, s := range want {
			if strings.HasPrefix(s, k+"/") {
				w = append(w, s)
			}
		}
		if !slices.Equal(g, w) {
			t.Fatalf("%s: get(%q)\n got %v\nwant %v", step, k, g, w)
		}
	}
}

func storeEnv(t *testing.T) (*sim.Env, *sim.Node) {
	t.Helper()
	env := sim.NewEnv(sim.Options{Seed: 3})
	return env, env.Spawn("store")
}

// TestStoreScanOrderTracksWrites: the cached (key, suffix) scan order
// must equal a sorted reference after every kind of write between
// scans — put, overwrite, renew, restore, and expiry with or without a
// sweep — and get must return each key's run of it.
func TestStoreScanOrderTracksWrites(t *testing.T) {
	env, node := storeEnv(t)
	m := newObjectManager(node, time.Minute, time.Second)
	sm := storeModel{}
	keys := []string{"", "a", "b", "bb", "c"}
	rng := rand.New(rand.NewSource(7))
	pick := func() objName {
		return objName{keys[rng.Intn(len(keys))], fmt.Sprintf("s%d", rng.Intn(6))}
	}
	for step := 0; step < 600; step++ {
		var what string
		switch op := rng.Intn(6); op {
		case 0, 1: // put; an existing name makes it an overwrite
			n := pick()
			o := Object{Namespace: "ns", Key: n.key, Suffix: n.suffix,
				Data: []byte(fmt.Sprint(step)), Lifetime: time.Duration(1+rng.Intn(20)) * time.Second}
			what = "put"
			if _, ok := sm[n]; ok {
				what = "overwrite"
			}
			m.put(o)
			sm[n] = storedObject{obj: o, expires: node.Now().Add(o.Lifetime)}
		case 2: // renew, possibly shortening the lifetime
			n := pick()
			life := time.Duration(1+rng.Intn(20)) * time.Second
			what = "renew"
			so, ok := sm[n]
			want := ok && so.expires.After(node.Now())
			if got := m.renew("ns", n.key, n.suffix, life); got != want {
				t.Fatalf("step %d: renew(%v) = %v, want %v", step, n, got, want)
			}
			if want {
				so.expires = node.Now().Add(life)
				sm[n] = so
			}
		case 3: // restore a snapshot of another store over this one
			what = "restore"
			other := newObjectManager(node, time.Minute, time.Second)
			for i := 0; i < 3; i++ {
				n := pick()
				o := Object{Namespace: "ns", Key: n.key, Suffix: n.suffix,
					Data: []byte(fmt.Sprintf("r%d.%d", step, i)), Lifetime: time.Duration(1+rng.Intn(20)) * time.Second}
				other.put(o)
				sm[n] = storedObject{obj: o, expires: node.Now().Add(o.Lifetime)}
			}
			w := wire.NewWriter(256)
			other.snapshot(w, node.Now())
			if err := m.restore(wire.NewReader(w.Bytes()), node.Now()); err != nil {
				t.Fatal(err)
			}
		case 4: // expiry alone: time passes, nothing is swept
			what = "expiry"
			env.Run(time.Duration(rng.Intn(3000)) * time.Millisecond)
		case 5: // expiry and a sweep
			what = "sweep"
			env.Run(time.Duration(rng.Intn(3000)) * time.Millisecond)
			m.sweep(node.Now())
		}
		checkStore(t, fmt.Sprintf("step %d (%s)", step, what), m, sm, keys)
	}
}

// storeContents renders every stored object, live or not, with its
// expiry: what a sweep leaves behind.
func storeContents(m *objectManager) []string {
	var out []string
	for ns, t := range m.tables {
		for key, sfx := range t.byKey {
			for suffix, so := range sfx {
				out = append(out, fmt.Sprintf("%s/%s/%s@%d", ns, key, suffix, so.expires.UnixNano()))
			}
		}
	}
	slices.Sort(out)
	return out
}

// TestSweepWatermarkMatchesFullWalk: the sweep's early return before
// the earliest-expiry watermark must leave exactly the objects a full
// walk leaves, including when renew extends (or shortens) the object
// the watermark was taken from.
func TestSweepWatermarkMatchesFullWalk(t *testing.T) {
	env, node := storeEnv(t)
	m := newObjectManager(node, time.Minute, time.Second)
	ref := newObjectManager(node, time.Minute, time.Second)
	both := func(f func(*objectManager)) { f(m); f(ref) }
	sweepBoth := func(step string) {
		t.Helper()
		for ns := range m.tables {
			m.ordered(ns) // cache every order, so the sweep must drop stale ones
		}
		m.sweep(node.Now())
		ref.nextExpiry = time.Time{} // no watermark: always the full walk
		ref.sweep(node.Now())
		if g, w := storeContents(m), storeContents(ref); !slices.Equal(g, w) {
			t.Fatalf("%s: watermarked sweep left\n%v\nfull walk left\n%v", step, g, w)
		}
		// A cached order must not pin swept objects.
		for ns, tbl := range m.tables {
			for _, so := range tbl.order {
				if tbl.byKey[so.obj.Key][so.obj.Suffix] != so {
					t.Fatalf("%s: cached order of %q still holds swept %s/%s", step, ns, so.obj.Key, so.obj.Suffix)
				}
			}
		}
	}
	put := func(ns, key string, life time.Duration) {
		both(func(s *objectManager) {
			s.put(Object{Namespace: ns, Key: key, Suffix: "x", Lifetime: life})
		})
	}

	// The earliest object is renewed past the watermark: the sweep at
	// its old expiry must delete nothing.
	put("ns", "early", 5*time.Second)
	put("ns", "late", 10*time.Second)
	env.Run(3 * time.Second)
	both(func(s *objectManager) { s.renew("ns", "early", "x", 20*time.Second) })
	env.Run(3 * time.Second) // t=6s: past the old watermark of 5s
	sweepBoth("after renew extends the earliest object")
	if len(storeContents(m)) != 2 {
		t.Fatalf("renewed object swept: %v", storeContents(m))
	}
	env.Run(5 * time.Second) // t=11s: "late" expired
	sweepBoth("after the next expiry")
	// Renew shortens a lifetime below the watermark.
	put("ns2", "long", 30*time.Second)
	both(func(s *objectManager) { s.renew("ns2", "long", "x", time.Second) })
	env.Run(2 * time.Second)
	sweepBoth("after renew shortens a lifetime")

	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 500; step++ {
		ns := fmt.Sprintf("ns%d", rng.Intn(3))
		key := fmt.Sprintf("k%d", rng.Intn(8))
		life := time.Duration(1+rng.Intn(8000)) * time.Millisecond
		switch rng.Intn(4) {
		case 0:
			put(ns, key, life)
		case 1:
			both(func(s *objectManager) { s.renew(ns, key, "x", life) })
		case 2:
			env.Run(time.Duration(rng.Intn(1500)) * time.Millisecond)
		case 3:
			sweepBoth(fmt.Sprintf("step %d", step))
		}
	}
	env.Run(time.Minute)
	sweepBoth("after everything expired")
	if len(m.tables) != 0 {
		t.Fatalf("empty namespaces survive the sweep: %d", len(m.tables))
	}
}

// TestPutDuringLocalScan: a put into the scanned namespace from inside
// the scan callback must not panic and must not deliver any object
// twice; the scan delivers the namespace as it stood when it began, and
// the next scan sees the new objects.
func TestPutDuringLocalScan(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 4})
	d := New(env.Spawn("a"), Config{})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"b", "d", "f"} {
		d.PutLocal("t", k, "1", []byte(k), time.Hour)
	}
	var got []string
	d.LocalScan("t", func(o Object) bool {
		got = append(got, renderObj(o))
		if o.Key == "b" {
			d.PutLocal("t", "a", "1", []byte("new"), time.Hour) // before the cursor
			d.PutLocal("t", "c", "1", []byte("new"), time.Hour) // after it
			d.PutLocal("t", "f", "1", []byte("over"), time.Hour)
			d.PutLocal("t", "d", "0", []byte("new"), time.Hour)
		}
		return true
	})
	if want := []string{"b/1=b", "d/1=d", "f/1=f"}; !slices.Equal(got, want) {
		t.Fatalf("scan with puts in its callback delivered %v, want %v", got, want)
	}
	got = got[:0]
	d.LocalScan("t", func(o Object) bool {
		got = append(got, renderObj(o))
		return true
	})
	if want := []string{"a/1=new", "b/1=b", "c/1=new", "d/0=new", "d/1=d", "f/1=over"}; !slices.Equal(got, want) {
		t.Fatalf("next scan delivered %v, want %v", got, want)
	}
}
