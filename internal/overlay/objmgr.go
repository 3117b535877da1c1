package overlay

import (
	"slices"
	"sort"
	"strings"
	"time"

	"pier/internal/vri"
	"pier/internal/wire"
)

// objectManager is the soft-state store of Figure 5 (§3.2.3). Each item
// lives for its publisher-chosen lifetime, capped by MaxLifetime, and is
// discarded when it expires; publishers keep items alive by renewing
// them. Expiry doubles as the system's garbage collector: if a publisher
// dies, its objects eventually vanish.
type objectManager struct {
	rt vri.Runtime
	// MaxLifetime protects the node from storing items whose publisher
	// failed long ago (§3.2.3).
	maxLifetime time.Duration

	tables map[string]*nsTable

	// nextExpiry is a lower bound on every stored object's expiry, zero
	// when nothing is stored: the sweep has nothing to delete before it.
	nextExpiry time.Time

	sweepEvery time.Duration
	sweepTimer vri.Timer
	stopped    bool
}

// nsTable holds one namespace's objects.
type nsTable struct {
	// byKey: key → suffix → stored object. Nesting keeps each map's
	// slots string-sized, which holds a large table's footprint well
	// below a map keyed by the (key, suffix) pair.
	byKey map[string]map[string]*storedObject
	// order caches every stored object — live or expired but not yet
	// swept — in (key, suffix) order; nil when stale. A put, overwrite,
	// restore or sweep deletion in the namespace drops it, and the next
	// reader rebuilds it into a FRESH slice: a scan in progress keeps
	// walking the order it started with.
	order []*storedObject
}

type storedObject struct {
	obj     Object
	expires time.Time
}

func newObjectManager(rt vri.Runtime, maxLifetime, sweepEvery time.Duration) *objectManager {
	if maxLifetime <= 0 {
		maxLifetime = 30 * time.Minute
	}
	if sweepEvery <= 0 {
		sweepEvery = time.Second
	}
	return &objectManager{
		rt:          rt,
		maxLifetime: maxLifetime,
		tables:      make(map[string]*nsTable),
		sweepEvery:  sweepEvery,
	}
}

func (m *objectManager) start() {
	var sweep func()
	sweep = func() {
		if m.stopped {
			return
		}
		m.sweep(m.rt.Now())
		m.sweepTimer = m.rt.Schedule(m.sweepEvery, sweep)
	}
	m.sweepTimer = m.rt.Schedule(m.sweepEvery, sweep)
}

func (m *objectManager) stop() {
	m.stopped = true
	if m.sweepTimer != nil {
		m.sweepTimer.Cancel()
	}
}

// clampLifetime applies the system-enforced maximum.
func (m *objectManager) clampLifetime(d time.Duration) time.Duration {
	if d <= 0 || d > m.maxLifetime {
		return m.maxLifetime
	}
	return d
}

// put stores (or overwrites) an object under its full three-part name.
func (m *objectManager) put(o Object) {
	m.install(o, m.rt.Now().Add(m.clampLifetime(o.Lifetime)))
}

// install stores o until expires, the step put and restore share.
func (m *objectManager) install(o Object, expires time.Time) {
	t := m.tables[o.Namespace]
	if t == nil {
		t = &nsTable{byKey: make(map[string]map[string]*storedObject)}
		m.tables[o.Namespace] = t
	}
	sfx := t.byKey[o.Key]
	if sfx == nil {
		sfx = make(map[string]*storedObject)
		t.byKey[o.Key] = sfx
	}
	sfx[o.Suffix] = &storedObject{obj: o, expires: expires}
	t.order = nil
	m.noteExpiry(expires)
}

// noteExpiry keeps nextExpiry a lower bound after an object's expiry is
// set to at.
func (m *objectManager) noteExpiry(at time.Time) {
	if m.nextExpiry.IsZero() || at.Before(m.nextExpiry) {
		m.nextExpiry = at
	}
}

// ordered returns the namespace's objects in (key, suffix) order,
// rebuilding the cache if a write dropped it. Callers check expiry per
// object and must not modify the slice. The canonical order matters for
// determinism: gets and scans feed operators whose emission order
// decides downstream message order, and the simulator's replay guarantee
// (same seed, any worker count → bit-identical results) cannot survive
// Go's randomized map iteration.
func (m *objectManager) ordered(ns string) []*storedObject {
	t := m.tables[ns]
	if t == nil {
		return nil
	}
	if t.order == nil {
		n := 0
		for _, sfx := range t.byKey {
			n += len(sfx)
		}
		order := make([]*storedObject, 0, n)
		for _, sfx := range t.byKey {
			for _, so := range sfx {
				order = append(order, so)
			}
		}
		slices.SortFunc(order, func(a, b *storedObject) int {
			if c := strings.Compare(a.obj.Key, b.obj.Key); c != 0 {
				return c
			}
			return strings.Compare(a.obj.Suffix, b.obj.Suffix)
		})
		t.order = order
	}
	return t.order
}

// get returns all live objects stored under (namespace, key), one per
// suffix, in suffix order: the key's run of the ordered namespace.
func (m *objectManager) get(ns, key string) []Object {
	now := m.rt.Now()
	order := m.ordered(ns)
	i, _ := slices.BinarySearchFunc(order, key, func(so *storedObject, k string) int {
		return strings.Compare(so.obj.Key, k)
	})
	var out []Object
	for ; i < len(order) && order[i].obj.Key == key; i++ {
		if order[i].expires.After(now) {
			out = append(out, order[i].obj)
		}
	}
	return out
}

// renew extends an existing object's lifetime. It fails if the item is
// not present (expired, never stored here, or responsibility moved),
// which signals the publisher to re-put (§3.2.3).
func (m *objectManager) renew(ns, key, suffix string, lifetime time.Duration) bool {
	t := m.tables[ns]
	if t == nil {
		return false
	}
	so := t.byKey[key][suffix]
	if so == nil || !so.expires.After(m.rt.Now()) {
		return false
	}
	so.expires = m.rt.Now().Add(m.clampLifetime(lifetime))
	m.noteExpiry(so.expires)
	return true
}

// scan invokes fn for every live object in namespace until fn returns
// false, in (key, suffix) order. As with get, the canonical order keeps
// table scans — and therefore every dataflow they feed — deterministic
// across runs and scheduler modes. fn sees the namespace as it stood
// when the scan began: objects fn puts or overwrites there reach the
// next scan, never this one, and no object is delivered twice.
func (m *objectManager) scan(ns string, fn func(Object) bool) {
	now := m.rt.Now()
	for _, so := range m.ordered(ns) {
		if so.expires.After(now) && !fn(so.obj) {
			return
		}
	}
}

// count returns the number of live objects in namespace.
func (m *objectManager) count(ns string) int {
	n := 0
	m.scan(ns, func(Object) bool { n++; return true })
	return n
}

// snapshot serializes every live object with its remaining lifetime
// relative to now. Rebasing expiries to durations is what lets a restore
// into a different virtual-clock origin re-anchor them exactly; an
// object whose expiry equals the checkpoint instant is already dead
// (get/scan use strict expires.After) and is excluded, so it cannot
// resurrect after restore. Objects are written in (namespace, key,
// suffix) order so checkpoint bytes are deterministic.
func (m *objectManager) snapshot(w *wire.Writer, now time.Time) {
	countPos := w.Len()
	w.U32(0) // patched below
	count := uint32(0)
	nss := make([]string, 0, len(m.tables))
	for ns := range m.tables {
		nss = append(nss, ns)
	}
	sort.Strings(nss)
	for _, ns := range nss {
		for _, so := range m.ordered(ns) {
			if so.expires.After(now) {
				appendObject(w, so.obj)
				w.Duration(so.expires.Sub(now))
				count++
			}
		}
	}
	w.PatchU32(countPos, count)
}

// restore installs a snapshot, re-anchoring each remaining lifetime at
// now. Lifetimes are installed exactly — not re-clamped — because the
// original put already applied MaxLifetime and the remainder can only be
// shorter. Entries whose remaining duration is non-positive are skipped:
// they expired at (or before) the checkpoint instant.
func (m *objectManager) restore(r *wire.Reader, now time.Time) error {
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		o := readObject(r)
		remaining := r.Duration()
		if r.Err() != nil {
			break
		}
		if remaining <= 0 {
			continue
		}
		m.install(o, now.Add(remaining))
	}
	return r.Err()
}

// sweep discards expired objects and empty index levels. Before
// nextExpiry nothing can have expired and it returns at once; otherwise
// it walks every object and recomputes the bound from the survivors.
func (m *objectManager) sweep(now time.Time) {
	if now.Before(m.nextExpiry) {
		return
	}
	var next time.Time
	for ns, t := range m.tables {
		for key, sfx := range t.byKey {
			for suffix, so := range sfx {
				if !so.expires.After(now) {
					delete(sfx, suffix)
					t.order = nil
				} else if next.IsZero() || so.expires.Before(next) {
					next = so.expires
				}
			}
			if len(sfx) == 0 {
				delete(t.byKey, key)
			}
		}
		if len(t.byKey) == 0 {
			delete(m.tables, ns)
		}
	}
	m.nextExpiry = next
}
