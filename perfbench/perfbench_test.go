package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"pier/internal/vri"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name  string
		stack []string
		layer string
		hash  bool
	}{
		{"heap pop under Env.Run", []string{
			"pier/internal/sim.(*eventHeap).pop", "pier/internal/sim.(*Env).Step",
			"pier/internal/sim.(*Env).RunUntil", "main.(*ringBuild).run", "main.main",
		}, "sim", false},
		{"node-id hashing", []string{
			"crypto/sha1.blockAMD64", "crypto/sha1.(*digest).Write", "crypto/sha1.Sum",
			"pier/internal/overlay.hashBytes", "pier/internal/overlay.HashNodeAddr",
			"pier/internal/overlay.(*router).learnPeer", "pier/internal/sim.(*Env).dispatch",
		}, "overlay", true},
		{"allocation inside the codec stays with it", []string{
			"runtime.mallocgc", "runtime.growslice", "pier/internal/wire.(*Writer).String",
			"pier/internal/tuple.(*Tuple).EncodeTo", "pier/internal/qp.(*Node).PublishLocal",
		}, "tuple", false},
		{"expression kernels are exec", []string{
			"pier/internal/expr.(*compiled).evalBatch", "pier/internal/exec.(*Select).PushBatch",
		}, "exec", false},
		{"sqlfront is qp", []string{"pier/internal/sqlfront.Parse", "main.(*adhocAgg).submit"}, "qp", false},
		{"closure in experiments is driver", []string{
			"pier/internal/experiments.BuildClusterWith.func1", "pier/internal/sim.(*Env).dispatch",
		}, "driver", false},
		{"benchmark's own code", []string{"main.(*tally).add", "pier/internal/qp.(*proxyState).deliver"}, "driver", false},
		{"background mark worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker",
		}, "gc", false},
		{"sha1 outside overlay is not overlay hashing", []string{
			"crypto/sha1.blockAMD64", "pier/internal/qp.(*Node).uniquifier",
		}, "qp", false},
		{"module without a layer", []string{"pier/internal/bloom.(*Filter).Add"}, "other", false},
		{"runtime only", []string{"runtime.futex", "runtime.notesleep", "runtime.mPark"}, "other", false},
	}
	for _, c := range cases {
		layer, hash := classify(c.stack)
		if layer != c.layer || hash != c.hash {
			t.Errorf("%s: got (%s, %v), want (%s, %v)", c.name, layer, hash, c.layer, c.hash)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"pier/internal/overlay.(*router).stabilize.func1": "pier/internal/overlay",
		"main.main":                 "main",
		"crypto/sha1.blockAMD64":    "crypto/sha1",
		"runtime.gcBgMarkWorker":    "runtime",
		"pier/internal/sim.fnvHash": "pier/internal/sim",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestLayersSumToProfileTotal profiles a tiny workload and checks that
// attribution loses and invents no CPU time.
func TestLayersSumToProfileTotal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		w := tinyAdhoc()
		w.setup(3, newDeployment(defaultSimSeed), &spans{})
		w.run(&spans{})
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cpu, err := attributeProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cpu["total.cpu_s"] <= 0 {
		t.Fatalf("empty profile: %v", cpu)
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += cpu[l+".cpu_s"]
	}
	if math.Abs(sum-cpu["total.cpu_s"]) > 1e-9 {
		t.Fatalf("layers sum to %v, profile total %v", sum, cpu["total.cpu_s"])
	}
	if cpu["sim.cpu_s"]+cpu["overlay.cpu_s"]+cpu["tuple.cpu_s"]+cpu["exec.cpu_s"]+cpu["qp.cpu_s"] == 0 {
		t.Fatalf("no CPU attributed to the system's layers: %v", cpu)
	}
}

func TestParseTraces(t *testing.T) {
	text := `File: perfbench
Type: cpu
Duration: 1s, Total samples = 40000000ns ( 4.00%)
-----------+-------------------------------------------------------
  10000000ns   pier/internal/sim.(*pool).putEvent (inline)
             pier/internal/sim.(*Env).Step
-----------+-------------------------------------------------------
 30000000ns   slices.Sort[go.shape.[]string,go.shape.string] (inline)
             pier/internal/overlay.(*objectManager).scan
-----------+-------------------------------------------------------
`
	got, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []sample{
		{10000000, []string{"pier/internal/sim.(*pool).putEvent", "pier/internal/sim.(*Env).Step"}},
		{30000000, []string{"slices.Sort[go.shape.[]string,go.shape.string]", "pier/internal/overlay.(*objectManager).scan"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseTraces = %v, want %v", got, want)
	}
	if _, err := parseTraces("Type: cpu\n-----------+---\n 10ms   main.main\n"); err == nil {
		t.Error("a value not in nanoseconds was accepted")
	}
}

func TestSpanSelfTime(t *testing.T) {
	s := &spans{on: true}
	s.list = []span{
		{Name: "Env.Run", Parent: -1, Start: 0, End: 10},
		{Name: "Node.Submit", Parent: 0, Start: 2, End: 3},
		{Name: "Node.Submit", Parent: -1, Start: 11, End: 12},
	}
	got := s.totals()
	want := map[string]float64{"Env.Run": 9, "Node.Submit": 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("totals = %v, want %v", got, want)
	}
}

func tinyRing() *ringBuild {
	return &ringBuild{n: 12, probes: 40, perTick: 10, tick: 200 * time.Millisecond}
}

func tinyAdhoc() *adhocAgg {
	return &adhocAgg{n: 8, rows: 60, sources: 20, clients: 2, perClient: 2, timeout: 5 * time.Second, probes: 40}
}

func tinyStorm() *qstorm {
	return &qstorm{n: 6, queries: 10, shapes: 5, clients: 3, events: 10,
		duration: 10 * time.Second, flush: 2 * time.Second, probes: 40}
}

// runTiny runs a scenario once and returns its verdict.
func runTiny(t *testing.T, w scenario, seed int64) outcome {
	t.Helper()
	w.setup(seed, newDeployment(defaultSimSeed), &spans{})
	w.run(&spans{})
	o := w.check()
	if o.attempted == 0 {
		t.Fatal("no operations attempted")
	}
	return o
}

func TestRingOracle(t *testing.T) {
	w := tinyRing()
	if o := runTiny(t, w, 5); o.failed != 0 {
		t.Fatalf("correct ring failed its oracle: %v", o.errs)
	}
	if w.build <= 0 {
		t.Fatalf("build time %v", w.build)
	}
	// A probe that resolved to the wrong owner must fail.
	w.p.owner[3] = w.p.owner[3] + "x"
	if o := w.check(); o.failed != 1 {
		t.Fatalf("wrong probe owner: failed=%d, want 1", o.failed)
	}
	// An oracle that disagrees with every successor must fail them all.
	w.p.owner[3] = w.p.want[3]
	w.ring.addrs[0], w.ring.addrs[1] = w.ring.addrs[1], w.ring.addrs[0]
	if o := w.check(); o.failed == 0 {
		t.Fatal("perturbed ring order passed the successor oracle")
	}
}

func TestRingOwnership(t *testing.T) {
	r := newRing([]vri.Addr{"a", "b", "c", "d"})
	for i, a := range r.addrs {
		if got := r.owner(r.ids[i]); got != a {
			t.Errorf("owner of %s's own id = %s", a, got)
		}
		next := r.addrs[(i+1)%len(r.addrs)]
		if got := r.successor(a); got != next {
			t.Errorf("successor(%s) = %s, want %s", a, got, next)
		}
	}
	// An id just past the largest node wraps to the first.
	if got := r.owner(r.ids[len(r.ids)-1] + 1); got != r.addrs[0] {
		t.Errorf("wrap-around owner = %s, want %s", got, r.addrs[0])
	}
}

func TestAdhocOracle(t *testing.T) {
	w := tinyAdhoc()
	o := runTiny(t, w, 7)
	if o.failed != 0 {
		t.Fatalf("correct answers failed the oracle: %v", o.errs)
	}
	for i := range w.answers {
		if !w.answers[i].done || len(w.answers[i].rows) == 0 {
			t.Fatalf("query %d has no answer", i)
		}
	}
	w.answers[2].rows[0].v++
	if o := w.check(); o.failed != 1 {
		t.Fatalf("perturbed answer: failed=%d, want 1", o.failed)
	}
}

func TestTopKIsTieAware(t *testing.T) {
	s := aggShape{topK: 2}
	tr := truth{sum: map[string]float64{"a": 5, "b": 3, "c": 3, "d": 1}}
	for _, rows := range [][]keyVal{{{"a", 5}, {"b", 3}}, {{"c", 3}, {"a", 5}}} {
		if msg := verifyAnswer(&answer{done: true, rows: rows}, s, tr); msg != "" {
			t.Errorf("%v rejected: %s", rows, msg)
		}
	}
	for _, rows := range [][]keyVal{
		{{"a", 5}, {"d", 1}},           // not in the top 2
		{{"a", 5}, {"b", 4}},           // wrong count
		{{"a", 5}},                     // too short
		{{"a", 5}, {"a", 5}},           // duplicate group
		{{"a", 5}, {"b", 3}, {"c", 3}}, // too long
	} {
		if msg := verifyAnswer(&answer{done: true, rows: rows}, s, tr); msg == "" {
			t.Errorf("%v accepted", rows)
		}
	}
}

func TestStormOracle(t *testing.T) {
	w := tinyStorm()
	o := runTiny(t, w, 11)
	if o.failed != 0 {
		t.Fatalf("correct storm failed the oracle: %v", o.errs)
	}
	if c := o.det["qp.completeness_min"]; c != 1 {
		t.Fatalf("completeness_min = %v, want 1", c)
	}
	w.tallies[4].perNode[1]++
	if o := w.check(); o.failed != 1 {
		t.Fatalf("miscounted query: failed=%d, want 1", o.failed)
	}
	w.tallies[4].perNode[1] = 0
	o = w.check()
	if o.failed != 1 || o.det["qp.completeness_min"] >= 1 {
		t.Fatalf("silent node: failed=%d completeness_min=%v", o.failed, o.det["qp.completeness_min"])
	}
}

// TestRepeatable checks the determinism contract run.py enforces: every
// count and virtual-time figure repeats exactly at one seed.
func TestRepeatable(t *testing.T) {
	for name, mk := range map[string]func() scenario{
		"ring-build": func() scenario { return tinyRing() },
		"adhoc-agg":  func() scenario { return tinyAdhoc() },
		"qstorm":     func() scenario { return tinyStorm() },
	} {
		a, err := runRep(mk(), name, 2, newDeployment(defaultSimSeed), "")
		if err != nil {
			t.Fatal(err)
		}
		b, err := runRep(mk(), name, 2, newDeployment(defaultSimSeed), "")
		if err != nil {
			t.Fatal(err)
		}
		if a.Failed != 0 {
			t.Fatalf("%s: %v", name, a.Errors)
		}
		if !reflect.DeepEqual(a.Det, b.Det) {
			t.Errorf("%s: deterministic figures differ:\n%v\n%v", name, a.Det, b.Det)
		}
	}
}
