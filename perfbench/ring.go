package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"pier/internal/experiments"
	"pier/internal/overlay"
	"pier/internal/qp"
	"pier/internal/sim"
	"pier/internal/vri"
)

// ring is the oracle for overlay ownership: the node identifiers of a
// cluster in ring order, computed from the addresses alone.
type ring struct {
	ids   []overlay.ID
	addrs []vri.Addr
}

func newRing(addrs []vri.Addr) *ring {
	r := &ring{addrs: append([]vri.Addr(nil), addrs...)}
	sort.Slice(r.addrs, func(i, j int) bool {
		return overlay.HashNodeAddr(r.addrs[i]) < overlay.HashNodeAddr(r.addrs[j])
	})
	for _, a := range r.addrs {
		r.ids = append(r.ids, overlay.HashNodeAddr(a))
	}
	return r
}

// owner returns the node whose arc (predecessor, self] holds id.
func (r *ring) owner(id overlay.ID) vri.Addr {
	i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= id })
	return r.addrs[i%len(r.addrs)]
}

// successor returns the node after addr in identifier order.
func (r *ring) successor(addr vri.Addr) vri.Addr {
	return r.owner(overlay.HashNodeAddr(addr) + 1)
}

// checkSuccessors verifies every node's first successor.
func (r *ring) checkSuccessors(nodes []*qp.Node, o *outcome) {
	for _, n := range nodes {
		o.attempted++
		if got, want := n.DHT().Successor(), r.successor(n.Addr()); got != want {
			o.fail("successor of %s is %s, want %s", n.Addr(), got, want)
		}
	}
}

func addrsOf(nodes []*qp.Node) []vri.Addr {
	out := make([]vri.Addr, len(nodes))
	for i, n := range nodes {
		out[i] = n.Addr()
	}
	return out
}

// probes is an open loop of DHT lookups issued at fixed virtual times
// from random nodes, with the owner the ring oracle expects for each.
// A probe is timed from its due time, so a stalled node delays the
// probes behind it. Callbacks write the driver's slices directly, which
// the sequential scheduler allows.
type probes struct {
	keys    []string
	from    []int
	want    []vri.Addr
	owner   []vri.Addr
	err     []error
	done    []bool
	latency []time.Duration
}

const probeNS = "probe"

// planProbes draws count probe keys and source nodes (indices into the
// cluster's node slice) and resolves their expected owners.
func planProbes(r *ring, nodes int, rng *rand.Rand, count int) *probes {
	p := &probes{
		keys:    make([]string, count),
		from:    make([]int, count),
		want:    make([]vri.Addr, count),
		owner:   make([]vri.Addr, count),
		err:     make([]error, count),
		done:    make([]bool, count),
		latency: make([]time.Duration, count),
	}
	for i := range p.keys {
		p.keys[i] = fmt.Sprintf("k%016x", rng.Uint64())
		p.from[i] = rng.Intn(nodes)
		p.want[i] = r.owner(overlay.HashName(probeNS, p.keys[i]))
	}
	return p
}

// schedule arms the probes, perTick of them every tick, the first at
// the current virtual time. It returns the span of the loop.
func (p *probes) schedule(nodes []*qp.Node, perTick int, tick time.Duration) time.Duration {
	for i := range p.keys {
		n := nodes[p.from[i]]
		n.Runtime().Schedule(time.Duration(i/perTick)*tick, func() {
			due := n.Runtime().Now()
			n.DHT().Lookup(probeNS, p.keys[i], func(owner vri.Addr, err error) {
				p.owner[i], p.err[i], p.done[i] = owner, err, true
				p.latency[i] = n.Runtime().Now().Sub(due)
			})
		})
	}
	return time.Duration((len(p.keys)+perTick-1)/perTick) * tick
}

// check compares every probe with the oracle and reports the
// virtual-time latency percentiles of the successful ones.
func (p *probes) check(o *outcome) {
	var ok []time.Duration
	for i := range p.keys {
		o.attempted++
		switch {
		case !p.done[i]:
			o.fail("probe %d (%s) never completed", i, p.keys[i])
		case p.err[i] != nil:
			o.fail("probe %d (%s) failed: %v", i, p.keys[i], p.err[i])
		case p.owner[i] != p.want[i]:
			o.fail("probe %d (%s) resolved to %s, want %s", i, p.keys[i], p.owner[i], p.want[i])
		default:
			ok = append(ok, p.latency[i])
		}
	}
	sortDurations(ok)
	o.det["lookup_p50_ms"] = percentile(ok, 0.50)
	o.det["lookup_p99_ms"] = percentile(ok, 0.99)
}

// perSecond returns how many probes to issue each virtual second so
// that count of them span window.
func perSecond(count int, window time.Duration) int {
	secs := int(window / time.Second)
	return (count + secs - 1) / secs
}

// lookupTimeout covers the overlay's default 10s request timeout, so
// the last probe of a loop has completed or failed when the run ends.
const lookupTimeout = 12 * time.Second

// deployment is the simulated system a workload runs on: the
// simulation seed (link latencies, node random streams) and the node
// names, which place the nodes on the ring.
type deployment struct {
	seed   int64
	prefix string
}

// defaultSimSeed is cmd/experiments' default seed. Its deployment names
// the nodes n-0, n-1, ... as cmd/experiments does, so every run at the
// default builds the repository's reference ring whatever its --seed.
const defaultSimSeed = 1

// newDeployment returns the deployment of a simulation seed. Any seed
// but the default also renames the nodes after it, so it builds a
// different ring, not only different timings on the same one.
func newDeployment(seed int64) deployment {
	if seed == defaultSimSeed {
		return deployment{seed: seed, prefix: "n"}
	}
	return deployment{seed: seed, prefix: fmt.Sprintf("s%d", seed)}
}

// build creates the deployment's environment and runs a cold
// experiments.BuildCluster of n nodes to convergence. It returns the
// virtual time the build took.
func (d deployment) build(n int, sp *spans) (*sim.Env, []*qp.Node, time.Duration) {
	env := sim.NewEnv(sim.Options{Seed: d.seed})
	v0 := env.Now()
	end := sp.begin("BuildCluster")
	nodes := experiments.BuildCluster(env, n, d.prefix)
	end()
	return env, nodes, env.Now().Sub(v0)
}

// ringBuild is a cold experiments.BuildCluster to convergence, which is
// its set-up, followed by an open loop of probe lookups while the
// overlay's maintenance keeps running, which is the measured phase.
type ringBuild struct {
	n, probes, perTick int
	tick               time.Duration

	env   *sim.Env
	nodes []*qp.Node
	ring  *ring
	p     *probes
	build time.Duration
}

func (w *ringBuild) setup(seed int64, d deployment, sp *spans) {
	w.env, w.nodes, w.build = d.build(w.n, sp)
	w.ring = newRing(addrsOf(w.nodes))
	w.p = planProbes(w.ring, w.n, rand.New(rand.NewSource(seed)), w.probes)
}

func (w *ringBuild) cluster() (*sim.Env, []*qp.Node) { return w.env, w.nodes }

func (w *ringBuild) run(sp *spans) {
	loop := w.p.schedule(w.nodes, w.perTick, w.tick)
	end := sp.begin("Env.Run")
	w.env.Run(loop + lookupTimeout)
	end()
}

func (w *ringBuild) check() outcome {
	o := outcome{det: map[string]float64{"build_virtual_s": w.build.Seconds()}}
	w.ring.checkSuccessors(w.nodes, &o)
	w.p.check(&o)
	return o
}
