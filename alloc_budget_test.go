package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"pier/internal/experiments"
	"pier/internal/sim"
	"pier/internal/ufl"
)

// TestEventThroughputAllocBudget is the allocation-regression gate for
// the scheduler hot path: it runs the BenchmarkSimulatorEventThroughput
// storm body with allocation accounting and fails if allocs/op exceeds
// the checked-in budget (alloc_budget.json), so the pooled-event
// zero-alloc property cannot silently rot. Gated behind an env var
// because it burns ~1s of benchmarking per worker count; the CI
// bench-smoke lane sets PIER_ALLOC_BUDGET=1.
func TestEventThroughputAllocBudget(t *testing.T) {
	if os.Getenv("PIER_ALLOC_BUDGET") == "" {
		t.Skip("set PIER_ALLOC_BUDGET=1 to enforce the allocation budget")
	}
	raw, err := os.ReadFile("alloc_budget.json")
	if err != nil {
		t.Fatalf("reading budget file: %v", err)
	}
	var budget struct {
		AllocsPerOp map[string]int64 `json:"allocs_per_op"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatalf("parsing alloc_budget.json: %v", err)
	}
	if len(budget.AllocsPerOp) == 0 {
		t.Fatal("alloc_budget.json carries no allocs_per_op entries")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		key := fmt.Sprintf("workers=%d", workers)
		limit, ok := budget.AllocsPerOp[key]
		if !ok {
			t.Errorf("alloc_budget.json has no budget for %s", key)
			continue
		}
		res := testing.Benchmark(func(b *testing.B) { runEventThroughput(b, workers) })
		got := res.AllocsPerOp()
		t.Logf("%s: %d allocs/op (budget %d), %d B/op, %s",
			key, got, limit, res.AllocedBytesPerOp(), res.String())
		if got > limit {
			t.Errorf("%s: %d allocs/op exceeds the checked-in budget of %d — the event hot path regressed; "+
				"if the regression is intentional, justify it and raise alloc_budget.json in the same change",
				key, got, limit)
		}
	}
}

// TestExecBatchAllocBudget gates the vectorized operator path per tuple
// processed: it runs the BenchmarkExecBatchThroughput body (8192 rows
// through Select(compiled) → GroupBy per op) at each batch size and
// fails if allocs divided by rows processed exceed the checked-in
// per-tuple budget. It also enforces the relative contract — batch=1024
// must allocate less than 40% of what the row-wise path does per tuple —
// so the batch path cannot quietly converge back to per-tuple costs
// while staying under a stale absolute cap.
func TestExecBatchAllocBudget(t *testing.T) {
	if os.Getenv("PIER_ALLOC_BUDGET") == "" {
		t.Skip("set PIER_ALLOC_BUDGET=1 to enforce the allocation budget")
	}
	raw, err := os.ReadFile("alloc_budget.json")
	if err != nil {
		t.Fatalf("reading budget file: %v", err)
	}
	var budget struct {
		ExecBatchAllocsPerTuple map[string]float64 `json:"exec_batch_allocs_per_tuple"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatalf("parsing alloc_budget.json: %v", err)
	}
	if len(budget.ExecBatchAllocsPerTuple) == 0 {
		t.Fatal("alloc_budget.json carries no exec_batch_allocs_per_tuple entries")
	}
	perTuple := map[string]float64{}
	for _, size := range []int{0, 1, 64, 1024} {
		size := size
		key := "rowwise"
		if size > 0 {
			key = fmt.Sprintf("batch=%d", size)
		}
		limit, ok := budget.ExecBatchAllocsPerTuple[key]
		if !ok {
			t.Errorf("alloc_budget.json has no exec-batch budget for %s", key)
			continue
		}
		res := testing.Benchmark(func(b *testing.B) { runExecBatch(b, size) })
		got := float64(res.AllocsPerOp()) / execBatchRows
		perTuple[key] = got
		t.Logf("%s: %.4f allocs/tuple (budget %.4f), %d allocs/op over %d rows",
			key, got, limit, res.AllocsPerOp(), execBatchRows)
		if got > limit {
			t.Errorf("%s: %.4f allocs/tuple exceeds the checked-in budget of %.4f — per-tuple allocations "+
				"crept into the batch path; if intentional, justify it and raise alloc_budget.json in the "+
				"same change", key, got, limit)
		}
	}
	if row, ok := perTuple["rowwise"]; ok {
		if batch, ok := perTuple["batch=1024"]; ok && batch > 0.4*row {
			t.Errorf("batch=1024 allocates %.4f/tuple, more than 40%% of rowwise's %.4f — the "+
				"vectorized path lost its amortization advantage", batch, row)
		}
	}
}

// TestQueryStormAllocBudget is the multi-tenant twin of the gate above:
// it runs the BenchmarkQueryStormDispatch body — Q concurrent continuous
// queries fed by a fixed publish load — and fails if allocs/op exceeds
// the checked-in budget. The budgets are equal across Q on purpose: the
// shared table bus decodes once and fans shared read-only tuples out
// allocation-free, so per-QUERY-per-event allocations show up as the
// queries=64 row outgrowing queries=1 long before it reaches the cap.
func TestQueryStormAllocBudget(t *testing.T) {
	if os.Getenv("PIER_ALLOC_BUDGET") == "" {
		t.Skip("set PIER_ALLOC_BUDGET=1 to enforce the allocation budget")
	}
	raw, err := os.ReadFile("alloc_budget.json")
	if err != nil {
		t.Fatalf("reading budget file: %v", err)
	}
	var budget struct {
		QueryStormAllocsPerOp map[string]int64 `json:"query_storm_allocs_per_op"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatalf("parsing alloc_budget.json: %v", err)
	}
	if len(budget.QueryStormAllocsPerOp) == 0 {
		t.Fatal("alloc_budget.json carries no query_storm_allocs_per_op entries")
	}
	for _, queries := range []int{1, 16, 64} {
		queries := queries
		key := fmt.Sprintf("queries=%d", queries)
		limit, ok := budget.QueryStormAllocsPerOp[key]
		if !ok {
			t.Errorf("alloc_budget.json has no query-storm budget for %s", key)
			continue
		}
		res := testing.Benchmark(func(b *testing.B) { runQueryStorm(b, queries) })
		got := res.AllocsPerOp()
		t.Logf("%s: %d allocs/op (budget %d), %d B/op, %s",
			key, got, limit, res.AllocedBytesPerOp(), res.String())
		if got > limit {
			t.Errorf("%s: %d allocs/op exceeds the checked-in budget of %d — per-query-per-event "+
				"allocations crept into the multi-tenant dispatch path; if intentional, justify it and "+
				"raise alloc_budget.json in the same change", key, got, limit)
		}
	}
}

// TestSharedSubtreeAllocBudget gates the §3.3.2 shared-chain dispatch
// path: it runs the BenchmarkSharedSubtreeDispatch body — Q structurally
// identical Result-tailed queries that resolve to ONE shared operator
// chain per node — and fails if allocs/op exceeds the checked-in budget.
// The budgets are equal across Q on purpose: the shared chain is fed
// once per publish and the demux fan-out to per-query tails allocates
// nothing, so per-ATTACHMENT-per-event allocations show up as the
// queries=64 row outgrowing queries=1 long before it reaches the cap.
func TestSharedSubtreeAllocBudget(t *testing.T) {
	if os.Getenv("PIER_ALLOC_BUDGET") == "" {
		t.Skip("set PIER_ALLOC_BUDGET=1 to enforce the allocation budget")
	}
	raw, err := os.ReadFile("alloc_budget.json")
	if err != nil {
		t.Fatalf("reading budget file: %v", err)
	}
	var budget struct {
		SharedSubtreeAllocsPerOp map[string]int64 `json:"shared_subtree_dispatch"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatalf("parsing alloc_budget.json: %v", err)
	}
	if len(budget.SharedSubtreeAllocsPerOp) == 0 {
		t.Fatal("alloc_budget.json carries no shared_subtree_dispatch entries")
	}
	for _, queries := range []int{1, 16, 64} {
		queries := queries
		key := fmt.Sprintf("queries=%d", queries)
		limit, ok := budget.SharedSubtreeAllocsPerOp[key]
		if !ok {
			t.Errorf("alloc_budget.json has no shared-subtree budget for %s", key)
			continue
		}
		res := testing.Benchmark(func(b *testing.B) { runSharedSubtreeDispatch(b, queries) })
		got := res.AllocsPerOp()
		t.Logf("%s: %d allocs/op (budget %d), %d B/op, %s",
			key, got, limit, res.AllocedBytesPerOp(), res.String())
		if got > limit {
			t.Errorf("%s: %d allocs/op exceeds the checked-in budget of %d — per-attachment-per-event "+
				"allocations crept into the shared-subtree dispatch path; if intentional, justify it and "+
				"raise alloc_budget.json in the same change", key, got, limit)
		}
	}
}

// TestAggBatchAllocBudget gates the column-at-a-time aggregation path
// per tuple accumulated: it runs the BenchmarkGroupByColumnar body —
// 8192 rows into a five-agg GroupBy, flushed as ONE columnar batch and
// fanned through a Demux to Q tails — and fails if allocs divided by
// rows exceed the checked-in budget. Two relative contracts ride along:
// batch=1024 must allocate under half of the row-wise path per tuple
// (the AddBatch/EmitBatch amortization claim), and tails=64 must stay
// within 2x of tails=1 (the single-emission claim — the flushed window
// is one shared read-only batch however many queries consume it, so
// emission is O(groups + Q), never O(groups x Q)).
func TestAggBatchAllocBudget(t *testing.T) {
	if os.Getenv("PIER_ALLOC_BUDGET") == "" {
		t.Skip("set PIER_ALLOC_BUDGET=1 to enforce the allocation budget")
	}
	raw, err := os.ReadFile("alloc_budget.json")
	if err != nil {
		t.Fatalf("reading budget file: %v", err)
	}
	var budget struct {
		AggAllocsPerTuple map[string]float64 `json:"agg_allocs_per_tuple"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatalf("parsing alloc_budget.json: %v", err)
	}
	if len(budget.AggAllocsPerTuple) == 0 {
		t.Fatal("alloc_budget.json carries no agg_allocs_per_tuple entries")
	}
	perTuple := map[string]float64{}
	for _, cfg := range []struct {
		size, tails int
	}{{0, 1}, {1024, 1}, {1024, 16}, {1024, 64}} {
		cfg := cfg
		key := "rowwise"
		if cfg.size > 0 {
			key = fmt.Sprintf("batch=%d/tails=%d", cfg.size, cfg.tails)
		}
		limit, ok := budget.AggAllocsPerTuple[key]
		if !ok {
			t.Errorf("alloc_budget.json has no agg budget for %s", key)
			continue
		}
		res := testing.Benchmark(func(b *testing.B) { runGroupByColumnar(b, cfg.size, cfg.tails) })
		got := float64(res.AllocsPerOp()) / execBatchRows
		perTuple[key] = got
		t.Logf("%s: %.4f allocs/tuple (budget %.4f), %d allocs/op over %d rows",
			key, got, limit, res.AllocsPerOp(), execBatchRows)
		if got > limit {
			t.Errorf("%s: %.4f allocs/tuple exceeds the checked-in budget of %.4f — per-tuple "+
				"allocations crept into the aggregation batch path; if intentional, justify it and "+
				"raise alloc_budget.json in the same change", key, got, limit)
		}
	}
	if row, ok := perTuple["rowwise"]; ok {
		if batch, ok := perTuple["batch=1024/tails=1"]; ok && batch > 0.5*row {
			t.Errorf("batch=1024 allocates %.4f/tuple, more than 50%% of rowwise's %.4f — "+
				"column-at-a-time accumulation lost its amortization advantage", batch, row)
		}
	}
	if one, ok := perTuple["batch=1024/tails=1"]; ok {
		if many, ok := perTuple["batch=1024/tails=64"]; ok && many > 2*one {
			t.Errorf("tails=64 allocates %.4f/tuple, more than 2x tails=1's %.4f — emission is "+
				"scaling with the consumer count instead of staying one shared batch", many, one)
		}
	}
}

// TestRingMaintenanceAllocBudget gates steady-state ring maintenance: it
// runs the BenchmarkRingMaintenance body (a converged 128-node cluster,
// one virtual second per op) and fails if allocs/op exceeds the
// checked-in budget, so per-message or per-timer allocations creeping
// back into the overlay's stabilize, finger-repair and probe loops (or
// the scheduler under them) trip the gate.
func TestRingMaintenanceAllocBudget(t *testing.T) {
	if os.Getenv("PIER_ALLOC_BUDGET") == "" {
		t.Skip("set PIER_ALLOC_BUDGET=1 to enforce the allocation budget")
	}
	raw, err := os.ReadFile("alloc_budget.json")
	if err != nil {
		t.Fatalf("reading budget file: %v", err)
	}
	var budget struct {
		RingMaintenance map[string]int64 `json:"ring_maintenance"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatalf("parsing alloc_budget.json: %v", err)
	}
	const key = "nodes=128"
	limit, ok := budget.RingMaintenance[key]
	if !ok {
		t.Fatalf("alloc_budget.json has no ring_maintenance budget for %s", key)
	}
	res := testing.Benchmark(runRingMaintenance)
	got := res.AllocsPerOp()
	t.Logf("%s: %d allocs/op (budget %d), %d B/op, %s", key, got, limit, res.AllocedBytesPerOp(), res.String())
	if got > limit {
		t.Errorf("%s: %d allocs/op exceeds the checked-in budget of %d — ring maintenance allocates more "+
			"per virtual second; if intentional, justify it and raise alloc_budget.json in the same change",
			key, got, limit)
	}
}

// TestTableScanAllocBudget gates the table scan per stored row: it runs
// the BenchmarkTableScan body (a one-shot Scan → Select → GroupBy →
// Result query over 1000 stored rows per op) and fails if allocs/op
// divided by the row count exceeds the checked-in budget, so a scan that
// falls back to decoding each stored object into its own batch trips
// the gate.
func TestTableScanAllocBudget(t *testing.T) {
	if os.Getenv("PIER_ALLOC_BUDGET") == "" {
		t.Skip("set PIER_ALLOC_BUDGET=1 to enforce the allocation budget")
	}
	raw, err := os.ReadFile("alloc_budget.json")
	if err != nil {
		t.Fatalf("reading budget file: %v", err)
	}
	var budget struct {
		TableScan map[string]float64 `json:"table_scan_allocs_per_row"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatalf("parsing alloc_budget.json: %v", err)
	}
	const key = "rows=1000"
	limit, ok := budget.TableScan[key]
	if !ok {
		t.Fatalf("alloc_budget.json has no table_scan_allocs_per_row budget for %s", key)
	}
	res := testing.Benchmark(runTableScan)
	got := float64(res.AllocsPerOp()) / tableScanRows
	t.Logf("%s: %.3f allocs/row (budget %.3f), %d allocs/op, %s", key, got, limit, res.AllocsPerOp(), res.String())
	if got > limit {
		t.Errorf("%s: %.3f allocs/row exceeds the checked-in budget of %.3f — the table scan allocates "+
			"more per stored row; if intentional, justify it and raise alloc_budget.json in the same change",
			key, got, limit)
	}
}

// TestAdmittedGraphFootprint gates the memory an admitted opgraph keeps
// while it runs: it admits Q same-shape broadcast continuous queries on
// a small cluster, forces a collection, and fails if the live heap
// objects added per admitted (node, query) exceed the checked-in
// budget. A running graph owns its id, tag, roots, teardown hooks and
// timers; retaining the decoded plan or a build-time operator map for
// the query's whole life trips the gate.
func TestAdmittedGraphFootprint(t *testing.T) {
	if os.Getenv("PIER_ALLOC_BUDGET") == "" {
		t.Skip("set PIER_ALLOC_BUDGET=1 to enforce the allocation budget")
	}
	raw, err := os.ReadFile("alloc_budget.json")
	if err != nil {
		t.Fatalf("reading budget file: %v", err)
	}
	var budget struct {
		Footprint map[string]float64 `json:"admitted_graph_live_objects"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatalf("parsing alloc_budget.json: %v", err)
	}
	const queries = 200
	key := fmt.Sprintf("queries=%d", queries)
	limit, ok := budget.Footprint[key]
	if !ok {
		t.Fatalf("alloc_budget.json has no admitted_graph_live_objects budget for %s", key)
	}
	objects, bytes := admittedGraphFootprint(t, queries)
	t.Logf("%s: %.1f live objects and %.0f live bytes per admitted graph (budget %.1f objects)",
		key, objects, bytes, limit)
	if objects > limit {
		t.Errorf("%s: %.1f live objects per admitted graph exceeds the checked-in budget of %.1f — an "+
			"admitted graph retains more than teardown needs; if intentional, justify it and raise "+
			"alloc_budget.json in the same change", key, objects, limit)
	}
}

// admittedGraphFootprint admits queries same-shape continuous
// aggregations (the qstorm plan: NewData → GroupBy with a flush period →
// Result, broadcast) on an 8-node cluster and returns the live heap
// objects and bytes they added, per admitted (node, query), measured
// after a forced collection on both sides. No events are published, so
// the figure is admission state alone: the per-query tails and
// timers, the proxy's per-query state, and the shared chain amortized
// over every query.
func admittedGraphFootprint(t *testing.T, queries int) (objects, bytes float64) {
	const nodeCount = 8
	env := sim.NewEnv(sim.Options{Seed: 1})
	nodes := experiments.BuildCluster(env, nodeCount, "n")
	env.Run(5 * time.Second)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < queries; i++ {
		plan := ufl.MustParse(fmt.Sprintf(`
query footprint%d timeout 4h
opgraph g disseminate broadcast {
    src = NewData(table='fwlogs')
    agg = GroupBy(keys='node', aggs='count(*) as cnt', flushevery='1s')
    out = Result()
    agg <- src
    out <- agg
}
`, i))
		if err := nodes[i%nodeCount].Submit(plan, fmt.Sprintf("client%d", i%10), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	env.Run(5 * time.Second)
	for i, n := range nodes {
		if st := n.Stats(); st.LiveGraphs != queries || st.SharedSubtrees != 1 {
			t.Fatalf("node %d: %d live graphs on %d shared chains, want %d on 1", i, st.LiveGraphs, st.SharedSubtrees, queries)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(env)
	runtime.KeepAlive(nodes)
	graphs := float64(nodeCount * queries)
	return (float64(after.HeapObjects) - float64(before.HeapObjects)) / graphs,
		(float64(after.HeapAlloc) - float64(before.HeapAlloc)) / graphs
}
