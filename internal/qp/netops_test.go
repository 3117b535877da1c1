package qp

import (
	"bytes"
	"testing"
	"time"

	"pier/internal/exec"
	"pier/internal/overlay"
	"pier/internal/tuple"
)

// TestPutBatchSingletonsMatchPush: a batch whose partitioning keys are
// all distinct must ship exactly the payloads row-at-a-time Push ships —
// the legacy single-tuple encoding, not a one-row multi-row frame — so
// what a row costs on the wire does not depend on upstream batching.
func TestPutBatchSingletonsMatchPush(t *testing.T) {
	env, n := soloNode(t, 61)
	lg := &liveGraph{n: n, rq: &runningQuery{id: "q", timeout: time.Hour}}
	b := tuple.NewColumnarBatch("fw", []string{"src", "port"}, 2)
	b.AppendRow([]tuple.Value{tuple.String("a"), tuple.Int(1)})
	b.AppendRow([]tuple.Value{tuple.String("b"), tuple.Int(2)})

	lg.newPut("batched", []string{"src"}, false).PushBatch(exec.Tag(0), b)
	rowwise := lg.newPut("rowwise", []string{"src"}, false)
	for i := 0; i < b.Len(); i++ {
		rowwise.Push(exec.Tag(0), b.Row(i))
	}
	env.Run(time.Second)

	payloads := func(ns string) [][]byte {
		var out [][]byte
		n.DHT().LocalScan(ns, func(o overlay.Object) bool {
			out = append(out, o.Data)
			return true
		})
		return out
	}
	got, want := payloads("batched"), payloads("rowwise")
	if len(want) != 2 || len(got) != len(want) {
		t.Fatalf("stored %d batched and %d row-wise payloads, want 2 each", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("payload %d: batched %x, row-wise %x", i, got[i], want[i])
		}
	}
}
