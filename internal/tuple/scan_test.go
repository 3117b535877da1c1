package tuple

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// renderRow renders a row with every value's kind, so rows that print
// alike but differ in kind (Int(1) and Float(1)) compare unequal.
func renderRow(t *Tuple) string {
	var sb strings.Builder
	sb.WriteString(t.Table())
	for i := 0; i < t.Len(); i++ {
		name, v := t.At(i)
		fmt.Fprintf(&sb, "|%s:%s=%s", name, v.Kind(), v)
	}
	return sb.String()
}

// perObjectRows is the reference for a scan: every object decoded alone
// by DecodeFrame and filtered with FilterTable, one batch per object.
func perObjectRows(objs [][]byte, only string) (rows []string, malformed int) {
	for _, o := range objs {
		fb, err := DecodeFrame(o)
		if err != nil {
			malformed++
			continue
		}
		if fb = fb.FilterTable(only); fb != nil {
			for i := 0; i < fb.Len(); i++ {
				rows = append(rows, renderRow(fb.Row(i)))
			}
		}
	}
	return rows, malformed
}

// appendedRows runs the objects through a ScanAppender, checking every
// emitted batch against the appender's contract on the way.
func appendedRows(t *testing.T, objs [][]byte, only string) (rows []string, malformed int) {
	t.Helper()
	var batches []*Batch
	app := NewScanAppender(only, len(objs), func(b *Batch) { batches = append(batches, b) })
	for _, o := range objs {
		if app.Add(o) != nil {
			malformed++
		}
	}
	app.Flush()
	for _, b := range batches {
		n := b.Len()
		if n == 0 || n > ScanBatchRows {
			t.Fatalf("emitted a batch of %d rows", n)
		}
		if b.Columnar() {
			if !columnarSchema(b.Names()) {
				t.Fatalf("columnar batch with schema %v", b.Names())
			}
			for c := range b.Names() {
				k, uniform := b.ColKind(c)
				for i := 0; i < n; i++ {
					if got := b.At(i, c).Kind(); uniform && got != k {
						t.Fatalf("column %d claims kind %v, row %d has %v", c, k, i, got)
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			rows = append(rows, renderRow(b.Row(i)))
		}
	}
	return rows, malformed
}

// checkScanMatches asserts the appender reproduces the reference's
// flattened rows and malformed count exactly.
func checkScanMatches(t *testing.T, objs [][]byte, only string) {
	t.Helper()
	want, wantBad := perObjectRows(objs, only)
	got, gotBad := appendedRows(t, objs, only)
	if gotBad != wantBad {
		t.Fatalf("malformed: got %d, want %d", gotBad, wantBad)
	}
	if len(got) != len(want) {
		t.Fatalf("rows: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

// scanSchemas are the column layouts the generator draws rows from:
// two tables, reordered and extended schemas, a repeated column name,
// and no columns at all.
var scanSchemas = []struct {
	table string
	cols  []string
}{
	{"fw", []string{"src", "port", "sev"}},
	{"fw", []string{"src", "port", "sev"}},
	{"fw", []string{"src", "port", "sev"}},
	{"fw", []string{"port", "src", "sev"}},
	{"fw", []string{"src", "port", "sev", "extra"}},
	{"other", []string{"src", "port", "sev"}},
	{"fw", []string{"src", "src"}},
	{"fw", nil},
}

func randValue(rng *rand.Rand) Value {
	switch rng.Intn(10) {
	case 0:
		return Null()
	case 1:
		return Bool(rng.Intn(2) == 0)
	case 2:
		return Float(rng.Float64())
	case 3:
		return Bytes([]byte{byte(rng.Intn(256)), byte(rng.Intn(256))})
	case 4, 5:
		return String(fmt.Sprintf("h%d", rng.Intn(5)))
	default:
		return Int(rng.Int63n(100))
	}
}

func randRow(rng *rand.Rand) *Tuple {
	s := scanSchemas[rng.Intn(len(scanSchemas))]
	t := New(s.table)
	for _, c := range s.cols {
		// Append rather than Set, so repeated names survive.
		t.names = append(t.names, c)
		t.vals = append(t.vals, randValue(rng))
	}
	return t
}

// genScanObjects draws n stored objects: mostly legacy single-tuple
// frames in runs of one schema, plus columnar and row frames, malformed
// and empty objects.
func genScanObjects(rng *rand.Rand, n int) [][]byte {
	var objs [][]byte
	for len(objs) < n {
		switch k := rng.Intn(20); {
		case k < 14: // a run of same-schema rows, sometimes very long
			proto := randRow(rng)
			run := 1 + rng.Intn(8)
			if rng.Intn(10) == 0 {
				run = 1 + rng.Intn(2*ScanBatchRows)
			}
			for i := 0; i < run && len(objs) < n; i++ {
				row := &Tuple{table: proto.table, names: proto.names}
				for range proto.names {
					row.vals = append(row.vals, randValue(rng))
				}
				objs = append(objs, row.Encode())
			}
		case k < 16: // columnar frame
			s := scanSchemas[rng.Intn(6)]
			b := NewColumnarBatch(s.table, s.cols, 0)
			for i := rng.Intn(4); i >= 0; i-- {
				vals := make([]Value, len(s.cols))
				for c := range vals {
					vals[c] = randValue(rng)
				}
				b.AppendRow(vals)
			}
			objs = append(objs, b.EncodeFrame())
		case k < 18: // row frame, possibly mixing tables
			var rows []*Tuple
			for i := rng.Intn(4); i >= 0; i-- {
				rows = append(rows, randRow(rng))
			}
			objs = append(objs, FromTuples(rows).EncodeFrame())
		default: // malformed: truncated, empty, bad frame kind
			enc := randRow(rng).Encode()
			switch rng.Intn(4) {
			case 0:
				objs = append(objs, enc[:rng.Intn(len(enc))])
			case 1:
				objs = append(objs, []byte{})
			case 2:
				objs = append(objs, []byte{frameMagic, 'X', 1})
			default:
				objs = append(objs, []byte{frameMagic})
			}
		}
	}
	return objs
}

func encodeAll(ts ...*Tuple) [][]byte {
	out := make([][]byte, len(ts))
	for i, t := range ts {
		out[i] = t.Encode()
	}
	return out
}

func fw(src string, port int64) *Tuple {
	return New("fw").Set("src", String(src)).Set("port", Int(port))
}

// TestScanAppenderMatchesPerObject checks the appender against the
// per-object reference on hand-built streams for each rule, and on
// random streams.
func TestScanAppenderMatchesPerObject(t *testing.T) {
	colFrame := NewColumnarBatch("fw", []string{"src", "port"}, 2)
	colFrame.AppendRow([]Value{String("c1"), Int(1)})
	colFrame.AppendRow([]Value{String("c2"), Float(2)})
	rowFrame := FromTuples([]*Tuple{fw("b1", 1), New("other").Set("x", Int(1))})
	dup := &Tuple{table: "fw", names: []string{"src", "src"}, vals: []Value{String("a"), String("b")}}
	long := make([]*Tuple, 2*ScanBatchRows+5)
	for i := range long {
		long[i] = fw(fmt.Sprint(i%7), int64(i))
	}
	cases := []struct {
		name string
		objs [][]byte
	}{
		{"one schema", encodeAll(fw("a", 1), fw("b", 2), fw("c", 3))},
		{"mixed kinds in a column", encodeAll(fw("a", 1), New("fw").Set("src", Int(9)).Set("port", Int(2)))},
		{"schema changes", encodeAll(fw("a", 1), New("fw").Set("port", Int(2)).Set("src", String("b")), fw("c", 3),
			New("other").Set("src", String("d")).Set("port", Int(4)), fw("e", 5))},
		{"interleaved frames", append(append(encodeAll(fw("a", 1), fw("b", 2)),
			colFrame.EncodeFrame(), rowFrame.EncodeFrame()), encodeAll(fw("c", 3))...)},
		{"malformed and empty", append(append(encodeAll(fw("a", 1)), []byte{}, fw("bad", 2).Encode()[:9],
			[]byte{frameMagic, 'Q'}, []byte{0, 0, 0, 9}), encodeAll(fw("b", 3))...)},
		{"duplicate column names", encodeAll(fw("a", 1), dup, dup, fw("b", 2))},
		{"no columns", encodeAll(New("fw"), fw("a", 1), New("fw"))},
		{"longer than a batch", encodeAll(long...)},
	}
	for _, c := range cases {
		for _, only := range []string{"", "fw", "other", "none"} {
			t.Run(c.name+"/only="+only, func(t *testing.T) { checkScanMatches(t, c.objs, only) })
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		objs := genScanObjects(rng, 1+rng.Intn(3000))
		for _, only := range []string{"", "fw", "other"} {
			checkScanMatches(t, objs, only)
		}
	}
}

// TestScanAppenderBatchesLegacyRows: a run of same-schema legacy rows
// becomes columnar batches of ScanBatchRows, not one batch per row.
func TestScanAppenderBatchesLegacyRows(t *testing.T) {
	var sizes []int
	app := NewScanAppender("", 2500, func(b *Batch) {
		if !b.Columnar() {
			t.Fatal("same-schema rows emitted row-backed")
		}
		sizes = append(sizes, b.Len())
	})
	for i := 0; i < 2500; i++ {
		if err := app.Add(fw("a", int64(i)).Encode()); err != nil {
			t.Fatal(err)
		}
	}
	app.Flush()
	if fmt.Sprint(sizes) != "[1024 1024 452]" {
		t.Fatalf("batch sizes %v", sizes)
	}
}

// FuzzScanBatchesMatchPerObject drives the appender with a generated
// stream of stored objects (seed, count) with the fuzzer's raw bytes
// spliced in as further objects, and requires the flattened rows and
// malformed count of the per-object reference.
func FuzzScanBatchesMatchPerObject(f *testing.F) {
	f.Add(int64(1), uint16(50), uint8(0), []byte{})
	f.Add(int64(2), uint16(1500), uint8(1), fw("a", 1).Encode())
	f.Add(int64(3), uint16(10), uint8(2), []byte{3, frameMagic, 'C', 0, 5, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, onlySel uint8, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		objs := genScanObjects(rng, int(n%3000))
		// raw is a sequence of (length byte, object) chunks, each
		// inserted at a position drawn from the seed.
		for len(raw) > 0 {
			l := min(int(raw[0]), len(raw)-1)
			obj := raw[1 : 1+l]
			raw = raw[1+l:]
			at := rng.Intn(len(objs) + 1)
			objs = slices.Insert(objs, at, obj)
		}
		only := []string{"", "fw", "other", "none"}[onlySel%4]
		checkScanMatches(t, objs, only)
	})
}
