package tuple

import (
	"strings"
	"time"

	"pier/internal/wire"
)

// Tuple is one self-describing relation row: table name plus ordered
// (column name, value) pairs. There is no shared schema object — each
// tuple is independently interpretable, which is what lets PIER process
// data from thousands of autonomous nodes with no catalog (§3.3.1).
//
// Tuples are value-like: operators share them freely and must not mutate
// a tuple after handing it downstream. Mutating constructors return the
// tuple for chaining during assembly only.
type Tuple struct {
	table string
	names []string
	vals  []Value
}

// New creates an empty tuple for the named table.
func New(table string) *Tuple { return &Tuple{table: table} }

// Table returns the tuple's self-described table name.
func (t *Tuple) Table() string { return t.table }

// WithTable returns a shallow copy bound to a different table name,
// sharing columns. Used when an operator re-labels a dataflow (e.g. a
// rendezvous namespace).
func (t *Tuple) WithTable(table string) *Tuple {
	return &Tuple{table: table, names: t.names, vals: t.vals}
}

// Set appends or replaces a column. It returns t for chaining while a
// tuple is being assembled.
func (t *Tuple) Set(col string, v Value) *Tuple {
	for i, n := range t.names {
		if n == col {
			t.vals[i] = v
			return t
		}
	}
	t.names = append(t.names, col)
	t.vals = append(t.vals, v)
	return t
}

// Get returns the named column's value. ok is false when the tuple does
// not carry the column — the malformed-tuple case operators must
// tolerate.
func (t *Tuple) Get(col string) (Value, bool) {
	for i, n := range t.names {
		if n == col {
			return t.vals[i], true
		}
	}
	return Value{}, false
}

// Columns returns the column names in declaration order. The caller must
// not modify the returned slice.
func (t *Tuple) Columns() []string { return t.names }

// Len returns the number of columns.
func (t *Tuple) Len() int { return len(t.names) }

// At returns the i'th column name and value.
func (t *Tuple) At(i int) (string, Value) { return t.names[i], t.vals[i] }

// Project returns a new tuple containing only the named columns, in the
// given order. Columns the tuple lacks are silently omitted (best-effort
// policy).
func (t *Tuple) Project(cols ...string) *Tuple {
	out := &Tuple{table: t.table, names: make([]string, 0, len(cols)), vals: make([]Value, 0, len(cols))}
	for _, c := range cols {
		if v, ok := t.Get(c); ok {
			out.names = append(out.names, c)
			out.vals = append(out.vals, v)
		}
	}
	return out
}

// Clone returns a deep-enough copy: names and values are copied (value
// payloads are immutable by convention).
func (t *Tuple) Clone() *Tuple {
	return &Tuple{
		table: t.table,
		names: append([]string(nil), t.names...),
		vals:  append([]Value(nil), t.vals...),
	}
}

// Join merges two tuples into a fresh one under table name out. Columns
// are prefixed with each source tuple's table name and a dot when prefix
// is true, mirroring SQL qualified names.
func Join(out string, a, b *Tuple, prefix bool) *Tuple {
	j := New(out)
	add := func(src *Tuple) {
		for i, n := range src.names {
			name := n
			if prefix {
				name = src.table + "." + n
			}
			j.Set(name, src.vals[i])
		}
	}
	add(a)
	add(b)
	return j
}

// KeyString builds the canonical DHT partitioning key from the named
// columns (§3.2.1: "the partitioning key is generated from one or more
// relational attributes"). ok is false if any column is absent.
func (t *Tuple) KeyString(cols ...string) (string, bool) {
	var sb strings.Builder
	for i, c := range cols {
		v, ok := t.Get(c)
		if !ok {
			return "", false
		}
		if i > 0 {
			sb.WriteByte(0x1f) // unit separator keeps keys injective
		}
		sb.WriteString(v.KeyString())
	}
	return sb.String(), true
}

// AppendKey appends the canonical DHT key over cols to dst, the
// allocation-free twin of KeyString (callers reuse dst across tuples).
// ok is false if any column is absent; dst may then hold a partial key
// and must be re-truncated by the caller.
func (t *Tuple) AppendKey(dst []byte, cols []string) ([]byte, bool) {
	for i, c := range cols {
		v, ok := t.Get(c)
		if !ok {
			return dst, false
		}
		if i > 0 {
			dst = append(dst, 0x1f)
		}
		dst = v.AppendKey(dst)
	}
	return dst, true
}

// String renders the tuple for logs and debugging.
func (t *Tuple) String() string {
	var sb strings.Builder
	sb.WriteString(t.table)
	sb.WriteByte('(')
	for i, n := range t.names {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(n)
		sb.WriteByte('=')
		sb.WriteString(t.vals[i].String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// Encode serializes the tuple in PIER's wire format: table name, column
// count, then (name, kind, payload) per column.
func (t *Tuple) Encode() []byte {
	w := wire.NewWriter(32 + 16*len(t.names))
	t.EncodeTo(w)
	return w.Bytes()
}

// EncodeTo appends the tuple's encoding to an existing writer, so batches
// share one buffer.
func (t *Tuple) EncodeTo(w *wire.Writer) {
	w.String(t.table)
	w.U16(uint16(len(t.names)))
	for i, n := range t.names {
		w.String(n)
		t.vals[i].encodeTo(w)
	}
}

// Decode parses one tuple from b.
func Decode(b []byte) (*Tuple, error) {
	r := wire.NewReader(b)
	t := DecodeFrom(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// DecodeFrom parses one tuple from a reader positioned at a tuple
// boundary; check r.Err afterwards.
func DecodeFrom(r *wire.Reader) *Tuple {
	t := &Tuple{table: r.String()}
	n := int(r.U16())
	for i := 0; i < n && r.Err() == nil; i++ {
		t.names = append(t.names, r.String())
		t.vals = append(t.vals, decodeValue(r))
	}
	return t
}

// Ts is shorthand for building a Time value from components, used by
// tests and workload generators.
func Ts(year int, month time.Month, day, hour, min, sec int) Value {
	return Time(time.Date(year, month, day, hour, min, sec, 0, time.UTC))
}
