package tuple

import "pier/internal/wire"

// ScanBatchRows caps the rows of one columnar batch built by a
// ScanAppender: large enough to amortize per-batch operator costs, small
// enough that a scan over a big table streams instead of materializing.
const ScanBatchRows = 1024

// ScanAppender decodes the stored objects of one table scan, in scan
// order, into as few batches as the stream allows. It is the scan-side
// twin of DecodeFrame: the flattened rows it emits, and the objects it
// rejects, are exactly those of decoding every object alone with
// DecodeFrame and filtering it with FilterTable(only).
//
//   - A legacy single-tuple frame whose table and column names match the
//     current columnar batch is decoded straight into it. Names are
//     compared as bytes against the batch schema, so a matching row
//     allocates only its string and bytes payloads.
//   - A row with another schema emits the current batch and starts a new
//     one. A row whose column names repeat (or that has none) cannot be
//     columnar and is emitted alone, row-backed.
//   - A multi-row 'B'/'C' frame emits the current batch and then passes
//     through whole, so row order never changes.
//   - A malformed object is rejected with its decode error and leaves
//     the current batch untouched.
//
// Batches hold at most ScanBatchRows rows and are emitted when full, on
// a schema change, before a multi-row frame, and on Flush. Each new
// columnar batch is sized from the number of objects still to come, so
// a scan never grows a batch by reallocation. Emitted batches follow the
// shared read-only batch contract; the appender never touches one again.
type ScanAppender struct {
	only string
	emit func(*Batch)
	// left counts the objects not yet added, the size hint for the next
	// batch.
	left int
	cur  *Batch
}

// NewScanAppender returns an appender for a scan that will add the given
// number of objects. It keeps only rows of table only (every row when
// only is empty) and hands each finished batch to emit.
func NewScanAppender(only string, objects int, emit func(*Batch)) *ScanAppender {
	return &ScanAppender{only: only, emit: emit, left: objects}
}

// Add decodes one stored object. A non-nil error means the object is
// malformed and was skipped.
func (a *ScanAppender) Add(data []byte) error {
	rows := min(max(a.left, 1), ScanBatchRows)
	if a.left > 0 {
		a.left--
	}
	if len(data) == 0 || data[0] == frameMagic {
		fb, err := DecodeFrame(data)
		if err != nil {
			return err
		}
		if fb = fb.FilterTable(a.only); fb != nil && fb.Len() > 0 {
			a.Flush()
			a.emit(fb)
		}
		return nil
	}
	if a.appendRow(data) {
		return nil
	}
	t, err := Decode(data)
	if err != nil {
		return err
	}
	if a.only != "" && t.table != a.only {
		return nil
	}
	a.Flush()
	if !columnarSchema(t.names) {
		a.emit(OfTuple(t))
		return nil
	}
	a.cur = NewColumnarBatch(t.table, t.names, rows)
	a.cur.AppendRow(t.vals)
	a.flushIfFull()
	return nil
}

// appendRow decodes a legacy single-tuple frame straight into the
// current batch when its schema matches. It reports false, with the
// batch unchanged, on a schema mismatch or a decode error; the caller
// then takes the general path, which classifies the object.
func (a *ScanAppender) appendRow(data []byte) bool {
	b := a.cur
	if b == nil {
		return false
	}
	r := wire.NewReader(data)
	if string(r.Bytes32()) != b.table || int(r.U16()) != len(b.names) || r.Err() != nil {
		return false
	}
	base := len(b.vals)
	for _, name := range b.names {
		if string(r.Bytes32()) != name || r.Err() != nil {
			b.vals = b.vals[:base]
			return false
		}
		b.vals = append(b.vals, decodeValue(r))
	}
	if r.Err() != nil {
		b.vals = b.vals[:base]
		return false
	}
	b.commitRow()
	a.flushIfFull()
	return true
}

func (a *ScanAppender) flushIfFull() {
	if a.cur.n == ScanBatchRows {
		a.Flush()
	}
}

// Flush emits the current batch, if it holds any rows. Call it once the
// scan is over.
func (a *ScanAppender) Flush() {
	if b := a.cur; b != nil {
		a.cur = nil
		a.emit(b)
	}
}

// columnarSchema reports whether a row with these column names can live
// in a columnar batch: at least one column and no repeated name.
func columnarSchema(names []string) bool {
	for i, n := range names {
		for _, m := range names[:i] {
			if n == m {
				return false
			}
		}
	}
	return len(names) > 0
}
