package ufl

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pier/internal/expr"
)

// FuzzSignaturesMatchReference: the single-pass Signatures (and the
// Signature/SubtreeSignatures wrappers over it) must return exactly the
// hash values of the two-pass reference below on arbitrary graphs —
// renamed and duplicated op ids, predicate and query-id-embedding
// arguments, cycles, and edges naming undeclared ops. The hashes key
// the query processor's shared-subtree cache, so any drift would
// silently change which queries share a chain.
func FuzzSignaturesMatchReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte("\x03\x00\x02\x04\x01\x00\x02\x00\x01\x01\x03\x02\x01\x00\x01\x02\x02\x00\x00"))
	f.Add([]byte("\x01\x02\x03\x05\x04\x03\x02\x01\x00\x05\x04\x03\x02\x01\x00\xff\xfe\xfd\x10\x20\x30"))
	f.Add([]byte("fwlogs.partial AND severity >= 4 ((( cycle"))
	f.Fuzz(func(t *testing.T, data []byte) {
		queryID, g := fuzzGraph(data)
		graph, subtree := g.Signatures(queryID)
		wantGraph, wantSubtree := refSignature(&g, queryID), refSubtreeSignatures(&g, queryID)
		if graph != wantGraph {
			t.Fatalf("Signatures graph hash %#x, reference %#x for %+v (query %q)", graph, wantGraph, g, queryID)
		}
		if !reflect.DeepEqual(subtree, wantSubtree) {
			t.Fatalf("Signatures subtree map %v, reference %v for %+v (query %q)", subtree, wantSubtree, g, queryID)
		}
		if s := g.Signature(queryID); s != wantGraph {
			t.Fatalf("Signature %#x, reference %#x", s, wantGraph)
		}
		if s := g.SubtreeSignatures(queryID); !reflect.DeepEqual(s, wantSubtree) {
			t.Fatalf("SubtreeSignatures %v, reference %v", s, wantSubtree)
		}
	})
}

// fuzzGraph decodes fuzz bytes into a query id and an opgraph drawn from
// small pools, so op ids collide, edges name undeclared ops and form
// cycles, and argument values embed the query id or carry predicates
// that canonicalize alike. A pool index past its pool takes raw fuzz
// text instead.
func fuzzGraph(data []byte) (string, Opgraph) {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return int(b)
	}
	raw := func() string {
		n := next() % 8
		if pos+n > len(data) {
			n = len(data) - pos
		}
		s := string(data[pos : pos+n])
		pos += n
		return s
	}
	pick := func(pool []string) string {
		i := next() % (len(pool) + 1)
		if i == len(pool) {
			return raw()
		}
		return pool[i]
	}
	queryIDs := []string{"", "q", "qa", "fw"}
	ids := []string{"a", "b", "c", "d", "e", "f"}
	kinds := []string{"NewData", "scan", "Select", "GroupBy", "RESULT", "Union", "put"}
	keys := []string{"pred", "table", "ns", "keys", "aggs", "k"}
	values := []string{
		"q", "qa", "q.partial", "qa.partial", "q!op", "qx", "fw", "fwlogs", "fw.partial",
		"a > 1 AND b < 2", "b < 2 AND a > 1", "1 < a", "a >= 1", "x = 'q'",
		"a = 1 OR b = 2 OR c = 3", "not a pred ((", "count(*) as cnt", "",
	}
	modes := []string{DissemBroadcast, DissemLocal, DissemEquality, "bogus"}

	queryID := pick(queryIDs)
	g := Opgraph{
		ID:     pick(ids),
		Dissem: Dissemination{Mode: pick(modes), Namespace: pick(values), Key: pick(values)},
	}
	for i, n := 0, next()%7; i < n; i++ {
		op := OpSpec{ID: pick(ids), Kind: pick(kinds), Args: map[string]string{}}
		for j, m := 0, next()%4; j < m; j++ {
			op.Args[pick(keys)] = pick(values)
		}
		g.Ops = append(g.Ops, op)
	}
	for i, n := 0, next()%9; i < n; i++ {
		g.Edges = append(g.Edges, Edge{From: pick(ids), To: pick(ids), Slot: next()%4 - 1})
	}
	return queryID, g
}

// refSignature and refSubtreeSignatures are the two-pass signatures the
// single pass replaced, kept verbatim as the reference.
func refSignature(g *Opgraph, queryID string) uint64 {
	h := uint64(14695981039346656037)
	norm := refNormalizer(queryID)
	opIndex := make(map[string]string, len(g.Ops))
	for i, op := range g.Ops {
		opIndex[op.ID] = fmt.Sprintf("#%d", i)
	}
	h = refSigStr(h, g.Dissem.Mode)
	h = refSigStr(h, norm(g.Dissem.Namespace))
	h = refSigStr(h, norm(g.Dissem.Key))
	for _, op := range g.Ops {
		h = refSigStr(h, strings.ToLower(op.Kind))
		keys := make([]string, 0, len(op.Args))
		for k := range op.Args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h = refSigStr(h, k)
			h = refSigStr(h, norm(refCanonArg(k, op.Args[k])))
		}
		h = refSigStr(h, "|")
	}
	for _, e := range g.Edges {
		h = refSigStr(h, opIndex[e.From])
		h = refSigStr(h, opIndex[e.To])
		h = refSigStr(h, fmt.Sprintf("%d", e.Slot))
	}
	return h
}

func refSubtreeSignatures(g *Opgraph, queryID string) map[string]uint64 {
	norm := refNormalizer(queryID)
	ctx := uint64(14695981039346656037)
	ctx = refSigStr(ctx, g.Dissem.Mode)
	ctx = refSigStr(ctx, norm(g.Dissem.Namespace))
	ctx = refSigStr(ctx, norm(g.Dissem.Key))

	specs := make(map[string]*OpSpec, len(g.Ops))
	for i := range g.Ops {
		specs[g.Ops[i].ID] = &g.Ops[i]
	}
	inputs := make(map[string][]Edge, len(g.Ops))
	for _, e := range g.Edges {
		inputs[e.To] = append(inputs[e.To], e)
	}

	const (
		visiting = 1
		done     = 2
	)
	state := make(map[string]int, len(g.Ops))
	sigs := make(map[string]uint64, len(g.Ops))
	var visit func(id string) uint64
	visit = func(id string) uint64 {
		switch state[id] {
		case done:
			return sigs[id]
		case visiting:
			return refSigStr(ctx, "\x00cycle\x00")
		}
		state[id] = visiting
		h := ctx
		spec, ok := specs[id]
		if !ok {
			h = refSigStr(h, "\x00missing\x00")
		} else {
			h = refSigStr(h, strings.ToLower(spec.Kind))
			keys := make([]string, 0, len(spec.Args))
			for k := range spec.Args {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				h = refSigStr(h, k)
				h = refSigStr(h, norm(refCanonArg(k, spec.Args[k])))
			}
		}
		h = refSigStr(h, "|")
		for _, e := range inputs[id] {
			h = refSigStr(h, fmt.Sprintf("%d", e.Slot))
			child := visit(e.From)
			for i := 0; i < 8; i++ {
				h ^= (child >> (8 * i)) & 0xff
				h *= 1099511628211
			}
		}
		state[id] = done
		sigs[id] = h
		return h
	}
	for _, op := range g.Ops {
		visit(op.ID)
	}
	return sigs
}

func refNormalizer(queryID string) func(string) string {
	return func(s string) string {
		if queryID == "" || s == "" {
			return s
		}
		if s == queryID {
			return "\x00q\x00"
		}
		if strings.HasPrefix(s, queryID) && len(s) > len(queryID) {
			if c := s[len(queryID)]; !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
				return "\x00q\x00" + s[len(queryID):]
			}
		}
		return s
	}
}

func refCanonArg(key, val string) string {
	if key != "pred" {
		return val
	}
	return expr.CanonicalString(val)
}

func refSigStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= 0xff
	h *= 1099511628211
	return h
}
