package workload

import (
	"cmp"
	"encoding/binary"
	"slices"
)

// CanonicalKey returns a deterministic identity for the query's predicate
// set: predicates are sorted by (Col, Op, Code) and exact duplicates are
// dropped, so two queries that differ only in predicate order (or repeat a
// predicate) share a key. The serving layer uses it as the result-cache key
// and for in-flight deduplication — safe because estimation is a pure
// function of the predicate set.
//
// The key is a compact binary string (varint col, op byte, varint code per
// predicate), not meant to be human-readable; use Query.String for display.
// It is on every request's path, so queries of up to keyStackPreds
// predicates are sorted and encoded in stack scratch: the returned string is
// the only allocation.
func (q Query) CanonicalKey() string {
	if len(q.Preds) == 0 {
		return ""
	}
	var stack [keyStackPreds]Predicate
	var ps []Predicate
	if len(q.Preds) <= len(stack) {
		ps = stack[:len(q.Preds)]
	} else {
		ps = make([]Predicate, len(q.Preds))
	}
	copy(ps, q.Preds)
	slices.SortFunc(ps, comparePreds)
	var scratch [8 * keyStackPreds]byte
	buf := scratch[:0]
	for i, p := range ps {
		if i > 0 && p == ps[i-1] {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(p.Col))
		buf = append(buf, byte(p.Op))
		buf = binary.AppendUvarint(buf, uint64(uint32(p.Code)))
	}
	return string(buf)
}

// keyStackPreds bounds the predicate count CanonicalKey handles without
// heap scratch.
const keyStackPreds = 16

// comparePreds orders predicates by (Col, Op, Code).
func comparePreds(a, b Predicate) int {
	if c := cmp.Compare(a.Col, b.Col); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Op, b.Op); c != 0 {
		return c
	}
	return cmp.Compare(a.Code, b.Code)
}
