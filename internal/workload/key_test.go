package workload

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
)

// TestCanonicalKeyBytesPinned pins the exact key bytes: the key is the
// serving cache's identity, so a change in its encoding would silently
// split or merge cache entries.
func TestCanonicalKeyBytesPinned(t *testing.T) {
	cases := []struct {
		q    Query
		want string
	}{
		{Query{}, ""},
		{Query{Preds: []Predicate{{Col: 2, Op: OpEq, Code: 7}}}, "\x02\x00\x07"},
		{Query{Preds: []Predicate{
			{Col: 3, Op: OpLe, Code: 300},
			{Col: 1, Op: OpGe, Code: 5},
			{Col: 1, Op: OpGe, Code: 5}, // exact duplicate: dropped
			{Col: 1, Op: OpEq, Code: 5},
		}}, "\x01\x00\x05" + "\x01" + string(rune(OpGe)) + "\x05" + "\x03" + string(rune(OpLe)) + "\xac\x02"},
		{Query{Preds: []Predicate{{Col: 200, Op: OpLt, Code: -1}}},
			"\xc8\x01" + string(rune(OpLt)) + "\xff\xff\xff\xff\x0f"},
	}
	for i, c := range cases {
		if got := c.q.CanonicalKey(); got != c.want {
			t.Errorf("case %d: key %q, want %q", i, got, c.want)
		}
	}
}

// referenceKey is the straightforward encoding: copy, sort, dedupe, append.
func referenceKey(q Query) string {
	if len(q.Preds) == 0 {
		return ""
	}
	ps := append([]Predicate(nil), q.Preds...)
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Col != ps[j].Col {
			return ps[i].Col < ps[j].Col
		}
		if ps[i].Op != ps[j].Op {
			return ps[i].Op < ps[j].Op
		}
		return ps[i].Code < ps[j].Code
	})
	var buf []byte
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

// TestCanonicalKeyMatchesReference covers random predicate sets on both
// sides of the stack-scratch bound, including repeats and reorderings.
func TestCanonicalKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for it := 0; it < 2000; it++ {
		n := rng.Intn(2*keyStackPreds + 4)
		q := Query{Preds: make([]Predicate, n)}
		for i := range q.Preds {
			q.Preds[i] = Predicate{Col: rng.Intn(40), Op: Op(rng.Intn(int(NumOps))), Code: int32(rng.Intn(5000)) - 10}
			if i > 0 && rng.Intn(5) == 0 {
				q.Preds[i] = q.Preds[rng.Intn(i)]
			}
		}
		if got, want := q.CanonicalKey(), referenceKey(q); got != want {
			t.Fatalf("query %v: key %q, reference %q", q, got, want)
		}
	}
}

func TestCanonicalKeyAllocs(t *testing.T) {
	q := Query{Preds: []Predicate{{Col: 4, Op: OpLe, Code: 90}, {Col: 1, Op: OpEq, Code: 3}, {Col: 7, Op: OpGe, Code: 1200}}}
	if n := testing.AllocsPerRun(100, func() { _ = q.CanonicalKey() }); n > 1 {
		t.Fatalf("CanonicalKey allocates %v times, want at most 1 (the string)", n)
	}
}
