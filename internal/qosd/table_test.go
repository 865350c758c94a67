package qosd

import (
	"bytes"
	"hash/maphash"
	"math/rand"
	"testing"
)

// TestFlowTableMatchesMap drives the flow table and a map through the
// same random inserts, finds and removes — over names that share
// prefixes, differ only in length, or hold any byte — and requires the
// same answers, the same contents and each row's route intact.
func TestFlowTableMatchesMap(t *testing.T) {
	names := [][]byte{{}, {0}, {0, 0}, []byte("a"), []byte("ab"), []byte("a\x00"), []byte("\xff\xfe"), []byte("é")}
	for i := 0; len(names) < 300; i++ {
		names = append(names, []byte{byte(i), byte(i >> 8), 'x', byte(i % 7)})
	}
	rng := rand.New(rand.NewSource(1))
	tb := flowTable{seed: maphash.MakeSeed()}
	ref := map[string]int{} // name → its route's one hop
	for step := 0; step < 200_000; step++ {
		k := rng.Intn(len(names))
		name := names[k]
		switch e, want := tb.find(name), ref[string(name)]; {
		case (e != nil) != (want != 0):
			t.Fatalf("step %d: find(%q) = %v, want present %v", step, name, e != nil, want != 0)
		case e != nil && (len(e.route) != 1 || e.route[0] != want || !bytes.Equal(tb.name(e), name)):
			t.Fatalf("step %d: row of %q holds %q, route %v, want route [%d]", step, name, tb.name(e), e.route, want)
		case e != nil && rng.Intn(2) == 0:
			tb.remove(e)
			delete(ref, string(name))
		case e == nil:
			e = tb.insert(name)
			e.setRoute([]int{step + 1})
			ref[string(name)] = step + 1
		default:
			if tb.insert(name) != nil {
				t.Fatalf("step %d: second insert of %q succeeded", step, name)
			}
		}
		if tb.n != len(ref) {
			t.Fatalf("step %d: %d rows, want %d", step, tb.n, len(ref))
		}
	}
	seen := 0
	tb.each(func(name []byte, e *flowEntry) {
		if ref[string(name)] != e.route[0] {
			t.Errorf("row %q: route %v, want [%d]", name, e.route, ref[string(name)])
		}
		seen++
	})
	if seen != len(ref) {
		t.Errorf("each visited %d rows, want %d", seen, len(ref))
	}
	tb.clear()
	if tb.n != 0 || tb.find(names[3]) != nil {
		t.Errorf("clear left %d rows", tb.n)
	}
}

// TestFlowTableRowsDoNotMove: a row's address, and the route stored in
// it, stay put while the table grows around it — a join reads its
// pending row's route after dropping the Server's lock.
func TestFlowTableRowsDoNotMove(t *testing.T) {
	tb := flowTable{seed: maphash.MakeSeed()}
	first := tb.insert([]byte("first"))
	first.setRoute([]int{1, 2, 3, 4, 5})
	route := first.route
	for i := 0; i < 10_000; i++ {
		tb.insert([]byte{byte(i), byte(i >> 8), '-'})
	}
	if e := tb.find([]byte("first")); e != first || &e.route[0] != &route[0] {
		t.Errorf("row moved while the table grew")
	}
}
