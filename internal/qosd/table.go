package qosd

import (
	"bytes"
	"hash/maphash"

	"bufqos/internal/packet"
)

// flowEntry is one row of the flow table. A row is inserted in the
// pending state before the admitter runs so concurrent joins of the
// same name conflict on the table, not inside the shards; it becomes
// active (pending=false) only after the route committed.
type flowEntry struct {
	hash    uint64 // of the name
	at, n   uint32 // the name is flowTable.names[at:at+n]
	spec    packet.FlowSpec
	route   []int
	hops    [inlineHops]int // route's storage when it fits
	long    []int           // route's storage when it does not; kept for the next row
	live    bool
	pending bool
}

// inlineHops is the longest route a flowEntry stores in itself.
const inlineHops = 4

// setRoute stores a copy of route.
func (e *flowEntry) setRoute(route []int) {
	if len(route) <= len(e.hops) {
		e.route = append(e.hops[:0], route...)
		return
	}
	e.long = append(e.long[:0], route...)
	e.route = e.long
}

// chunkBits sizes the slab's chunks: 1<<chunkBits entries each.
const chunkBits = 6

// flowTable maps flow names (arbitrary bytes, compared in full) to
// entries. Entries live in a slab of fixed-size chunks, so a row never
// moves once made: a caller may read a pending row's route and spec
// after dropping the Server's lock, since no other operation touches or
// frees a pending row. Freed rows go on a free list and are reused. Names are copied into one table-owned
// arena, compacted once its freed bytes outweigh both the live ones and
// the slab, so churn does not grow it. The index is open addressing
// with linear probing over row ids. Once grown to a population, the
// table inserts, finds and removes without allocating. The zero value,
// given a seed, is an empty table; the Server's lock guards it.
type flowTable struct {
	seed   maphash.Seed
	chunks []*[1 << chunkBits]flowEntry
	free   []int32 // ids of rows not in use
	index  []int32 // id+1 of the row in each slot, 0 for an empty slot
	n      int     // rows in use, pending ones included
	// names holds every row's name; spare is the compaction target.
	// dead counts the bytes of names no row holds any more.
	names, spare []byte
	dead         int
}

// row returns the entry with the given id.
func (t *flowTable) row(id int32) *flowEntry {
	return &t.chunks[id>>chunkBits][id&(1<<chunkBits-1)]
}

// name returns e's name, valid until the next insert or remove.
func (t *flowTable) name(e *flowEntry) []byte { return t.names[e.at : e.at+e.n] }

// lookup returns the index slot holding name, or the empty slot where
// it would go, and the row's id (-1 when absent).
func (t *flowTable) lookup(name []byte, h uint64) (slot int, id int32) {
	mask := len(t.index) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		v := t.index[i]
		if v == 0 {
			return i, -1
		}
		if e := t.row(v - 1); e.hash == h && bytes.Equal(t.name(e), name) {
			return i, v - 1
		}
	}
}

// find returns the row named name, or nil.
func (t *flowTable) find(name []byte) *flowEntry {
	if t.n == 0 {
		return nil
	}
	if _, id := t.lookup(name, maphash.Bytes(t.seed, name)); id >= 0 {
		return t.row(id)
	}
	return nil
}

// insert adds a row named name, or returns nil if one exists. The new
// row is live with everything else zero but the route storage.
func (t *flowTable) insert(name []byte) *flowEntry {
	if 4*(t.n+1) > 3*len(t.index) {
		t.grow()
	}
	h := maphash.Bytes(t.seed, name)
	slot, id := t.lookup(name, h)
	if id >= 0 {
		return nil
	}
	if len(t.free) == 0 {
		base := int32(len(t.chunks)) << chunkBits
		t.chunks = append(t.chunks, new([1 << chunkBits]flowEntry))
		for i := int32(1<<chunkBits) - 1; i >= 0; i-- {
			t.free = append(t.free, base+i)
		}
	}
	id = t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	t.index[slot] = id + 1
	e := t.row(id)
	*e = flowEntry{hash: h, at: uint32(len(t.names)), n: uint32(len(name)), long: e.long, live: true}
	t.names = append(t.names, name...)
	t.n++
	return e
}

// remove deletes e's row. The next insert may reuse it, so the caller
// copies out what it still needs of the row before dropping its lock.
func (t *flowTable) remove(e *flowEntry) {
	mask := len(t.index) - 1
	i, id := t.lookup(t.name(e), e.hash)
	// Shift the rows after slot i back over it, each as far as its home
	// slot allows, so no probe sequence crosses an empty slot.
	for j := (i + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		home := int(t.row(t.index[j]-1).hash) & mask
		if (j-home)&mask >= (j-i)&mask {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = 0
	e.live = false
	t.free = append(t.free, id)
	t.n--
	t.dead += int(e.n)
	if live := len(t.names) - t.dead; t.dead > live && t.dead >= len(t.chunks)<<chunkBits {
		t.compact()
	}
}

// compact copies the live rows' names into spare and swaps the two, so
// the arena holds no freed bytes.
func (t *flowTable) compact() {
	out := t.spare[:0]
	for _, c := range t.chunks {
		for i := range c {
			if e := &c[i]; e.live {
				at := len(out)
				out = append(out, t.name(e)...)
				e.at = uint32(at)
			}
		}
	}
	t.names, t.spare, t.dead = out, t.names[:0], 0
}

// grow doubles the index (from 64 slots) and re-places every row.
func (t *flowTable) grow() {
	old := t.index
	t.index = make([]int32, max(64, 2*len(old)))
	mask := len(t.index) - 1
	for _, v := range old {
		if v == 0 {
			continue
		}
		i := int(t.row(v-1).hash) & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = v
	}
}

// clear empties the table, keeping its storage.
func (t *flowTable) clear() {
	for _, c := range t.chunks {
		for i := range c {
			c[i].live = false
		}
	}
	t.free = t.free[:0]
	for id := int32(len(t.chunks)<<chunkBits) - 1; id >= 0; id-- {
		t.free = append(t.free, id)
	}
	clear(t.index)
	t.n, t.names, t.dead = 0, t.names[:0], 0
}

// each calls f with every row in use and its name.
func (t *flowTable) each(f func(name []byte, e *flowEntry)) {
	for _, c := range t.chunks {
		for i := range c {
			if e := &c[i]; e.live {
				f(t.name(e), e)
			}
		}
	}
}
