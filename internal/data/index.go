package data

import "hash/maphash"

// nameIndex resolves column names to positions in one table's Cols. It
// is an open-addressed hash set of positions: a slot holds position+1 (0
// marks an empty slot), probing is linear, and a probe confirms a hit by
// comparing the name of the column at that position, so the index
// stores no strings.
//
// Each name maps to its first position. An index over a repeated name
// (a table built with one, or given one by ReplaceColumn; AddColumn
// refuses) holds the first and is marked dup, and every later write
// drops it instead of patching it, so the next lookup rebuilds it.
type nameIndex struct {
	slots []int32 // power-of-two length, at most half full
	used  int     // occupied slots
	cols  int     // len(Cols) the index was built or last patched over
	dup   bool    // a name repeats; only its first position is indexed
}

// nameHash hashes a column name with the package's per-process seed.
func nameHash(name string) uint64 { return maphash.String(hashSeed, name) }

// slotsFor returns the slot count that keeps n names at most half full.
func slotsFor(n int) int {
	s := 8
	for s < 2*n {
		s <<= 1
	}
	return s
}

// newNameIndex indexes cols, each name at its first position.
func newNameIndex(cols []*Column) *nameIndex {
	ix := &nameIndex{slots: make([]int32, slotsFor(len(cols))), cols: len(cols)}
	for i, c := range cols {
		h := nameHash(c.Name)
		if slot, pos := ix.probe(cols, c.Name, h); pos < 0 {
			ix.slots[slot] = int32(i + 1)
			ix.used++
		} else {
			ix.dup = true
		}
	}
	return ix
}

// find returns the indexed position of name in cols, or -1.
func (ix *nameIndex) find(cols []*Column, name string) int {
	_, pos := ix.probe(cols, name, nameHash(name))
	return pos
}

// probe walks name's probe sequence from its hash h. It returns the
// slot and position of the indexed column with that name, or the empty
// slot that ends the sequence and -1.
func (ix *nameIndex) probe(cols []*Column, name string, h uint64) (slot uint64, pos int) {
	mask := uint64(len(ix.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		p := ix.slots[i]
		if p == 0 {
			return i, -1
		}
		if cols[p-1].Name == name {
			return i, int(p - 1)
		}
	}
}

// insert indexes the column at pos, whose name h hashes and which must
// not be indexed yet, doubling the slots first if they would pass half
// full. cols must hold every indexed column at its indexed position.
func (ix *nameIndex) insert(cols []*Column, pos int, h uint64) {
	if 2*(ix.used+1) > len(ix.slots) {
		old := ix.slots
		ix.slots = make([]int32, 2*len(old))
		mask := uint64(len(ix.slots) - 1)
		for _, p := range old {
			if p == 0 {
				continue
			}
			i := nameHash(cols[p-1].Name) & mask
			for ix.slots[i] != 0 {
				i = (i + 1) & mask
			}
			ix.slots[i] = p
		}
	}
	slot, _ := ix.probe(cols, cols[pos].Name, h)
	ix.slots[slot] = int32(pos + 1)
	ix.used++
}

// unlink removes the column at pos from the index, which must hold it,
// by backward-shift deletion: each later entry of the probe cluster
// that the hole would cut off from its home slot moves into the hole.
// cols must still hold every indexed column at its indexed position.
func (ix *nameIndex) unlink(cols []*Column, pos int) {
	mask := uint64(len(ix.slots) - 1)
	hole := nameHash(cols[pos].Name) & mask
	for ix.slots[hole] != int32(pos+1) {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; ix.slots[j] != 0; j = (j + 1) & mask {
		home := nameHash(cols[ix.slots[j]-1].Name) & mask
		// The entry at j stays if its home lies cyclically in (hole, j].
		if (j-home)&mask < (j-hole)&mask {
			continue
		}
		ix.slots[hole] = ix.slots[j]
		hole = j
	}
	ix.slots[hole] = 0
	ix.used--
}

// shiftDown renumbers the positions after pos, for a column removed there.
func (ix *nameIndex) shiftDown(pos int) {
	for i, p := range ix.slots {
		if p > int32(pos+1) {
			ix.slots[i] = p - 1
		}
	}
}

// index returns the table's name index, building it on the first lookup
// and publishing it atomically, so concurrent readers of one table never
// race: each may build one, and the first published wins. An index over
// another column count than Cols holds is rebuilt, so a direct append to
// or truncation of Cols is caught instead of read past.
func (t *Table) index() *nameIndex {
	old := t.idx.Load()
	if old != nil && old.cols == len(t.Cols) {
		return old
	}
	ix := newNameIndex(t.Cols)
	if !t.idx.CompareAndSwap(old, ix) {
		return t.idx.Load()
	}
	return ix
}

// writableIndex returns the index a write may patch in place, or nil.
// One over a repeated name is dropped instead, and the next lookup
// rebuilds it from the columns.
func (t *Table) writableIndex() *nameIndex {
	ix := t.idx.Load()
	if ix != nil && ix.dup {
		t.idx.Store(nil)
		return nil
	}
	return ix
}
