package sequitur

// digramTable is the digram index: packed digram key -> first occurrence
// (the left node's arena index; 0, the sentinel node, marks an empty slot).
// It is an open-addressing hash table with linear probing and backward-shift
// deletion, replacing a Go map on the hottest path of inference.  The index
// is only ever used for point lookups, insertions, and deletions — never
// iterated — so the table is observationally identical to the map it
// replaces.
type digramTable struct {
	keys  []uint64
	vals  []int32
	mask  uint64
	shift uint
	n     int
}

const digramTableMinSize = 1 << 10

func newDigramTable() *digramTable {
	t := &digramTable{}
	t.init(digramTableMinSize)
	return t
}

func (t *digramTable) init(size int) {
	t.keys = make([]uint64, size)
	t.vals = make([]int32, size)
	t.mask = uint64(size - 1)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	t.n = 0
}

// home is the key's preferred slot (Fibonacci hashing).
func (t *digramTable) home(k uint64) uint64 {
	return (k * 0x9e3779b97f4a7c15) >> t.shift
}

// put indexes v under k, replacing any existing entry.  The table grows at
// 50% load: linear probing degrades quickly past that, and lookup is the
// hot operation here.
func (t *digramTable) put(k uint64, v int32) {
	if t.n >= len(t.vals)/2 {
		t.grow()
	}
	i := t.home(k)
	for t.vals[i] != 0 {
		if t.keys[i] == k {
			t.vals[i] = v
			return
		}
		i = (i + 1) & t.mask
	}
	t.keys[i] = k
	t.vals[i] = v
	t.n++
}

// getOrPut returns the node indexed under k; when absent it indexes v
// instead and returns 0.  A single probe pass serves both outcomes.
func (t *digramTable) getOrPut(k uint64, v int32) int32 {
	if t.n >= len(t.vals)/2 {
		t.grow()
	}
	i := t.home(k)
	for t.vals[i] != 0 {
		if t.keys[i] == k {
			return t.vals[i]
		}
		i = (i + 1) & t.mask
	}
	t.keys[i] = k
	t.vals[i] = v
	t.n++
	return 0
}

// delIf removes the entry for k only when it indexes v, compacting the probe
// cluster so no tombstones accumulate.
func (t *digramTable) delIf(k uint64, v int32) {
	i := t.home(k)
	for {
		if t.vals[i] == 0 {
			return
		}
		if t.keys[i] == k {
			if t.vals[i] != v {
				return
			}
			break
		}
		i = (i + 1) & t.mask
	}
	t.n--
	// Backward-shift: pull later cluster members into the hole whenever
	// their home position permits it.
	for {
		t.vals[i] = 0
		j := i
		for {
			j = (j + 1) & t.mask
			if t.vals[j] == 0 {
				return
			}
			h := t.home(t.keys[j])
			if (i-h)&t.mask < (j-h)&t.mask {
				t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
				i = j
				break
			}
		}
	}
}

func (t *digramTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.init(len(oldVals) * 2)
	for i, v := range oldVals {
		if v == 0 {
			continue
		}
		k := oldKeys[i]
		j := t.home(k)
		for t.vals[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.keys[j] = k
		t.vals[j] = v
		t.n++
	}
}
