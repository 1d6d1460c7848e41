// Package dict implements the dictionary conversion TADOC applies before
// grammar inference: input text is tokenized into words and each distinct
// word is assigned a dense uint32 ID.  The grammar, the DAG pool, and every
// analytics task then operate on IDs; the dictionary maps results back to
// words at output time (e.g. for the sort task's alphabetical order).
package dict

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strings"
	"sync"
)

// ErrCorrupt reports a dictionary that fails deserialization checks.
var ErrCorrupt = errors.New("dict: corrupt dictionary")

// Dictionary maps words to dense IDs and back.  IDs are assigned in first-
// appearance order starting at zero.  The zero value is ready to use.
//
// A Dictionary is safe for concurrent use: online ingestion interns novel
// words while query sessions convert result IDs back to words, so the two
// directions synchronize on one RWMutex.  IDs are stable once assigned —
// readers that captured an ID before an Intern still resolve it to the same
// word after.
type Dictionary struct {
	mu    sync.RWMutex
	words []string // guarded by mu
	// index maps each word to its ID.  Only Intern and Lookup need it, so
	// it is built on the first call to either (nil until then).
	index map[string]uint32 // guarded by mu

	// The alphabetical ranking of a vocabulary prefix (see Alphabetical);
	// the arrays are immutable once published.
	alphaMu    sync.Mutex
	alphaRank  []uint32 // guarded by alphaMu
	alphaOrder []uint32 // guarded by alphaMu
}

// New returns an empty dictionary.
func New() *Dictionary {
	return &Dictionary{}
}

// Len returns the number of distinct words (the vocabulary size).
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.words)
}

// Intern returns the ID for word, assigning the next free ID on first sight.
func (d *Dictionary) Intern(word string) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.indexLocked()
	if id, ok := d.index[word]; ok {
		return id
	}
	id := uint32(len(d.words))
	d.words = append(d.words, word)
	d.index[word] = id
	return id
}

// Lookup returns the ID for word without interning.
func (d *Dictionary) Lookup(word string) (uint32, bool) {
	d.mu.RLock()
	if d.index != nil {
		id, ok := d.index[word]
		d.mu.RUnlock()
		return id, ok
	}
	d.mu.RUnlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.indexLocked()
	id, ok := d.index[word]
	return id, ok
}

// indexLocked builds the word index if it is not built yet; d.mu must be
// held for writing.  A word stored twice maps to its last ID.
func (d *Dictionary) indexLocked() {
	if d.index != nil {
		return
	}
	d.index = make(map[string]uint32, len(d.words))
	for i, w := range d.words {
		d.index[w] = uint32(i)
	}
}

// Word returns the word for id.  It panics on an unknown ID, which indicates
// a corrupted grammar rather than a recoverable condition.
func (d *Dictionary) Word(id uint32) string {
	return WordIn(d.Words(), id)
}

// Words returns the vocabulary in ID order.  IDs are stable, so the returned
// snapshot's prefix never changes; callers must not modify it.
func (d *Dictionary) Words() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.words
}

// Alphabetical ranks the whole current vocabulary by word string, bytewise —
// the order of the sort task and of JSON object keys: order lists the word IDs
// in that order and rank[id] is id's position in it.  The table is kept; when
// the vocabulary has grown since it was built only the new words are sorted,
// then merged into the old order — a linear pass per append, not a
// vocabulary-sized string sort.  Tables of different sizes order the words
// they share identically.  Callers must not modify the slices.
func (d *Dictionary) Alphabetical() (rank, order []uint32) {
	words := d.Words()
	d.alphaMu.Lock()
	defer d.alphaMu.Unlock()
	if old := d.alphaOrder; len(old) < len(words) {
		byWord := func(a, b uint32) int { return strings.Compare(words[a], words[b]) }
		fresh := make([]uint32, len(words)-len(old))
		for i := range fresh {
			fresh[i] = uint32(len(old) + i)
		}
		slices.SortFunc(fresh, byWord)
		order, rank := make([]uint32, 0, len(words)), make([]uint32, len(words))
		for len(old) > 0 && len(fresh) > 0 {
			if byWord(old[0], fresh[0]) < 0 {
				order, old = append(order, old[0]), old[1:]
			} else {
				order, fresh = append(order, fresh[0]), fresh[1:]
			}
		}
		order = append(append(order, old...), fresh...)
		for r, id := range order {
			rank[id] = uint32(r)
		}
		d.alphaRank, d.alphaOrder = rank, order
	}
	return d.alphaRank, d.alphaOrder
}

// WordIn resolves id against a Words snapshot, panicking like Word on an
// unknown ID.  Loops that resolve many IDs (result conversion, the sort
// task's comparator) take one snapshot and resolve against it, paying the
// dictionary lock once instead of per word.
func WordIn(words []string, id uint32) string {
	if int(id) >= len(words) {
		panicUnknown(id, len(words))
	}
	return words[id]
}

// panicUnknown is out of line so WordIn stays inlinable.
//
//go:noinline
func panicUnknown(id uint32, vocab int) {
	panic(fmt.Sprintf("dict: unknown word id %d (vocabulary %d)", id, vocab))
}

// magic opens a serialized dictionary.
const magic = "NTDCDICT"

// WriteTo serializes the dictionary: header, word count, length-prefixed
// words, trailing CRC of everything before it.
func (d *Dictionary) WriteTo(w io.Writer) (int64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	var n int64
	write := func(p []byte) error {
		m, err := bw.Write(p)
		n += int64(m)
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	if err := write([]byte(magic)); err != nil {
		return n, err
	}
	if err := write(buf[:binary.PutUvarint(buf[:], uint64(len(d.words)))]); err != nil {
		return n, err
	}
	for _, w := range d.words {
		if err := write(buf[:binary.PutUvarint(buf[:], uint64(len(w)))]); err != nil {
			return n, err
		}
		if err := write([]byte(w)); err != nil {
			return n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return n, err
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc.Sum32())
	m, err := w.Write(crcBuf[:])
	return n + int64(m), err
}

// ReadFrom deserializes a dictionary written by WriteTo, replacing the
// receiver's contents.  Every byte the parse consumes goes into one arena,
// whose checksum is checked against the trailer in one pass; the arena then
// becomes one string, and every word is a slice of it.  The declared word
// count is untrusted: the arena grows only as words arrive, and the word
// table is sized once the whole body has been read.  The word index is left
// to the first Intern or Lookup.
func (d *Dictionary) ReadFrom(r io.Reader) (int64, error) {
	cr := &countReader{r: r}
	br := bufio.NewReader(cr)

	arena := make([]byte, len(magic), br.Size())
	if _, err := io.ReadFull(br, arena); err != nil {
		return cr.n, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if string(arena) != magic {
		return cr.n, fmt.Errorf("%w: bad magic %q", ErrCorrupt, arena)
	}
	// uvarint appends the next varint's bytes to the arena as they were
	// written, so the checksum covers the input, not a re-encoding of it.
	uvarint := func() (uint64, error) {
		buf, err := br.Peek(binary.MaxVarintLen64)
		v, n := binary.Uvarint(buf)
		switch {
		case n > 0:
		case n == 0 && err != nil:
			return 0, err
		default:
			return 0, errors.New("malformed varint")
		}
		arena = append(arena, buf[:n]...)
		_, err = br.Discard(n)
		return v, err
	}
	count, err := uvarint()
	if err != nil {
		return cr.n, fmt.Errorf("%w: count: %v", ErrCorrupt, err)
	}
	if count > 1<<31 {
		return cr.n, fmt.Errorf("%w: absurd word count %d", ErrCorrupt, count)
	}
	bodyStart := len(arena)
	for i := uint64(0); i < count; i++ {
		ln, err := uvarint()
		if err != nil {
			return cr.n, fmt.Errorf("%w: word %d length: %v", ErrCorrupt, i, err)
		}
		if ln > 1<<20 {
			return cr.n, fmt.Errorf("%w: absurd word length %d", ErrCorrupt, ln)
		}
		start := len(arena)
		arena = append(arena, make([]byte, ln)...)
		if _, err := io.ReadFull(br, arena[start:]); err != nil {
			return cr.n, fmt.Errorf("%w: word %d: %v", ErrCorrupt, i, err)
		}
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return cr.n, fmt.Errorf("%w: crc: %v", ErrCorrupt, err)
	}
	if binary.LittleEndian.Uint32(crcBuf[:]) != crc32.ChecksumIEEE(arena) {
		return cr.n, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	// The body is checked; walk it again to slice out the words.
	text := string(arena)
	words := make([]string, count)
	p := bodyStart
	for i := range words {
		ln, n := binary.Uvarint(arena[p:])
		p += n
		w := text[p : p+int(ln)]
		p += int(ln)
		words[i] = w
	}
	d.mu.Lock()
	d.words = words
	d.index = nil
	d.mu.Unlock()
	d.alphaMu.Lock()
	d.alphaRank, d.alphaOrder = nil, nil
	d.alphaMu.Unlock()
	return cr.n, nil
}

type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
