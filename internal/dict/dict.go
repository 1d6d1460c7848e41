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
	words []string          // guarded by mu
	index map[string]uint32 // guarded by mu

	// The alphabetical ranking of a vocabulary prefix (see Alphabetical);
	// the arrays are immutable once published.
	alphaMu    sync.Mutex
	alphaRank  []uint32 // guarded by alphaMu
	alphaOrder []uint32 // guarded by alphaMu
}

// New returns an empty dictionary.
func New() *Dictionary {
	return &Dictionary{index: make(map[string]uint32)}
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
	if d.index == nil {
		d.index = make(map[string]uint32)
	}
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
	defer d.mu.RUnlock()
	id, ok := d.index[word]
	return id, ok
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
	if err := write([]byte("NTDCDICT")); err != nil {
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
// receiver's contents.  Integrity is verified by recomputing the body
// checksum from the parsed words and comparing it with the trailer.
func (d *Dictionary) ReadFrom(r io.Reader) (int64, error) {
	cr := &countReader{r: r}
	br := bufio.NewReader(cr)

	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return cr.n, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if string(hdr[:]) != "NTDCDICT" {
		return cr.n, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:])
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return cr.n, fmt.Errorf("%w: count: %v", ErrCorrupt, err)
	}
	if count > 1<<31 {
		return cr.n, fmt.Errorf("%w: absurd word count %d", ErrCorrupt, count)
	}
	// count is untrusted: grow as parsing succeeds instead of preallocating.
	prealloc := count
	if prealloc > 4096 {
		prealloc = 4096
	}
	words := make([]string, 0, prealloc)
	index := make(map[string]uint32, prealloc)
	for i := uint64(0); i < count; i++ {
		ln, err := binary.ReadUvarint(br)
		if err != nil {
			return cr.n, fmt.Errorf("%w: word %d length: %v", ErrCorrupt, i, err)
		}
		if ln > 1<<20 {
			return cr.n, fmt.Errorf("%w: absurd word length %d", ErrCorrupt, ln)
		}
		wb := make([]byte, ln)
		if _, err := io.ReadFull(br, wb); err != nil {
			return cr.n, fmt.Errorf("%w: word %d: %v", ErrCorrupt, i, err)
		}
		w := string(wb)
		index[w] = uint32(len(words))
		words = append(words, w)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return cr.n, fmt.Errorf("%w: crc: %v", ErrCorrupt, err)
	}
	tmp := &Dictionary{words: words, index: index}
	if got := binary.LittleEndian.Uint32(crcBuf[:]); got != tmp.checksumLocked() {
		return cr.n, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	d.mu.Lock()
	d.words = words
	d.index = index
	d.mu.Unlock()
	d.alphaMu.Lock()
	d.alphaRank, d.alphaOrder = nil, nil
	d.alphaMu.Unlock()
	return cr.n, nil
}

// checksumLocked computes the CRC of the serialized body, matching WriteTo.
// Caller holds d.mu, or d is a locally constructed dictionary no other
// goroutine can reach (the ReadFrom verification path).
func (d *Dictionary) checksumLocked() uint32 {
	crc := crc32.NewIEEE()
	var buf [binary.MaxVarintLen64]byte
	crc.Write([]byte("NTDCDICT"))
	crc.Write(buf[:binary.PutUvarint(buf[:], uint64(len(d.words)))])
	for _, w := range d.words {
		crc.Write(buf[:binary.PutUvarint(buf[:], uint64(len(w)))])
		crc.Write([]byte(w))
	}
	return crc.Sum32()
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
