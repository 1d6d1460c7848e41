package cfg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Online-ingestion container ("NTDCDLT1"): a base grammar section — the
// shared-table container, or in older archives a single grammar — followed
// by a delta-grammar section covering the documents appended after the base
// was compressed.  Readers merge the two with MergeDelta, so base+delta
// reads expand to exactly the concatenated document set and analytics over
// them are bit-identical to a from-scratch rebuild.  Archives without a
// delta section keep their base section's magic.
//
//	magic     8 bytes "NTDCDLT1"
//	baseLen   uvarint
//	base      baseLen bytes (a complete base grammar section)
//	deltaLen  uvarint
//	delta     deltaLen bytes (a single-grammar "NTDCCFG1" section)
//	crc32     4 bytes LE, over everything before it
var deltaMagic = []byte("NTDCDLT1")

// IsDeltaContainer reports whether the leading bytes carry the delta
// container magic.
func IsDeltaContainer(peek []byte) bool {
	return len(peek) >= len(deltaMagic) && bytes.Equal(peek[:len(deltaMagic)], deltaMagic)
}

// WriteDeltaContainer frames an already-serialized base grammar section and
// a delta grammar into the delta container.
func WriteDeltaContainer(w io.Writer, base []byte, delta *Grammar) (int64, error) {
	if delta == nil {
		return 0, fmt.Errorf("%w: delta container without a delta", ErrInvalid)
	}
	var dbuf bytes.Buffer
	if _, err := delta.WriteTo(&dbuf); err != nil {
		return 0, err
	}
	crc := crc32.NewIEEE()
	cw := &countWriter{w: io.MultiWriter(w, crc)}
	var buf [binary.MaxVarintLen64]byte
	uv := func(v uint64) error {
		_, err := cw.Write(buf[:binary.PutUvarint(buf[:], v)])
		return err
	}
	if _, err := cw.Write(deltaMagic); err != nil {
		return cw.n, err
	}
	if err := uv(uint64(len(base))); err != nil {
		return cw.n, err
	}
	if _, err := cw.Write(base); err != nil {
		return cw.n, err
	}
	if err := uv(uint64(dbuf.Len())); err != nil {
		return cw.n, err
	}
	if _, err := cw.Write(dbuf.Bytes()); err != nil {
		return cw.n, err
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc.Sum32())
	m, err := w.Write(crcBuf[:])
	return cw.n + int64(m), err
}

// ReadDeltaContainer parses a delta container, returning the raw base
// section (for the caller's format dispatch; a slice of b) and the
// validated delta grammar.
func ReadDeltaContainer(b []byte) (base []byte, delta *Grammar, err error) {
	d := &decoder{b: b, what: "delta container"}
	if err := d.magic(deltaMagic); err != nil {
		return nil, nil, err
	}
	section := func(what string) ([]byte, error) {
		ln, err := d.uvarint(what + " length")
		if err != nil {
			return nil, err
		}
		return d.next(ln, what+" section")
	}
	if base, err = section("base"); err != nil {
		return nil, nil, err
	}
	dsec, err := section("delta")
	if err != nil {
		return nil, nil, err
	}
	if _, err := d.checksum(); err != nil {
		return nil, nil, err
	}
	if delta, err = ReadGrammar(dsec); err != nil {
		return nil, nil, err
	}
	return base, delta, nil
}

// MergeDelta merges a delta grammar into its base: the Materialize-style
// read view over base+delta, equivalent to compressing the concatenated
// corpus with per-part redundancy only.  Appended documents follow the base
// documents in order; separator indices are renumbered globally and the
// delta's rule references are remapped past the base's.  Compaction swaps
// exactly this grammar in as the new serving base.
func MergeDelta(base, delta *Grammar) (*Grammar, error) {
	if delta == nil {
		return base, nil
	}
	if base.Files != nil && delta.Files == nil {
		// ConcatShards drops names unless every part carries them; an
		// anonymous delta must not strip the base's, so synthesize.
		named := *delta
		named.Files = make([]string, delta.NumFiles)
		for i := range named.Files {
			named.Files[i] = fmt.Sprintf("appended%d", i)
		}
		delta = &named
	}
	return ConcatShards([]*Grammar{base, delta})
}
