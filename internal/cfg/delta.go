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
// section (for the caller's format dispatch) and the validated delta
// grammar.
func ReadDeltaContainer(r io.Reader) (base []byte, delta *Grammar, err error) {
	crc := crc32.NewIEEE()
	br := &byteCounter{r: io.TeeReader(r, crc)}
	magic := make([]byte, len(deltaMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, nil, fmt.Errorf("%w: delta magic: %v", ErrInvalid, err)
	}
	if !bytes.Equal(magic, deltaMagic) {
		return nil, nil, fmt.Errorf("%w: bad delta magic %q", ErrInvalid, magic)
	}
	readSection := func(what string) ([]byte, error) {
		ln, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %s length: %v", ErrInvalid, what, err)
		}
		if ln > 1<<32 {
			return nil, fmt.Errorf("%w: absurd %s length %d", ErrInvalid, what, ln)
		}
		// The declared length is untrusted: read in bounded chunks so a
		// lying header cannot demand the whole allocation up front.
		var buf bytes.Buffer
		if _, err := io.CopyN(&buf, br, int64(ln)); err != nil {
			return nil, fmt.Errorf("%w: %s section: %v", ErrInvalid, what, err)
		}
		return buf.Bytes(), nil
	}
	if base, err = readSection("base"); err != nil {
		return nil, nil, err
	}
	dsec, err := readSection("delta")
	if err != nil {
		return nil, nil, err
	}
	want := crc.Sum32()
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: delta crc: %v", ErrInvalid, err)
	}
	if got := binary.LittleEndian.Uint32(crcBuf[:]); got != want {
		return nil, nil, fmt.Errorf("%w: delta container checksum mismatch", ErrInvalid)
	}
	if delta, err = ReadGrammar(bytes.NewReader(dsec)); err != nil {
		return nil, nil, err
	}
	return base, delta, nil
}

// byteCounter adds ReadByte to a plain reader (binary.ReadUvarint needs it)
// without buffered read-ahead, which would desynchronize the CRC tee.
type byteCounter struct{ r io.Reader }

func (b *byteCounter) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *byteCounter) ReadByte() (byte, error) {
	var one [1]byte
	if _, err := io.ReadFull(b.r, one[:]); err != nil {
		return 0, err
	}
	return one[0], nil
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
