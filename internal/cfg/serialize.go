package cfg

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Compressed grammar file format ("NTDCCFG1").  Archives write it only as
// the delta section of a delta container; as a base section it is read from
// archives written before every archive was a shared-table set.
//
//	magic            8 bytes
//	numWords         uvarint
//	numFiles         uvarint
//	numRules         uvarint
//	hasNames         1 byte
//	[file names]     numFiles × (uvarint length + bytes), when hasNames=1
//	rules            numRules × (uvarint length + length × uvarint symbol)
//	crc32            4 bytes LE, over everything before it
//
// Symbols are stored raw (the class bits survive varint encoding; word IDs,
// the common case, stay small and compact).

var cfgMagic = []byte("NTDCCFG1")

// WriteTo serializes the grammar.
func (g *Grammar) WriteTo(w io.Writer) (int64, error) {
	crc := crc32.NewIEEE()
	cw := &countWriter{w: io.MultiWriter(w, crc)}
	bw := bufio.NewWriterSize(cw, 64<<10)
	var buf [binary.MaxVarintLen64]byte
	uv := func(v uint64) error {
		_, err := bw.Write(buf[:binary.PutUvarint(buf[:], v)])
		return err
	}

	if _, err := bw.Write(cfgMagic); err != nil {
		return cw.n, err
	}
	if err := uv(uint64(g.NumWords)); err != nil {
		return cw.n, err
	}
	if err := uv(uint64(g.NumFiles)); err != nil {
		return cw.n, err
	}
	if err := uv(uint64(len(g.Rules))); err != nil {
		return cw.n, err
	}
	hasNames := byte(0)
	if g.Files != nil {
		hasNames = 1
	}
	if err := bw.WriteByte(hasNames); err != nil {
		return cw.n, err
	}
	if hasNames == 1 {
		for _, name := range g.Files {
			if err := uv(uint64(len(name))); err != nil {
				return cw.n, err
			}
			if _, err := bw.WriteString(name); err != nil {
				return cw.n, err
			}
		}
	}
	for _, body := range g.Rules {
		if err := uv(uint64(len(body))); err != nil {
			return cw.n, err
		}
		for _, s := range body {
			if err := uv(uint64(s)); err != nil {
				return cw.n, err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc.Sum32())
	m, err := w.Write(crcBuf[:])
	return cw.n + int64(m), err
}

// ReadGrammar deserializes a grammar written by WriteTo and validates it.
// Integrity is verified by recomputing the body checksum from the parsed
// grammar and comparing it with the trailer.
func ReadGrammar(r io.Reader) (*Grammar, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	fail := func(stage string, err error) (*Grammar, error) {
		return nil, fmt.Errorf("%w: %s: %v", ErrInvalid, stage, err)
	}

	magic := make([]byte, len(cfgMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fail("magic", err)
	}
	if string(magic) != string(cfgMagic) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrInvalid, magic)
	}
	numWords, err := binary.ReadUvarint(br)
	if err != nil {
		return fail("numWords", err)
	}
	numFiles, err := binary.ReadUvarint(br)
	if err != nil {
		return fail("numFiles", err)
	}
	numRules, err := binary.ReadUvarint(br)
	if err != nil {
		return fail("numRules", err)
	}
	if numWords > MaxWords || numRules > MaxRules || numFiles > MaxWords {
		return nil, fmt.Errorf("%w: absurd sizes words=%d files=%d rules=%d", ErrInvalid, numWords, numFiles, numRules)
	}
	hasNames, err := br.ReadByte()
	if err != nil {
		return fail("hasNames", err)
	}
	g := &Grammar{
		NumWords: uint32(numWords),
		NumFiles: uint32(numFiles),
	}
	// Declared counts come from untrusted input: never preallocate from
	// them wholesale — grow as the parse actually succeeds, so a tiny
	// malicious header cannot demand gigabytes.
	if hasNames == 1 {
		g.Files = make([]string, 0, clampPrealloc(numFiles))
		for i := uint64(0); i < numFiles; i++ {
			ln, err := binary.ReadUvarint(br)
			if err != nil {
				return fail("file name length", err)
			}
			if ln > 1<<20 {
				return nil, fmt.Errorf("%w: absurd name length %d", ErrInvalid, ln)
			}
			nb := make([]byte, ln)
			if _, err := io.ReadFull(br, nb); err != nil {
				return fail("file name", err)
			}
			g.Files = append(g.Files, string(nb))
		}
	}
	g.Rules = make([][]Symbol, 0, clampPrealloc(numRules))
	for i := uint64(0); i < numRules; i++ {
		ln, err := binary.ReadUvarint(br)
		if err != nil {
			return fail("rule length", err)
		}
		if ln > 1<<28 {
			return nil, fmt.Errorf("%w: absurd rule length %d", ErrInvalid, ln)
		}
		var body []Symbol
		if ln > 0 {
			body = make([]Symbol, 0, clampPrealloc(ln))
		}
		for j := uint64(0); j < ln; j++ {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return fail("symbol", err)
			}
			if v > 1<<32-1 {
				return nil, fmt.Errorf("%w: symbol overflow %d", ErrInvalid, v)
			}
			body = append(body, Symbol(v))
		}
		g.Rules = append(g.Rules, body)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return fail("crc", err)
	}
	if got := binary.LittleEndian.Uint32(crcBuf[:]); got != reserializedChecksum(g) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrInvalid)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// reserializedChecksum computes the body checksum by re-serializing, the
// unambiguous fallback when buffered read-ahead polluted the streaming CRC.
func reserializedChecksum(g *Grammar) uint32 {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(crc)
	var buf [binary.MaxVarintLen64]byte
	uv := func(v uint64) { bw.Write(buf[:binary.PutUvarint(buf[:], v)]) }
	bw.Write(cfgMagic)
	uv(uint64(g.NumWords))
	uv(uint64(g.NumFiles))
	uv(uint64(len(g.Rules)))
	if g.Files != nil {
		bw.WriteByte(1)
		for _, name := range g.Files {
			uv(uint64(len(name)))
			bw.WriteString(name)
		}
	} else {
		bw.WriteByte(0)
	}
	for _, body := range g.Rules {
		uv(uint64(len(body)))
		for _, s := range body {
			uv(uint64(s))
		}
	}
	if err := bw.Flush(); err != nil {
		panic("cfg: flush to hash failed: " + err.Error()) // hash.Hash writes cannot fail
	}
	return crc.Sum32()
}

// clampPrealloc bounds slice preallocation for untrusted declared counts.
func clampPrealloc(n uint64) int {
	if n > 4096 {
		return 4096
	}
	return int(n)
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
