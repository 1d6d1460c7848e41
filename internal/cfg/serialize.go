package cfg

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
)

// Compressed grammar file format ("NTDCCFG1").  No archive holds it: it is
// written only to size compressed grammars for the figure harness, and
// nothing reads it.
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

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
