package cfg

import (
	"encoding/binary"
	"io"
)

// EncodedSize returns the size in bytes of the grammar in the compressed
// grammar format ("NTDCCFG1") below: the figure harness charges it as the
// compressed input read from disk.  No archive holds the format, and only
// its size is ever computed.
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
func (g *Grammar) EncodedSize() int64 {
	var buf [binary.MaxVarintLen64]byte
	uv := func(v uint64) int64 { return int64(binary.PutUvarint(buf[:], v)) }
	n := int64(len("NTDCCFG1")) + uv(uint64(g.NumWords)) + uv(uint64(g.NumFiles)) + uv(uint64(len(g.Rules))) + 1
	if g.Files != nil {
		for _, name := range g.Files {
			n += uv(uint64(len(name))) + int64(len(name))
		}
	}
	for _, body := range g.Rules {
		n += uv(uint64(len(body)))
		for _, s := range body {
			n += uv(uint64(s))
		}
	}
	return n + 4
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
