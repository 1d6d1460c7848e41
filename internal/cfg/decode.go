package cfg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// decoder parses one serialized section held in memory.  The shared-table
// container and its shared section read through it.  Every read is checked against the bytes actually
// present, so a declared length or count larger than what follows fails at
// once instead of sizing an allocation, and a section's checksum is one
// crc32 call over its slice.
type decoder struct {
	b    []byte
	off  int
	what string   // the section, for error messages
	syms []Symbol // the arena every symbol run of the section is cut from
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrInvalid, d.what, fmt.Sprintf(format, args...))
}

// remaining returns how many bytes are left to parse.
func (d *decoder) remaining() uint64 { return uint64(len(d.b) - d.off) }

// magic consumes the section's magic, which must be m.
func (d *decoder) magic(m []byte) error {
	if !bytes.HasPrefix(d.b[d.off:], m) {
		return d.errorf("bad magic %q", d.b[d.off:min(len(d.b), d.off+len(m))])
	}
	d.off += len(m)
	return nil
}

func (d *decoder) uvarint(field string) (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, d.errorf("%s: truncated or overlong varint", field)
	}
	d.off += n
	return v, nil
}

// count reads the declared number of items that follow, each of which
// takes at least one byte.
func (d *decoder) count(field string, limit uint64) (uint64, error) {
	n, err := d.uvarint(field)
	if err != nil {
		return 0, err
	}
	if n > limit || n > d.remaining() {
		return 0, d.errorf("absurd %s %d", field, n)
	}
	return n, nil
}

// next consumes the next n bytes.
func (d *decoder) next(n uint64, field string) ([]byte, error) {
	if n > d.remaining() {
		return nil, d.errorf("%s of %d bytes overruns the section", field, n)
	}
	p := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return p, nil
}

// names reads n length-prefixed file names.
func (d *decoder) names(n uint64) ([]string, error) {
	if n > d.remaining() {
		return nil, d.errorf("absurd file name count %d", n)
	}
	names := make([]string, n)
	for i := range names {
		ln, err := d.uvarint("file name length")
		if err != nil {
			return nil, err
		}
		nb, err := d.next(ln, "file name")
		if err != nil {
			return nil, err
		}
		names[i] = string(nb)
	}
	return names, nil
}

// symbols reads one length-prefixed symbol run.  Runs are cut from one
// arena per section, allocated at the first run: every varint ends in
// exactly one byte below 0x80, so counting those bytes in the rest of the
// section bounds the symbols it can hold.  A run is capped at its own
// length, so appending to it never writes into its neighbour.
func (d *decoder) symbols(field string) ([]Symbol, error) {
	ln, err := d.uvarint(field)
	if err != nil || ln == 0 {
		return nil, err
	}
	if d.syms == nil {
		ends := 0
		for _, c := range d.b[d.off:] {
			if c < 0x80 {
				ends++
			}
		}
		d.syms = make([]Symbol, 0, ends)
	}
	if ln > uint64(cap(d.syms)-len(d.syms)) {
		return nil, d.errorf("%s of %d symbols overruns the section", field, ln)
	}
	start := len(d.syms)
	for i := uint64(0); i < ln; i++ {
		v, n := binary.Uvarint(d.b[d.off:])
		if n <= 0 {
			return nil, d.errorf("%s symbol: truncated or overlong varint", field)
		}
		if v > math.MaxUint32 {
			return nil, d.errorf("symbol overflow %d", v)
		}
		d.off += n
		d.syms = append(d.syms, Symbol(v))
	}
	return d.syms[start:len(d.syms):len(d.syms)], nil
}

// checksum consumes the 4-byte little-endian CRC32 that closes the section,
// checks it against every byte before it, and checks nothing follows it:
// leftover bytes mean the framing lied even if the checksums hold.
func (d *decoder) checksum() (uint32, error) {
	body := d.b[:d.off]
	trailer, err := d.next(4, "checksum")
	if err != nil {
		return 0, err
	}
	sum := crc32.ChecksumIEEE(body)
	if binary.LittleEndian.Uint32(trailer) != sum {
		return 0, d.errorf("checksum mismatch")
	}
	if d.off != len(d.b) {
		return 0, d.errorf("%d trailing bytes", len(d.b)-d.off)
	}
	return sum, nil
}
