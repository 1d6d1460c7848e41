package cfg

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
)

// legacyShardMagic opened the first sharded container ("NTDCSHD1": K
// independently built, self-checksummed grammar sections behind a manifest).
// Nothing has written it since sharded compression began sharing one rule
// table (sharedMagic below), and its reader went with its writer; the magic
// stays so that such a file is told apart from a corrupt one.
var legacyShardMagic = []byte("NTDCSHD1")

// MaxShards bounds the shard count a container may declare.
const MaxShards = 1 << 16

// IsLegacyShardContainer reports whether b begins with the magic of the
// sharded container this package no longer reads.
func IsLegacyShardContainer(b []byte) bool {
	return bytes.HasPrefix(b, legacyShardMagic)
}

// IsSharedContainer reports whether b begins with the shared-table container
// magic ("NTDCSHD2").
func IsSharedContainer(b []byte) bool {
	return bytes.HasPrefix(b, sharedMagic)
}

// hashReader hashes exactly the bytes delivered to the parser — unlike a
// hashing layer under a bufio.Reader, read-ahead never pollutes the CRC.
type hashReader struct {
	r   io.Reader
	crc hash.Hash32
}

func (h *hashReader) Read(p []byte) (int, error) {
	n, err := h.r.Read(p)
	if n > 0 {
		h.crc.Write(p[:n])
	}
	return n, err
}

func (h *hashReader) ReadByte() (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(h.r, b[:]); err != nil {
		return 0, err
	}
	h.crc.Write(b[:])
	return b[0], nil
}

// Shared-table container ("NTDCSHD2"): the unified compressed form of a
// sharded corpus after cross-shard rule unification — one shared rule table
// plus a root per shard.  The shared section is self-checksummed so it forms
// its own persistence domain: its integrity is verifiable independently of
// the per-shard roots, and a torn write anywhere in the container is
// attributed to the section it corrupted.
//
//	magic            8 bytes ("NTDCSHD2")
//	sectionLen       uvarint
//	shared section   sectionLen bytes (see below, self-checksummed)
//	numShards        uvarint
//	per shard:
//	  fileBase       uvarint (global index of the shard's first document)
//	  numFiles       uvarint
//	  hasNames       1 byte
//	  [file names]   numFiles × (uvarint length + bytes), when hasNames=1
//	  rootLen        uvarint
//	  root           rootLen × uvarint symbol (Rule() indexes the shared table)
//	crc32            4 bytes LE, over everything before it
//
// Shared section:
//
//	magic            8 bytes ("NTDCSHT1")
//	numWords         uvarint
//	numRules         uvarint
//	rules            numRules × (uvarint length + length × uvarint symbol)
//	crc32            4 bytes LE, over the section before it
var (
	sharedMagic      = []byte("NTDCSHD2")
	sharedTableMagic = []byte("NTDCSHT1")
)

// encodeSharedTable serializes the shared rule table as a self-checksummed
// section.
func encodeSharedTable(ss *SharedSet) []byte {
	var b bytes.Buffer
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(&b, crc)
	var buf [binary.MaxVarintLen64]byte
	uv := func(v uint64) { mw.Write(buf[:binary.PutUvarint(buf[:], v)]) }
	mw.Write(sharedTableMagic)
	uv(uint64(ss.NumWords))
	uv(uint64(len(ss.Shared)))
	for _, body := range ss.Shared {
		uv(uint64(len(body)))
		for _, s := range body {
			uv(uint64(s))
		}
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc.Sum32())
	b.Write(crcBuf[:])
	return b.Bytes()
}

// Checksum fingerprints the shared rule table: the CRC32 of its serialized
// section, identical to the checksum embedded in the container.  Engines
// stamp it into their pool headers so recovery can tell shards of different
// unified builds apart.
func (ss *SharedSet) Checksum() uint32 {
	enc := encodeSharedTable(ss)
	return binary.LittleEndian.Uint32(enc[len(enc)-4:])
}

// WriteSharedSet serializes a unified shard set as one shared-table
// container.
func WriteSharedSet(w io.Writer, ss *SharedSet) (int64, error) {
	if err := ss.Validate(); err != nil {
		return 0, err
	}
	if len(ss.Shards) > MaxShards {
		return 0, fmt.Errorf("%w: %d shards", ErrInvalid, len(ss.Shards))
	}
	crc := crc32.NewIEEE()
	cw := &countWriter{w: io.MultiWriter(w, crc)}
	bw := bufio.NewWriterSize(cw, 64<<10)
	var buf [binary.MaxVarintLen64]byte
	uv := func(v uint64) error {
		_, err := bw.Write(buf[:binary.PutUvarint(buf[:], v)])
		return err
	}
	if _, err := bw.Write(sharedMagic); err != nil {
		return cw.n, err
	}
	section := encodeSharedTable(ss)
	if err := uv(uint64(len(section))); err != nil {
		return cw.n, err
	}
	if _, err := bw.Write(section); err != nil {
		return cw.n, err
	}
	if err := uv(uint64(len(ss.Shards))); err != nil {
		return cw.n, err
	}
	fileBase := uint64(0)
	for _, sh := range ss.Shards {
		if err := uv(fileBase); err != nil {
			return cw.n, err
		}
		if err := uv(uint64(sh.NumFiles)); err != nil {
			return cw.n, err
		}
		hasNames := byte(0)
		if sh.Files != nil {
			hasNames = 1
		}
		if err := bw.WriteByte(hasNames); err != nil {
			return cw.n, err
		}
		if hasNames == 1 {
			for _, name := range sh.Files {
				if err := uv(uint64(len(name))); err != nil {
					return cw.n, err
				}
				if _, err := bw.WriteString(name); err != nil {
					return cw.n, err
				}
			}
		}
		if err := uv(uint64(len(sh.Root))); err != nil {
			return cw.n, err
		}
		for _, s := range sh.Root {
			if err := uv(uint64(s)); err != nil {
				return cw.n, err
			}
		}
		fileBase += uint64(sh.NumFiles)
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc.Sum32())
	m, err := w.Write(crcBuf[:])
	return cw.n + int64(m), err
}

// ReadSharedSet deserializes a container written by WriteSharedSet,
// verifying the shared section's own checksum, the container checksum, and
// the unified form's structural invariants.
func ReadSharedSet(r io.Reader) (*SharedSet, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	hr := &hashReader{r: br, crc: crc32.NewIEEE()}
	fail := func(stage string, err error) (*SharedSet, error) {
		return nil, fmt.Errorf("%w: shared container %s: %v", ErrInvalid, stage, err)
	}

	magic := make([]byte, len(sharedMagic))
	if _, err := io.ReadFull(hr, magic); err != nil {
		return fail("magic", err)
	}
	if !bytes.Equal(magic, sharedMagic) {
		return nil, fmt.Errorf("%w: bad shared container magic %q", ErrInvalid, magic)
	}
	sectionLen, err := binary.ReadUvarint(hr)
	if err != nil {
		return fail("section length", err)
	}
	if sectionLen < uint64(len(sharedTableMagic))+4 || sectionLen > 1<<40 {
		return nil, fmt.Errorf("%w: absurd shared section length %d", ErrInvalid, sectionLen)
	}
	ss, err := readSharedTable(hr, sectionLen)
	if err != nil {
		return nil, err
	}
	numShards, err := binary.ReadUvarint(hr)
	if err != nil {
		return fail("shard count", err)
	}
	if numShards == 0 || numShards > MaxShards {
		return nil, fmt.Errorf("%w: absurd shard count %d", ErrInvalid, numShards)
	}
	ss.Shards = make([]SharedShard, 0, clampPrealloc(numShards))
	fileBase := uint64(0)
	for i := uint64(0); i < numShards; i++ {
		base, err := binary.ReadUvarint(hr)
		if err != nil {
			return fail("file base", err)
		}
		if base != fileBase {
			return nil, fmt.Errorf("%w: shard %d declares file base %d, want %d",
				ErrInvalid, i, base, fileBase)
		}
		numFiles, err := binary.ReadUvarint(hr)
		if err != nil {
			return fail("file count", err)
		}
		if numFiles > MaxWords {
			return nil, fmt.Errorf("%w: absurd file count %d", ErrInvalid, numFiles)
		}
		sh := SharedShard{NumFiles: uint32(numFiles)}
		hasNames, err := hr.ReadByte()
		if err != nil {
			return fail("hasNames", err)
		}
		if hasNames == 1 {
			sh.Files = make([]string, 0, clampPrealloc(numFiles))
			for j := uint64(0); j < numFiles; j++ {
				ln, err := binary.ReadUvarint(hr)
				if err != nil {
					return fail("file name length", err)
				}
				if ln > 1<<20 {
					return nil, fmt.Errorf("%w: absurd name length %d", ErrInvalid, ln)
				}
				nb := make([]byte, ln)
				if _, err := io.ReadFull(hr, nb); err != nil {
					return fail("file name", err)
				}
				sh.Files = append(sh.Files, string(nb))
			}
		}
		root, err := readSymbolRun(hr, "root")
		if err != nil {
			return nil, err
		}
		sh.Root = root
		ss.Shards = append(ss.Shards, sh)
		fileBase += numFiles
	}
	want := hr.crc.Sum32()
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return fail("crc", err)
	}
	if got := binary.LittleEndian.Uint32(crcBuf[:]); got != want {
		return nil, fmt.Errorf("%w: shared container checksum mismatch", ErrInvalid)
	}
	if err := ss.Validate(); err != nil {
		return nil, err
	}
	return ss, nil
}

// readSharedTable parses the self-checksummed shared section.  outer already
// feeds the container checksum; a nested hashReader accumulates the
// section's own.
func readSharedTable(outer *hashReader, sectionLen uint64) (*SharedSet, error) {
	fail := func(stage string, err error) (*SharedSet, error) {
		return nil, fmt.Errorf("%w: shared table %s: %v", ErrInvalid, stage, err)
	}
	body := io.LimitReader(outer, int64(sectionLen)-4)
	inner := &hashReader{r: body, crc: crc32.NewIEEE()}
	magic := make([]byte, len(sharedTableMagic))
	if _, err := io.ReadFull(inner, magic); err != nil {
		return fail("magic", err)
	}
	if !bytes.Equal(magic, sharedTableMagic) {
		return nil, fmt.Errorf("%w: bad shared table magic %q", ErrInvalid, magic)
	}
	numWords, err := binary.ReadUvarint(inner)
	if err != nil {
		return fail("numWords", err)
	}
	numRules, err := binary.ReadUvarint(inner)
	if err != nil {
		return fail("numRules", err)
	}
	if numWords > MaxWords || numRules > MaxRules {
		return nil, fmt.Errorf("%w: absurd sizes words=%d rules=%d", ErrInvalid, numWords, numRules)
	}
	ss := &SharedSet{NumWords: uint32(numWords)}
	ss.Shared = make([][]Symbol, 0, clampPrealloc(numRules))
	for i := uint64(0); i < numRules; i++ {
		b, err := readSymbolRun(inner, "rule")
		if err != nil {
			return nil, err
		}
		ss.Shared = append(ss.Shared, b)
	}
	// The parse must consume the declared section exactly; leftover bytes
	// mean the framing lied even if both checksums happen to hold.
	if _, err := inner.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: shared table has trailing bytes", ErrInvalid)
	}
	want := inner.crc.Sum32()
	var crcBuf [4]byte
	if _, err := io.ReadFull(outer, crcBuf[:]); err != nil {
		return fail("crc", err)
	}
	if got := binary.LittleEndian.Uint32(crcBuf[:]); got != want {
		return nil, fmt.Errorf("%w: shared table checksum mismatch", ErrInvalid)
	}
	return ss, nil
}

// readSymbolRun parses one length-prefixed symbol sequence.
func readSymbolRun(r io.ByteReader, what string) ([]Symbol, error) {
	ln, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %s length: %v", ErrInvalid, what, err)
	}
	if ln > 1<<28 {
		return nil, fmt.Errorf("%w: absurd %s length %d", ErrInvalid, what, ln)
	}
	var body []Symbol
	if ln > 0 {
		body = make([]Symbol, 0, clampPrealloc(ln))
	}
	for j := uint64(0); j < ln; j++ {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("%w: %s symbol: %v", ErrInvalid, what, err)
		}
		if v > 1<<32-1 {
			return nil, fmt.Errorf("%w: symbol overflow %d", ErrInvalid, v)
		}
		body = append(body, Symbol(v))
	}
	return body, nil
}

// ConcatShards merges per-shard grammars into one grammar equivalent to
// compressing the concatenated corpus with per-shard redundancy only: shard
// roots are concatenated into a single R0 with globally renumbered
// separators, and every shard's non-root rules are appended with their
// references remapped.  The merged view backs whole-archive operations
// (stats, decompression, the DRAM engine) without re-inferring anything.
func ConcatShards(shards []*Grammar) (*Grammar, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("%w: empty shard set", ErrInvalid)
	}
	if len(shards) == 1 {
		return shards[0], nil
	}
	out := &Grammar{}
	totalRules := 1
	hasNames := true
	for _, g := range shards {
		totalRules += len(g.Rules) - 1
		if g.NumWords > out.NumWords {
			out.NumWords = g.NumWords
		}
		out.NumFiles += g.NumFiles
		hasNames = hasNames && g.Files != nil
	}
	if uint64(totalRules) > MaxRules {
		return nil, fmt.Errorf("%w: merged grammar needs %d rules", ErrInvalid, totalRules)
	}
	out.Rules = make([][]Symbol, 1, totalRules)
	if hasNames {
		out.Files = make([]string, 0, out.NumFiles)
	}
	var root []Symbol
	fileBase, ruleBase := uint32(0), uint32(1)
	for si, g := range shards {
		if len(g.Rules) == 0 {
			return nil, fmt.Errorf("%w: shard %d has no rules", ErrInvalid, si)
		}
		// Shard-local rule r >= 1 becomes global rule ruleBase + r - 1; the
		// shard root's symbols land directly in the merged R0.  References
		// to a shard's own root have no merged counterpart.
		var remapErr error
		remap := func(s Symbol) Symbol {
			switch {
			case s.IsRule():
				if s.RuleIndex() == 0 {
					remapErr = fmt.Errorf("%w: shard %d references its root", ErrInvalid, si)
					return s
				}
				return Rule(ruleBase + s.RuleIndex() - 1)
			case s.IsSep():
				return Sep(fileBase + s.SepIndex())
			default:
				return s
			}
		}
		for _, s := range g.Rules[0] {
			root = append(root, remap(s))
		}
		for _, body := range g.Rules[1:] {
			nb := make([]Symbol, len(body))
			for i, s := range body {
				nb[i] = remap(s)
			}
			out.Rules = append(out.Rules, nb)
		}
		if remapErr != nil {
			return nil, remapErr
		}
		if hasNames {
			out.Files = append(out.Files, g.Files...)
		}
		fileBase += g.NumFiles
		ruleBase += uint32(len(g.Rules) - 1)
	}
	out.Rules[0] = root
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
