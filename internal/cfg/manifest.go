package cfg

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxShards bounds the shard count a container may declare.
const MaxShards = 1 << 16

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
// stamp it into their pools' root slots so recovery can tell shards of
// different unified builds apart.
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
// the unified form's structural invariants.  It also returns the shared
// section's checksum, which is the set's Checksum.
func ReadSharedSet(b []byte) (*SharedSet, uint32, error) {
	d := &decoder{b: b, what: "shared container"}
	if err := d.magic(sharedMagic); err != nil {
		return nil, 0, err
	}
	sectionLen, err := d.uvarint("section length")
	if err != nil {
		return nil, 0, err
	}
	if sectionLen < uint64(len(sharedTableMagic))+4 {
		return nil, 0, d.errorf("absurd shared section length %d", sectionLen)
	}
	section, err := d.next(sectionLen, "shared section")
	if err != nil {
		return nil, 0, err
	}
	ss, sum, err := readSharedTable(section)
	if err != nil {
		return nil, 0, err
	}
	numShards, err := d.count("shard count", MaxShards)
	if err != nil {
		return nil, 0, err
	}
	if numShards == 0 {
		return nil, 0, d.errorf("no shards")
	}
	ss.Shards = make([]SharedShard, numShards)
	fileBase := uint64(0)
	for i := range ss.Shards {
		sh := &ss.Shards[i]
		base, err := d.uvarint("file base")
		if err != nil {
			return nil, 0, err
		}
		if base != fileBase {
			return nil, 0, d.errorf("shard %d declares file base %d, want %d", i, base, fileBase)
		}
		numFiles, err := d.uvarint("file count")
		if err != nil {
			return nil, 0, err
		}
		if numFiles > MaxWords {
			return nil, 0, d.errorf("absurd file count %d", numFiles)
		}
		sh.NumFiles = uint32(numFiles)
		hasNames, err := d.next(1, "hasNames")
		if err != nil {
			return nil, 0, err
		}
		if hasNames[0] == 1 {
			if sh.Files, err = d.names(numFiles); err != nil {
				return nil, 0, err
			}
		}
		if sh.Root, err = d.symbols("root"); err != nil {
			return nil, 0, err
		}
		fileBase += numFiles
	}
	if _, err := d.checksum(); err != nil {
		return nil, 0, err
	}
	if err := ss.Validate(); err != nil {
		return nil, 0, err
	}
	return ss, sum, nil
}

// readSharedTable parses the self-checksummed shared section and returns
// its checksum.
func readSharedTable(b []byte) (*SharedSet, uint32, error) {
	d := &decoder{b: b, what: "shared table"}
	if err := d.magic(sharedTableMagic); err != nil {
		return nil, 0, err
	}
	numWords, err := d.uvarint("numWords")
	if err != nil {
		return nil, 0, err
	}
	if numWords > MaxWords {
		return nil, 0, d.errorf("absurd vocabulary %d", numWords)
	}
	numRules, err := d.count("rule count", MaxRules)
	if err != nil {
		return nil, 0, err
	}
	ss := &SharedSet{NumWords: uint32(numWords), Shared: make([][]Symbol, numRules)}
	for i := range ss.Shared {
		if ss.Shared[i], err = d.symbols("rule"); err != nil {
			return nil, 0, err
		}
	}
	sum, err := d.checksum()
	if err != nil {
		return nil, 0, err
	}
	return ss, sum, nil
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
	totalRules, rootSize, ruleSize := 1, 0, 0
	hasNames := true
	for _, g := range shards {
		totalRules += len(g.Rules) - 1
		for ri, body := range g.Rules {
			if ri == 0 {
				rootSize += len(body)
			} else {
				ruleSize += len(body)
			}
		}
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
	// The merged root and, separately, every other body are cut from one
	// arena each; a body is capped at its own length.
	root := make([]Symbol, 0, rootSize)
	arena := make([]Symbol, 0, ruleSize)
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
			start := len(arena)
			for _, s := range body {
				arena = append(arena, remap(s))
			}
			out.Rules = append(out.Rules, arena[start:len(arena):len(arena)])
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
