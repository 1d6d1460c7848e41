package cfg

import "fmt"

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
