// Package wire holds the append primitives of the result wire encoding: the
// JSON the daemon serves, caches and byte-compares is produced by appending
// to one buffer, without reflection and without an intermediate value tree.
// The output is byte-identical to encoding/json's for the same data — object
// keys in bytewise order, strings escaped the same way (HTML-safe, U+2028 and
// U+2029 escaped, invalid UTF-8 replaced) — which the server's tests pin
// against json.Marshal as the oracle.
//
// Two front ends share these primitives: the root package streams the
// kernel's key-ordered result arrays into a body it sized beforehand (the
// serving path), and server.EncodeResult encodes the public string-keyed
// BatchResult, whose maps AppendMapField sorts.
package wire

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// plain marks the ASCII bytes encoding/json copies into a string verbatim
// under HTML escaping; everything else below utf8.RuneSelf needs an escape.
var plain = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < 0x7f; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// AppendString appends s as a JSON string.  Strings made of plain ASCII and
// well-formed multi-byte runes — all encoding/json copies verbatim — are
// quoted in place; any string that needs an escape goes through
// encoding/json itself, so the escape table can never drift from the oracle.
func AppendString(dst []byte, s string) []byte {
	if !verbatim(s) {
		return appendEscaped(dst, s)
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// verbatim reports whether encoding/json copies s into a string unchanged.
func verbatim(s string) bool {
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if !plain[b] {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
			return false
		}
		i += size
	}
	return true
}

func appendEscaped(dst []byte, s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return append(dst, b...)
}

// AppendUint appends v in decimal, as encoding/json writes unsigned integers.
func AppendUint(dst []byte, v uint64) []byte {
	return strconv.AppendUint(dst, v, 10)
}

// AppendField opens the next field of the object being written into dst
// (whose first byte is its '{'): a separating comma unless the field is the
// object's first, then the name — which must need no escaping — and a colon.
func AppendField(dst []byte, name string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, name...)
	return append(dst, '"', ':')
}

// AppendKey opens the next entry of the object being written into dst (whose
// first byte is its '{'), under any key: AppendField with the key escaped.
func AppendKey(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	return append(AppendString(dst, key), ':')
}

// AppendJoinedKey is AppendKey under the key strings.Join(words, " "), which
// is written in place, word by word, unless it needs an escape.  The
// separator is ASCII, so no rune spans two words and the words can be judged
// one at a time.
func AppendJoinedKey(dst []byte, words []string) []byte {
	for _, w := range words {
		if !verbatim(w) {
			return AppendKey(dst, strings.Join(words, " "))
		}
	}
	dst = AppendKey(dst, words[0])
	dst = dst[:len(dst)-2] // reopen the string: drop the quote and the colon
	for _, w := range words[1:] {
		dst = append(append(dst, ' '), w...)
	}
	return append(dst, '"', ':')
}

// AppendCount appends the two-field object {"<field>":"<name>","Count":n} —
// the wire form of a TermCount (field "Term") or a DocCount (field "Doc").
func AppendCount(dst []byte, field, name string, n uint64) []byte {
	dst = append(dst, '{')
	dst = AppendField(dst, field)
	dst = AppendString(dst, name)
	dst = append(dst, `,"Count":`...)
	dst = AppendUint(dst, n)
	return append(dst, '}')
}

// AppendTermVectorsField appends per-document term vectors as the next field
// of the object being written into dst: an array of
// {"doc":"<name>","terms":<vector>} in document order, document i named
// docs[i] (or "" past the end of docs), each vector appended by terms.  No
// vectors append nothing, which is `omitempty`.
func AppendTermVectorsField[T any](dst []byte, name string, vectors [][]T, docs []string,
	terms func([]byte, []T) []byte) []byte {
	if len(vectors) == 0 {
		return dst
	}
	dst = append(AppendField(dst, name), '[')
	for i, vec := range vectors {
		if i > 0 {
			dst = append(dst, ',')
		}
		doc := ""
		if i < len(docs) {
			doc = docs[i]
		}
		dst = append(dst, `{"doc":`...)
		dst = AppendString(dst, doc)
		dst = append(dst, `,"terms":`...)
		dst = append(terms(dst, vec), '}')
	}
	return append(dst, ']')
}

// AppendArray appends items as a JSON array, each element appended by item.
// A nil slice appends as [] too: callers for whom nil means null write that
// themselves.
func AppendArray[T any](dst []byte, items []T, item func([]byte, T) []byte) []byte {
	dst = append(dst, '[')
	for i, it := range items {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = item(dst, it)
	}
	return append(dst, ']')
}

// reserveAfter is how many entries of a long map are written before the
// buffer is sized for the rest.
const reserveAfter = 64

// reserve grows dst for the remainder of a sequence of total elements, done
// of which occupy dst[start:], assuming the rest average the same size (plus
// a tenth).  A long sequence then costs one exact-ish allocation instead of
// a chain of doublings, each copying what is written and leaving it behind
// as garbage; multi-megabyte bodies are where that matters.  It is for
// writers that know no size — EncodeResult's maps: inside a buffer sized for
// its whole body (the serving encoder's) an estimate above the exact
// remainder would reallocate all of it, so nothing on that path calls this.
func reserve(dst []byte, start, done, total int) []byte {
	rest := (len(dst) - start) / done * (total - done)
	return slices.Grow(dst, rest+rest/10+total)
}

// entry is one key of a JSON object with the value still in its source form.
type entry[V any] struct {
	key string
	val V
}

// AppendMapField appends m as the next field of the object being written
// into dst: an object whose keys are in the bytewise order encoding/json
// gives map keys, each value appended by val.  An empty map appends nothing,
// which is `omitempty`.  Only server.EncodeResult, whose input is the public
// map type, still sorts keys; the serving path's arrive sorted.
func AppendMapField[V any](dst []byte, name string, m map[string]V, val func([]byte, V) []byte) []byte {
	if len(m) == 0 {
		return dst
	}
	ents := make([]entry[V], 0, len(m))
	for k, v := range m {
		ents = append(ents, entry[V]{k, v})
	}
	slices.SortFunc(ents, func(a, b entry[V]) int { return strings.Compare(a.key, b.key) })
	dst = AppendField(dst, name)
	start := len(dst)
	dst = append(dst, '{')
	for i, e := range ents {
		if i == reserveAfter {
			dst = reserve(dst, start, i, len(ents))
		}
		dst = val(AppendKey(dst, e.key), e.val)
	}
	return append(dst, '}')
}
