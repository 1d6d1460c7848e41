package wire

import (
	"encoding/json"
	"testing"
	"unicode/utf8"
)

// TestAppendStringMatchesJSON checks AppendString against json.Marshal over
// every single byte, every byte after a plain prefix, and the multi-byte
// edge cases: the verbatim path may only take strings encoding/json copies
// unchanged.
func TestAppendStringMatchesJSON(t *testing.T) {
	inputs := []string{
		"", "plain ascii", "naïve", "日本語", "😀", "\u2027\u202a", "\u2028", "x\u2029y",
		"\xe2\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80", "\xc0\xaf", string(utf8.RuneError),
	}
	for b := 0; b < 256; b++ {
		inputs = append(inputs, string([]byte{byte(b)}), "ab"+string([]byte{byte(b)})+"c")
	}
	for _, s := range inputs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x:"), s); string(got) != "x:"+string(want) {
			t.Errorf("AppendString(%q) = %s, want x:%s", s, got, want)
		}
	}
}

// TestAppendMapFieldOrder checks bytewise key order, the field separator and
// omitempty.
func TestAppendMapFieldOrder(t *testing.T) {
	dst := AppendMapField([]byte{'{'}, "empty", map[string]uint64{}, AppendUint)
	dst = AppendMapField(dst, "first", map[string]uint64{"abc": 1, "ab c": 1, "ab": 1, "Z": 1}, AppendUint)
	dst = AppendMapField(dst, "second", map[string]uint64{"ab": 7}, AppendUint)
	dst = append(dst, '}')
	const want = `{"first":{"Z":1,"ab":1,"ab c":1,"abc":1},"second":{"ab":7}}`
	if string(dst) != want {
		t.Errorf("got %s\nwant %s", dst, want)
	}
}

// TestAppendJoinedKeyMatchesJSON holds the in-place joined key to
// json.Marshal of the joined string: plain words, words needing escapes,
// empty words, and an invalid sequence cut off right before a separator.
func TestAppendJoinedKeyMatchesJSON(t *testing.T) {
	for _, words := range [][]string{
		{"a", "b", "c"}, {"", "", ""}, {"naïve", "日本語", "x y"}, {"a<b", "c", "d"},
		{"ok", "cut\xe6\x97", "next"}, {"tab\there", " ", "\x1f"}, {"solo"},
	} {
		joined := words[0]
		for _, w := range words[1:] {
			joined += " " + w
		}
		key, err := json.Marshal(joined)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := AppendJoinedKey([]byte("{"), words), "{"+string(key)+":"; string(got) != want {
			t.Errorf("AppendJoinedKey(%q) = %s, want %s", words, got, want)
		}
		if got, want := AppendJoinedKey([]byte(`{"k":1`), words), `{"k":1,`+string(key)+":"; string(got) != want {
			t.Errorf("AppendJoinedKey(%q) after an entry = %s, want %s", words, got, want)
		}
	}
}

// TestReserveLeavesRoomAlone: reserve is for writers that know no size.  A
// buffer that already has room for the estimate — all a presized one could
// ask of it — is returned as it is, never reallocated; only one without room
// grows, and then for the whole remainder at once.
func TestReserveLeavesRoomAlone(t *testing.T) {
	const done, total, each = reserveAfter, 10 * reserveAfter, 10
	written := make([]byte, done*each)
	estimate := each*(total-done) + each*(total-done)/10 + total

	roomy := append(make([]byte, 0, len(written)+estimate), written...)
	if got := reserve(roomy, 0, done, total); &got[0] != &roomy[0] || cap(got) != cap(roomy) {
		t.Errorf("reserve reallocated a buffer with room for its estimate (cap %d -> %d)", cap(roomy), cap(got))
	}
	tight := append(make([]byte, 0, len(written)), written...)
	if got := reserve(tight, 0, done, total); cap(got)-len(got) < estimate {
		t.Errorf("reserve left room for %d bytes, estimate %d", cap(got)-len(got), estimate)
	}
}
