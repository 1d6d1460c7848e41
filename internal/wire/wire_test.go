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

// TestAppendMapFieldOrderAndCollisions checks bytewise key order, the field
// separator, omitempty, and that keys colliding after resolution collapse to
// one entry rather than emitting a duplicate key.
func TestAppendMapFieldOrderAndCollisions(t *testing.T) {
	name := func(k int) string { return []string{"abc", "ab c", "ab", "Z", "ab"}[k] }
	dst := AppendMapField([]byte{'{'}, "empty", map[int]uint64{}, name, AppendUint)
	dst = AppendMapField(dst, "first", map[int]uint64{0: 1, 1: 1, 2: 1, 3: 1}, name, AppendUint)
	dst = AppendMapField(dst, "second", map[int]uint64{2: 7, 4: 7}, name, AppendUint)
	dst = append(dst, '}')
	const want = `{"first":{"Z":1,"ab":1,"ab c":1,"abc":1},"second":{"ab":7}}`
	if string(dst) != want {
		t.Errorf("got %s\nwant %s", dst, want)
	}
}
