package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/text-analytics/ntadoc"
	"github.com/text-analytics/ntadoc/internal/datagen"
)

// resultOf builds the wire result, naming each term vector's document.
func resultOf(res *ntadoc.BatchResult, docs []string) Result {
	out := Result{
		WordCount:           res.WordCount,
		Sort:                res.Sort,
		InvertedIndex:       res.InvertedIndex,
		SequenceCount:       res.SequenceCount,
		RankedInvertedIndex: res.RankedInvertedIndex,
	}
	if res.TermVectors != nil {
		out.TermVectors = make([]DocTerms, len(res.TermVectors))
		for i, terms := range res.TermVectors {
			name := ""
			if i < len(docs) {
				name = docs[i]
			}
			out.TermVectors[i] = DocTerms{Doc: name, Terms: terms}
		}
	}
	return out
}

// oracle is the wire format's definition: encoding/json reflecting over
// Result.  It is what the production encoders replaced, kept here as the
// byte-identity reference they are both held to.
func oracle(t testing.TB, res *ntadoc.BatchResult, docs []string) []byte {
	t.Helper()
	b, err := json.Marshal(resultOf(res, docs))
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return b
}

// adversarialWords exercise every branch of JSON string encoding and key
// ordering: HTML-escaped bytes, quotes and backslashes, control bytes, DEL,
// multi-byte runes, the two escaped line separators, invalid UTF-8, and
// words that are prefixes of one another (so joined sequence keys differ
// first at a separator: "ab c" sorts before "abc") — two of them continuing
// below the separator ("tab\there" after "tab", "x\x1fy" after "x"), so that
// the order of joined keys is not the order of their words' ranks:
// "x\x1fy …" sorts before "x …", the words the other way round.
var adversarialWords = []string{
	"ab", "abc", "a", "b", "c", "abcd",
	"<tag>", "a&b", `say "hi"`, `back\slash`, "tab", "tab\there", "nl\nhere", "bell\x07", "del\x7f",
	"naïve", "日本語", "sep\u2028line", "sep\u2029para", "bad\xffutf8", "cut\xe6\x97", "\x00",
	"emoji😀", "Zed", "zed", "_", "~", "x", "x\x1fy",
}

// testCorpus is one differential-test input: token files over a vocabulary.
type testCorpus struct {
	name  string
	files [][]uint32
	words []string
	docs  []string
}

func generated(name string, seed int64, files, tokens, vocab int) testCorpus {
	spec := datagen.Spec{
		Name: name, Seed: seed, Files: files, TokensPer: tokens, Vocab: vocab,
		ZipfS: 1.3, Phrases: 30, PhraseLen: 5, PhraseProb: 0.6,
	}
	toks, d := spec.GenerateWithDict()
	c := testCorpus{name: name, files: toks, words: d.Words()}
	for i := range toks {
		c.docs = append(c.docs, fmt.Sprintf("%s-%02d.txt", name, i))
	}
	return c
}

// testCorpora are the three shapes of core's TestShardCountInvariance, the
// adversarial vocabulary under adversarial document names, and a vocabulary
// whose words hold the separator, so that distinct sequences join to one key
// ("a b"+"c"+"d" and "a"+"b c"+"d"): both encoders must keep the same one.
func testCorpora() []testCorpus {
	adv := generated("adversarial", 54, 5, 160, len(adversarialWords))
	adv.words = adversarialWords
	adv.docs = []string{"<d&0>", `d"1"`, "d\\2", "d\xff3", "dπ4\u2028"}
	return []testCorpus{
		generated("small", 51, 4, 200, 30),
		generated("manyfiles", 52, 9, 120, 40),
		generated("redundant", 53, 6, 300, 15),
		adv,
		{
			name:  "sharedkeys",
			words: []string{"a b", "c", "a", "b c", "d"},
			files: [][]uint32{{0, 1, 4, 0, 1, 4}, {2, 3, 4}, {2, 3, 4, 2, 3, 4, 2, 3, 4}, {4, 0, 1, 4}},
			docs:  []string{"d0", "d1", "d2", "d3"},
		},
	}
}

func (c testCorpus) engine(t *testing.T, k int) *ntadoc.Engine {
	t.Helper()
	d := ntadoc.NewDictionary()
	for _, w := range c.words {
		d.Intern(w)
	}
	a, err := ntadoc.CompressTokensSharded(c.files, c.docs, d, k)
	if err != nil {
		t.Fatalf("CompressTokensSharded(%s, k=%d): %v", c.name, k, err)
	}
	eng, err := ntadoc.NewEngine(a, ntadoc.Options{})
	if err != nil {
		t.Fatalf("NewEngine(%s, k=%d): %v", c.name, k, err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func testSpecs() []ntadoc.BatchSpec {
	var specs []ntadoc.BatchSpec
	for _, task := range ntadoc.AllTasks {
		specs = append(specs, ntadoc.NewBatchSpec([]ntadoc.Task{task}, 0))
	}
	return append(specs,
		ntadoc.NewBatchSpec(ntadoc.AllTasks, 0),
		ntadoc.NewBatchSpec([]ntadoc.Task{ntadoc.TaskTermVectors}, 3))
}

// TestEncodersMatchOracle holds both production encoders — the serving
// path's ID-keyed QuerySession.RunSpecJSON and the string-keyed EncodeResult
// — to the reflection oracle, byte for byte: all six ops and the fused batch
// over every test corpus at K in {1, 2, 4}.
func TestEncodersMatchOracle(t *testing.T) {
	for _, c := range testCorpora() {
		for _, k := range []int{1, 2, 4} {
			eng := c.engine(t, k)
			sess, err := eng.NewSession()
			if err != nil {
				t.Fatalf("%s k=%d: NewSession: %v", c.name, k, err)
			}
			docs := eng.DocumentNames()
			for _, spec := range testSpecs() {
				id := fmt.Sprintf("%s k=%d %s", c.name, k, spec.Signature())
				res, err := sess.RunSpec(context.Background(), spec)
				if err != nil {
					t.Fatalf("%s: RunSpec: %v", id, err)
				}
				want := oracle(t, res, docs)
				if len(want) < 20 {
					t.Fatalf("%s: oracle body %q is implausibly small", id, want)
				}
				got, err := EncodeResult(res, docs)
				if err != nil {
					t.Fatalf("%s: EncodeResult: %v", id, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: EncodeResult differs from the oracle\n got %s\nwant %s", id, got, want)
				}
				served, err := sess.RunSpecJSON(context.Background(), spec)
				if err != nil {
					t.Fatalf("%s: RunSpecJSON: %v", id, err)
				}
				if !bytes.Equal(served, want) {
					t.Errorf("%s: RunSpecJSON differs from the oracle\n got %s\nwant %s", id, served, want)
				}
				// The serving encoder sizes its buffer once, exactly when
				// nothing needs an escape and no key is shared.
				if plain := c.name != "adversarial" && c.name != "sharedkeys"; plain && cap(served) != len(served) {
					t.Errorf("%s: RunSpecJSON sized its buffer %d bytes for a body of %d", id, cap(served), len(served))
				}
			}
		}
	}
}

// TestEncodeResultEdgeCases covers the shapes engines never produce but
// clients of EncodeResult may: empty and nil maps and slices at every level
// (omitempty at the top, null versus [] below it), more term vectors than
// names, and keys whose order is decided at a separator.
func TestEncodeResultEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		res  ntadoc.BatchResult
		docs []string
		want string // pinned where short enough to read; always checked against the oracle
	}{
		{name: "zero", want: `{}`},
		{name: "empty non-nil", want: `{}`, res: ntadoc.BatchResult{
			WordCount:           map[string]uint64{},
			Sort:                []ntadoc.TermCount{},
			TermVectors:         [][]ntadoc.TermCount{},
			InvertedIndex:       map[string][]string{},
			SequenceCount:       map[string]uint64{},
			RankedInvertedIndex: map[string][]ntadoc.DocCount{},
		}},
		{name: "nil and empty lists", docs: []string{"only"},
			want: `{"termvector":[{"doc":"only","terms":null},{"doc":"","terms":[]}],` +
				`"invertedindex":{"e":[],"n":null},"rankedindex":{"e":[],"n":null}}`,
			res: ntadoc.BatchResult{
				TermVectors:         [][]ntadoc.TermCount{nil, {}},
				InvertedIndex:       map[string][]string{"n": nil, "e": {}},
				RankedInvertedIndex: map[string][]ntadoc.DocCount{"n": nil, "e": {}},
			}},
		{name: "prefix keys", want: `{"seqcount":{"":0,"a":1,"ab":2,"ab c":3,"ab c d":4,"abc":5,"abc d":6,"b":7}}`,
			res: ntadoc.BatchResult{SequenceCount: map[string]uint64{
				"abc": 5, "ab c": 3, "ab": 2, "abc d": 6, "ab c d": 4, "a": 1, "b": 7, "": 0,
			}}},
		{name: "escapes", docs: []string{"<a>"}, res: ntadoc.BatchResult{
			WordCount:   map[string]uint64{"<": 1, "&": 2, "\xff": 3, "\u2028": 4, `"`: 5, "é": 6, "\x01": 7},
			Sort:        []ntadoc.TermCount{{Term: "a\tb", Count: 1}, {Term: `\`, Count: 1<<64 - 1}},
			TermVectors: [][]ntadoc.TermCount{{{Term: ">", Count: 9}}},
			InvertedIndex: map[string][]string{
				"w": {"d&1", "d\xc3\x28"},
			},
			RankedInvertedIndex: map[string][]ntadoc.DocCount{
				"x y z": {{Doc: "\u2029", Count: 2}, {Doc: "plain", Count: 1}},
			},
		}},
	}
	for _, tc := range cases {
		got, err := EncodeResult(&tc.res, tc.docs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := oracle(t, &tc.res, tc.docs); !bytes.Equal(got, want) {
			t.Errorf("%s: differs from the oracle\n got %s\nwant %s", tc.name, got, want)
		}
		if tc.want != "" && string(got) != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestEnvelopeGolden pins the exact response bytes: field order, the
// optional flags, "result" last, the closing "}\n", and the headers — and
// holds them to encoding/json's marshaling of Response, which they replaced.
func TestEnvelopeGolden(t *testing.T) {
	body := []byte(`{"wordcount":{"a":1}}`)
	for _, tc := range []struct {
		cached, coalesced bool
		want              string
	}{
		{false, false, `{"generation":"00c0ffee.1.2","signature":"wordcount+sort","result":{"wordcount":{"a":1}}}` + "\n"},
		{true, false, `{"generation":"00c0ffee.1.2","signature":"wordcount+sort","cached":true,"result":{"wordcount":{"a":1}}}` + "\n"},
		{false, true, `{"generation":"00c0ffee.1.2","signature":"wordcount+sort","coalesced":true,"result":{"wordcount":{"a":1}}}` + "\n"},
		{true, true, `{"generation":"00c0ffee.1.2","signature":"wordcount+sort","cached":true,"coalesced":true,"result":{"wordcount":{"a":1}}}` + "\n"},
	} {
		rec := httptest.NewRecorder()
		writeResponse(rec, "00c0ffee.1.2", "wordcount+sort", body, tc.cached, tc.coalesced)
		if got := rec.Body.String(); got != tc.want {
			t.Errorf("cached=%v coalesced=%v:\n got %q\nwant %q", tc.cached, tc.coalesced, got, tc.want)
		}
		var viaJSON bytes.Buffer
		if err := json.NewEncoder(&viaJSON).Encode(&Response{
			Generation: "00c0ffee.1.2", Signature: "wordcount+sort",
			Cached: tc.cached, Coalesced: tc.coalesced, Result: body,
		}); err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.String(); got != viaJSON.String() {
			t.Errorf("cached=%v coalesced=%v: envelope differs from json.Encoder's\n got %q\nwant %q",
				tc.cached, tc.coalesced, got, viaJSON.String())
		}
		if got, want := rec.Header().Get("Content-Length"), fmt.Sprint(len(tc.want)); got != want {
			t.Errorf("Content-Length %q, want %s", got, want)
		}
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Errorf("Content-Type %q", got)
		}
	}

	// Through the handler: a miss, then a hit, carry the served generation
	// and the stored body verbatim.
	s, eng := newTestServer(t, Config{})
	h := s.Handler()
	spec := ntadoc.NewBatchSpec([]ntadoc.Task{ntadoc.TaskSort, ntadoc.TaskWordCount}, 0)
	res, err := eng.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	head := `{"generation":"` + s.Generation() + `","signature":"wordcount+sort"`
	tail := `,"result":` + string(oracle(t, res, eng.DocumentNames())) + "}\n"
	for _, want := range []string{head + tail, head + `,"cached":true` + tail} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/query?task=sort,wordcount", nil))
		if got := rec.Body.String(); got != want {
			t.Errorf("served envelope:\n got %q\nwant %q", got, want)
		}
	}
}

// TestOversizedBodyRefused checks POST bodies are bounded: past maxQueryBody
// the request is refused with 413 instead of being buffered.
func TestOversizedBodyRefused(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	for _, path := range []string{"/v1/query", "/v1/batch"} {
		big := `{"task":"wordcount","tasks":["` + strings.Repeat("x", maxQueryBody) + `"]}`
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(big)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d-byte body: status %d, want 413", path, len(big), rec.Code)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"task":"wordcount"}`)))
		if rec.Code != http.StatusOK {
			t.Errorf("POST %s with a small body: status %d, want 200", path, rec.Code)
		}
	}
	if got := s.reqErr.Load(); got != 2 {
		t.Errorf("reqErr = %d, want 2", got)
	}
}

// TestOversizedAppendRefused checks /v1/append bodies are bounded by what the
// append log could hold: a body past the log's capacity plus the framing
// allowance is refused with 413 before it is buffered, one inside it commits.
func TestOversizedAppendRefused(t *testing.T) {
	s, eng := newIngestServer(t, Config{})
	h := s.Handler()
	limit := int(eng.IngestStats().LogCapacity) + maxQueryBody
	if limit <= maxQueryBody {
		t.Fatalf("append log capacity %d", eng.IngestStats().LogCapacity)
	}
	big := `{"documents":[{"name":"big","text":"` + strings.Repeat("x ", limit/2) + `"}]}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/append", strings.NewReader(big)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /v1/append with %d-byte body (limit %d): status %d, want 413", len(big), limit, rec.Code)
	}
	if _, rec := postAppend(t, h, AppendRequest{Documents: []AppendDocument{{Name: "small", Text: "a small document"}}}); rec.Code != http.StatusOK {
		t.Errorf("POST /v1/append with a small body: status %d, want 200", rec.Code)
	}
	if got := s.appendsErr.Load(); got != 1 {
		t.Errorf("appendsErr = %d, want 1", got)
	}
}

// fuzzSource deals a fuzz input out as the choices that shape a BatchResult.
type fuzzSource struct{ data []byte }

func (f *fuzzSource) byte() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

func (f *fuzzSource) n(max int) int { return int(f.byte()) % (max + 1) }

// str cuts up to seven raw bytes: arbitrary, so invalid UTF-8, control
// bytes and HTML-sensitive characters all occur.
func (f *fuzzSource) str() string {
	n := min(f.n(7), len(f.data))
	s := string(f.data[:n])
	f.data = f.data[n:]
	return s
}

func (f *fuzzSource) count() uint64 { return uint64(f.byte())<<56 | uint64(f.byte()) }

func (f *fuzzSource) terms() []ntadoc.TermCount {
	n := f.n(4)
	if n == 4 {
		return nil
	}
	out := make([]ntadoc.TermCount, n)
	for i := range out {
		out[i] = ntadoc.TermCount{Term: f.str(), Count: f.count()}
	}
	return out
}

func (f *fuzzSource) result() (*ntadoc.BatchResult, []string) {
	res := &ntadoc.BatchResult{}
	if f.n(1) == 1 {
		res.WordCount = map[string]uint64{}
		for i := f.n(5); i > 0; i-- {
			res.WordCount[f.str()] = f.count()
		}
	}
	res.Sort = f.terms()
	if n := f.n(4); n < 4 {
		res.TermVectors = make([][]ntadoc.TermCount, n)
		for i := range res.TermVectors {
			res.TermVectors[i] = f.terms()
		}
	}
	if f.n(1) == 1 {
		res.InvertedIndex = map[string][]string{}
		for i := f.n(4); i > 0; i-- {
			var docs []string
			if n := f.n(3); n < 3 {
				docs = make([]string, n)
				for j := range docs {
					docs[j] = f.str()
				}
			}
			res.InvertedIndex[f.str()] = docs
		}
	}
	if f.n(1) == 1 {
		res.SequenceCount = map[string]uint64{}
		for i := f.n(5); i > 0; i-- {
			res.SequenceCount[f.str()+" "+f.str()+" "+f.str()] = f.count()
		}
	}
	if f.n(1) == 1 {
		res.RankedInvertedIndex = map[string][]ntadoc.DocCount{}
		for i := f.n(4); i > 0; i-- {
			var postings []ntadoc.DocCount
			if n := f.n(3); n < 3 {
				postings = make([]ntadoc.DocCount, n)
				for j := range postings {
					postings[j] = ntadoc.DocCount{Doc: f.str(), Count: f.count()}
				}
			}
			res.RankedInvertedIndex[f.str()] = postings
		}
	}
	docs := make([]string, f.n(3))
	for i := range docs {
		docs[i] = f.str()
	}
	return res, docs
}

// FuzzEncodeResult derives a BatchResult from the fuzz input — any shape,
// any bytes in its strings — and requires EncodeResult to match the
// reflection oracle exactly.
func FuzzEncodeResult(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x02\x03<&>\x01\x01\xff\xfe\x02\x05ab\x00c\x01\x03\xe2\x80\xa8\x01\x01\"\\\x07\x01\x02\x01\x03abc\x02ab\x01c"))
	f.Add(bytes.Repeat([]byte{0x01, 0x03, 'a', 'b', ' ', 0x02, 0xe6, 0x97}, 24))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, docs := (&fuzzSource{data: data}).result()
		got, err := EncodeResult(res, docs)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle(t, res, docs); !bytes.Equal(got, want) {
			t.Fatalf("EncodeResult differs from the oracle\n got %s\nwant %s", got, want)
		}
	})
}
