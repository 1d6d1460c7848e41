package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/text-analytics/ntadoc/internal/datagen"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	// Nearest rank never interpolates: the p50 of four samples is the second.
	if got := percentile([]float64{1, 2, 3, 4}, 50); got != 2 {
		t.Errorf("percentile([1 2 3 4], 50) = %g, want 2", got)
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	// p95 needs 200 samples to leave ten beyond it, p50 needs 20.
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{{199, 95, false}, {200, 95, true}, {300, 95, true}, {19, 50, false}, {20, 50, true}, {0, 95, false}} {
		if got := supportsPercentile(tc.n, tc.p); got != tc.want {
			t.Errorf("supportsPercentile(%d, %g) = %v (%d beyond), want %v", tc.n, tc.p, got, samplesBeyond(tc.n, tc.p), tc.want)
		}
	}
	if got := samplesBeyond(300, 95); got != 15 {
		t.Errorf("samplesBeyond(300, 95) = %d, want 15", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if got, want := iqrShare(v), 5.5/5.5; got != want {
		t.Errorf("iqrShare(1..10) = %g, want %g", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles([1 2 4]) = %g, %g, want 1, 4", q1, q3)
	}
}

// A stalled acknowledgement must be charged to the operations queued behind
// it: they are timed from when they were due, not from when they were sent.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		interval = 10 * time.Millisecond
		stall    = 200 * time.Millisecond
		n        = 12
	)
	st := openLoop(time.Now(), interval, n, nil, func(i int) (int, error) {
		if i == 2 {
			time.Sleep(stall) // the fake server stalls once
		}
		return 0, nil
	})
	if st.Attempted != n || st.Failed != 0 || len(st.Lat) != n {
		t.Fatalf("attempted %d failed %d samples %d, want %d 0 %d", st.Attempted, st.Failed, len(st.Lat), n, n)
	}
	for i := 0; i < 2; i++ {
		if st.Lat[i] > 50 {
			t.Errorf("operation %d before the stall took %.1f ms", i, st.Lat[i])
		}
	}
	// Operation 3 was due 10 ms into the 200 ms stall, operation 6 40 ms in.
	for i, floor := range map[int]float64{3: 150, 6: 120} {
		if st.Lat[i] < floor {
			t.Errorf("operation %d, due during the stall, reports %.1f ms; want at least %.0f (timed from its due time)", i, st.Lat[i], floor)
		}
		if st.Late[i] < floor {
			t.Errorf("operation %d was sent %.1f ms late; want at least %.0f", i, st.Late[i], floor)
		}
	}
	if p95 := percentile(sortedCopy(st.Late), 95); p95 < 100 {
		t.Errorf("gen.late_p95_ms = %.1f after a 200 ms stall, want it inflated", p95)
	}
}

func TestOpenLoopCountsFailuresAndRetries(t *testing.T) {
	st := openLoop(time.Now(), time.Millisecond, 4, nil, func(i int) (int, error) {
		if i == 1 {
			return 2, errors.New("refused")
		}
		return 1, nil
	})
	if st.Attempted != 4 || st.Failed != 1 || st.Retries != 5 || len(st.Lat) != 3 {
		t.Errorf("attempted %d failed %d retries %d samples %d, want 4 1 5 3", st.Attempted, st.Failed, st.Retries, len(st.Lat))
	}
}

func TestClosedLoopCountsAndVerifies(t *testing.T) {
	stream := makeStream(7, 3, 64)
	ls := closedLoop(2, 50*time.Millisecond, 0, stream, 3, func(_, si int) error {
		time.Sleep(time.Millisecond)
		if si == 1 {
			return errors.New("wrong output")
		}
		return nil
	})
	if ls.Attempted == 0 || ls.Failed == 0 || ls.Attempted != ls.Failed+len(ls.latencies()) {
		t.Fatalf("attempted %d, failed %d, ok samples %d", ls.Attempted, ls.Failed, len(ls.latencies()))
	}
	if len(ls.BySpec[1]) != 0 || len(ls.BySpec[0]) == 0 {
		t.Errorf("per-spec samples %d/%d/%d: failures must not yield latency samples", len(ls.BySpec[0]), len(ls.BySpec[1]), len(ls.BySpec[2]))
	}
	if ls.Rate <= 0 || ls.FirstErr == nil {
		t.Errorf("rate %g, first error %v", ls.Rate, ls.FirstErr)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	r := &recorder{}
	root := r.add(1, "core.run_ops", -1, 0, 100, nil)
	r.add(1, "core.shard_run.0", root, 0, 60, nil)  // lanes run side by side
	r.add(1, "core.shard_run.1", root, 0, 40, nil)  // fully inside lane 0
	r.add(1, "analytics.merge", root, 60, 30, nil)  // after the slowest lane
	r.add(1, "late", root, 95, 20, nil)             // sticks out of the parent
	other := r.add(2, "request", -1, 1000, 50, nil) // another request
	r.add(2, "server.parse", other, 1000, 10, nil)
	r.add(2, "server.handler", other, 1005, 10, nil) // overlaps parse by 5

	self := selfTimes(r.spans)
	want := []int64{
		100 - 60 - 30 - 5, // union of [0,60] [0,40] [60,90] [95,100]
		60, 40, 30, 20,
		50 - 15, // union of [1000,1010] and [1005,1015]
		10, 10,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if (*recorder)(nil).add(1, "x", -1, 0, 1, nil) != -1 {
		t.Error("a nil recorder must record nothing")
	}
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := makeStream(42, 7, 700), makeStream(42, 7, 700), makeStream(43, 7, 700)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different request streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same request stream")
	}
	for cycle := 0; cycle+7 <= len(a); cycle += 7 {
		got := append([]int(nil), a[cycle:cycle+7]...)
		sort.Ints(got)
		if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5, 6}) {
			t.Fatalf("cycle at %d is not a permutation of the mix: %v", cycle, a[cycle:cycle+7])
		}
	}
}

func TestCorpusIsAFunctionOfTheSeedAndKeepsItsSize(t *testing.T) {
	spec := datagen.DatasetD.Scaled(0.05)
	a, b, c := makeCorpus(spec, 3), makeCorpus(spec, 3), makeCorpus(spec, 4)
	if !reflect.DeepEqual(a.Files, b.Files) || !reflect.DeepEqual(a.Words, b.Words) {
		t.Error("same seed gave different corpora")
	}
	if reflect.DeepEqual(a.Files, c.Files) {
		t.Error("different seeds gave the same corpus")
	}
	for _, corp := range []*corpus{a, c, makeCorpus(datagen.DatasetA.Scaled(0.05), 9)} {
		if got, want := corp.tokens(0, len(corp.Files)), corp.Spec.TotalTokens(); got != want {
			t.Errorf("dataset %s: %d tokens, want exactly %d", corp.Spec.Name, got, want)
		}
	}
	// Rendering a document and tokenizing it again must give its tokens back.
	d := a.dictionary()
	for j, w := range strings.Fields(a.text(0)) {
		if id := d.Intern(w); id != a.Files[0][j] {
			t.Fatalf("token %d of document 0 renders to %q (id %d), want id %d", j, w, id, a.Files[0][j])
		}
	}
}

func TestEnvelopeCuts(t *testing.T) {
	body := []byte(`{"generation":"0a1b2c3d.0.17","signature":"wordcount","cached":true,"result":{"wordcount":{"a":1}}}` + "\n")
	res, err := envelopeResult(body)
	if err != nil || string(res) != `{"wordcount":{"a":1}}` {
		t.Errorf("envelopeResult = %q, %v", res, err)
	}
	epoch, err := envelopeEpoch(body)
	if err != nil || epoch != 17 {
		t.Errorf("envelopeEpoch = %d, %v, want 17", epoch, err)
	}
	for _, bad := range []string{``, `{"generation":"x"}`, `{"result":1}`} {
		if _, err := envelopeResult([]byte(bad)); err == nil {
			t.Errorf("envelopeResult(%q) accepted a malformed envelope", bad)
		}
	}
	if _, err := envelopeEpoch([]byte(`{"generation":"abc"}`)); err == nil {
		t.Error("envelopeEpoch accepted a generation without an epoch")
	}
}

// BENCHMARK.json is the contract other changes are judged by; it must name
// exactly the metrics and workloads this program reports.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("per-layer %s: duplicate or over-long name or unit", m.Name)
		}
		seen[m.Name] = true
	}
}

// The smoke run: all four workloads at 5% scale against the real daemon,
// with the same verification as a full run.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs ntadocd")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-seed", "5"}, &stdout, &stderr); code != 0 {
		t.Fatalf("bench -quick exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	for _, w := range workloads {
		if !strings.Contains(stdout.String(), "== "+w.Name+" ") {
			t.Errorf("no report for %s", w.Name)
		}
	}
	if n := strings.Count(stdout.String(), "NOT COMPARABLE"); n != len(workloads) {
		t.Errorf("%d of %d reports marked not comparable", n, len(workloads))
	}
	if strings.Contains(stdout.String(), "correct false") {
		t.Errorf("a workload failed verification:\n%s", stdout.String())
	}
}
