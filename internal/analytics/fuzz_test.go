package analytics

import (
	"reflect"
	"testing"

	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/metrics"
)

// FuzzMergePostingRuns decodes a small corpus and a unit layout of the
// engines' shape — contiguous bases over a prefix, then units holding
// increasing document maps over the rest — and merges both posting-list
// ops' unit results.  Cut into P ∈ {1..4} parts, the merge must equal the
// reference merge, whose lists are concatenated and re-sorted, and the
// parts' charges must sum to the reference's.
func FuzzMergePostingRuns(f *testing.F) {
	// Units, bases, documents (a length, then word ids), the base documents
	// when some unit is mapped, then each later document's mapped unit.
	file := func(words ...byte) []byte { return append([]byte{byte(len(words))}, words...) }
	seed := func(head []byte, docs [][]byte, tail ...byte) []byte {
		for _, d := range docs {
			head = append(head, d...)
		}
		return append(head, tail...)
	}
	x1, x2, x3 := file(0, 1, 2), file(0, 1, 2, 0, 1, 2), file(0, 1, 2, 0, 1, 2, 0, 1, 2)
	// Two mapped units whose ranked runs interleave.
	f.Add(seed([]byte{1, 0, 6}, [][]byte{x1, x2, x1, x3, x2, x1}, 0, 1, 0, 1, 1, 0))
	// Two bases over four documents, two mapped units over six.
	f.Add(seed([]byte{3, 2, 10}, [][]byte{x2, x1, x3, x1, x1, x3, x2, file(3, 0, 1, 2), x1, x2}, 4, 0, 1, 1, 0, 1, 0))
	// Three contiguous bases, no map.
	f.Add(seed([]byte{2, 3, 5}, [][]byte{x3, x1, x2, file(1, 2, 0, 1), x1}))
	// Word ids interned out of wire order ("a" < "a b" < "ab" < "b").
	d := dict.New()
	for _, w := range []string{"ab", "a", "b", "a b"} {
		d.Intern(w)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		nunits := next()%6 + 1
		nbase := next() % (nunits + 1)
		files := make([][]uint32, next()%24)
		for i := range files {
			files[i] = make([]uint32, next()%12)
			for j := range files[i] {
				files[i][j] = uint32(next() % d.Len())
			}
		}
		layout := mergeLayout{units: make([][]uint32, nunits), mapped: make([]bool, nunits)}
		for u := nbase; u < nunits; u++ {
			layout.mapped[u] = true
		}
		baseDocs := len(files)
		if nbase < nunits {
			baseDocs = 0
			if nbase > 0 {
				baseDocs = next() % (len(files) + 1)
			}
		}
		for doc := range files {
			u := doc * nbase / max(baseDocs, 1)
			if doc >= baseDocs {
				u = nbase + next()%(nunits-nbase)
			}
			layout.units[u] = append(layout.units[u], uint32(doc))
		}

		for _, op := range []Op{InvertedIndexOp{}, RankedInvertedIndexOp{}} {
			units := layoutUnits(t, op, files, d, layout)
			refUnits := make([]MergeUnit, len(units))
			for u, docs := range layout.units {
				unitFiles := make([][]uint32, len(docs))
				for i, doc := range docs {
					unitFiles[i] = files[doc]
				}
				refUnits[u] = units[u]
				refUnits[u].Result = shardRefResult(t, op, unitFiles, d)
			}
			var refMeter metrics.Meter
			want := wireForm(op, refMergeUnits(op, d, len(files), refUnits, &refMeter), d)
			for parts := 1; parts <= 4; parts++ {
				j, err := PlanMerge(op, mergeEnv{d: d, numFiles: len(files), meter: new(metrics.Meter)}, units, parts)
				if err != nil {
					t.Fatalf("%s parts=%d: PlanMerge: %v", op.Name(), parts, err)
				}
				var charged int64
				for p := 0; p < j.Parts(); p++ {
					var meter metrics.Meter
					if err := j.Run(p, mergeEnv{d: d, numFiles: len(files), meter: &meter}); err != nil {
						t.Fatalf("%s parts=%d: part %d: %v", op.Name(), parts, p, err)
					}
					charged += meter.Nanos()
				}
				if got := j.Finish(mergeEnv{d: d, numFiles: len(files), meter: new(metrics.Meter)}); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s parts=%d: merged %v, reference %v", op.Name(), parts, got, want)
				}
				if charged != refMeter.Nanos() {
					t.Fatalf("%s parts=%d: parts charged %d modeled ns, reference %d", op.Name(), parts, charged, refMeter.Nanos())
				}
			}
		}
	})
}
