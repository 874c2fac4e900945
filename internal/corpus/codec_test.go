package corpus

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"mtmlf/internal/plan"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/workload"
)

// filler sets every exported field of a value to something non-zero:
// strings and integers distinct (negative and wide ones included),
// floats cycling through the bit patterns a codec most easily loses,
// pointers allocated, slices sliceLen long (nil when it is negative).
type filler struct {
	n        int
	sliceLen int
}

var specialFloats = []float64{
	math.Float64frombits(0x7ff8_0000_0000_0123), // NaN with a payload
	math.Copysign(0, -1),
	math.Inf(1),
	math.Inf(-1),
	-1.0 / 3,
}

func (f *filler) fill(t *testing.T, v reflect.Value, depth int) {
	f.n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", f.n))
	case reflect.Int, reflect.Int64:
		if f.n%2 == 0 {
			v.SetInt(-int64(f.n))
		} else {
			v.SetInt(int64(f.n) << 40)
		}
	case reflect.Uint32:
		v.SetUint(uint64(uint32(f.n) * 0x9e3779b9))
	case reflect.Float64:
		v.SetFloat(specialFloats[f.n%len(specialFloats)])
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		if f.sliceLen >= 0 {
			s := reflect.MakeSlice(v.Type(), f.sliceLen, f.sliceLen)
			for i := range f.sliceLen {
				f.fill(t, s.Index(i), depth)
			}
			v.Set(s)
		}
	case reflect.Pointer:
		if depth < 3 { // plan.Node points to itself
			p := reflect.New(v.Type().Elem())
			f.fill(t, p.Elem(), depth+1)
			v.Set(p)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				f.fill(t, v.Field(i), depth)
			}
		}
	default:
		t.Fatalf("filler: no value for a %v field", v.Type())
	}
}

// diff returns the path of the first exported field where a and b
// differ, comparing floats bitwise and nil against empty, or "".
func diff(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return path
		}
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return path
		}
		for i := range a.Len() {
			if d := diff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Pointer:
		if a.IsNil() != b.IsNil() {
			return path
		}
		if !a.IsNil() {
			return diff(a.Elem(), b.Elem(), path)
		}
	case reflect.Struct:
		for i := range a.NumField() {
			if f := a.Type().Field(i); f.IsExported() {
				if d := diff(a.Field(i), b.Field(i), path+"."+f.Name); d != "" {
					return d
				}
			}
		}
	default:
		if !a.Equal(b) {
			return path
		}
	}
	return ""
}

// codec is one record type's encoder and decoder.
type codec[T any] struct {
	enc func([]byte, *T) []byte
	dec func([]byte) (T, error)
}

func checkCodec[T any](t *testing.T, c codec[T]) {
	t.Helper()
	name := reflect.TypeFor[T]().String()
	roundTrip := func(v T) T {
		t.Helper()
		got, err := c.dec(c.enc(nil, &v))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return got
	}
	filled := func(sliceLen int) T {
		var v T
		(&filler{sliceLen: sliceLen}).fill(t, reflect.ValueOf(&v).Elem(), 0)
		return v
	}
	full := filled(2)
	if d := diff(reflect.ValueOf(full), reflect.ValueOf(roundTrip(full)), name); d != "" {
		t.Errorf("%s did not survive the round trip: the codec drops or alters it", d)
	}
	// Empty slices come back nil, and that is a fixed point:
	// decode(encode(decode(x))) == decode(x).
	once := roundTrip(filled(0))
	if d := diff(reflect.ValueOf(filled(-1)), reflect.ValueOf(once), name); d != "" {
		t.Errorf("%s: an empty slice did not come back nil", d)
	}
	if d := diff(reflect.ValueOf(once), reflect.ValueOf(roundTrip(once)), name); d != "" {
		t.Errorf("%s: a second round trip changed it", d)
	}
}

// TestRecordsCarryEveryField: a hand codec drops a struct field it was
// not taught about without any error, where gob carried it. Every
// exported field of every record type is set, NaN, −0 and ±Inf
// included, and must come back bit for bit.
func TestRecordsCarryEveryField(t *testing.T) {
	checkCodec(t, codec[Meta]{appendHeader, decodeHeader})
	checkCodec(t, codec[workload.LabeledQuery]{appendExample, func(b []byte) (lq workload.LabeledQuery, err error) {
		return lq, decodeExample(b, &lq)
	}})
	checkCodec(t, codec[[]workload.TableWorkload]{
		func(b []byte, ws *[]workload.TableWorkload) []byte { return appendSingleTable(b, *ws) },
		decodeSingleTable,
	})
	checkCodec(t, codec[dbRecord]{appendSchema, func(b []byte) (rec dbRecord, err error) {
		return rec, decodeSchema(b, &rec)
	}})
	checkCodec(t, codec[footer]{appendFooter, func(b []byte) (f footer, err error) {
		return f, decodeFooter(b, &f)
	}})
	// The schema records mirror sqldb's types field for field; toRecord
	// and fromRecord must learn any field those gain.
	for _, p := range [][2]reflect.Type{
		{reflect.TypeFor[dbRecord](), reflect.TypeFor[sqldb.DB]()},
		{reflect.TypeFor[tableRecord](), reflect.TypeFor[sqldb.Table]()},
		{reflect.TypeFor[columnRecord](), reflect.TypeFor[sqldb.Column]()},
	} {
		if a, b := exportedFields(p[0]), exportedFields(p[1]); a != b {
			t.Errorf("%v has %d exported fields, %v has %d", p[0], a, p[1], b)
		}
	}
}

// TestDenseRecordsDecode: the record codec's allocation budget (20
// bytes per record byte) must never refuse a record the writer wrote.
// The densest records are long runs of empty elements; one of each
// list type decodes.
func TestDenseRecordsDecode(t *testing.T) {
	const n = 1000
	chain := &plan.Node{}
	for range n - 1 {
		chain = &plan.Node{Left: chain, Right: &plan.Node{}}
	}
	for name, err := range map[string]error{
		"tables":  decodeSchema(appendSchema(nil, &dbRecord{Tables: make([]tableRecord, n)}), new(dbRecord)),
		"columns": decodeSchema(appendSchema(nil, &dbRecord{Tables: []tableRecord{{Cols: make([]columnRecord, n)}}}), new(dbRecord)),
		"edges and strings": decodeSchema(appendSchema(nil, &dbRecord{Edges: make([]sqldb.JoinEdge, n), FactTables: make([]string, n),
			Tables: []tableRecord{{Cols: []columnRecord{{Strs: make([]string, n)}, {Ints: make([]int64, n)}}}}}), new(dbRecord)),
		"workloads": func() error {
			_, err := decodeSingleTable(appendSingleTable(nil, make([]workload.TableWorkload, n)))
			return err
		}(),
		"plan and lists": decodeExample(appendExample(nil, &workload.LabeledQuery{Plan: chain,
			Q: &sqldb.Query{Tables: make([]string, n), Joins: make([]sqldb.JoinEdge, n)}, OptimalOrder: make([]string, n)}),
			new(workload.LabeledQuery)),
	} {
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func exportedFields(t reflect.Type) int {
	n := 0
	for i := range t.NumField() {
		if t.Field(i).IsExported() {
			n++
		}
	}
	return n
}

// TestWarmExampleAllocCeiling pins how often ExampleSet.Example
// allocates: the section buffer, the example, its query, slices and
// strings, the plan's nodes in one block. The ceiling is the count when
// the test was written plus a small margin: lower it when an
// allocation goes, never raise it.
func TestWarmExampleAllocCeiling(t *testing.T) {
	const ceiling = 250 // allocations summed over the 20 examples below (240 when written)
	path, _ := testCorpus(t, 41, 1, 20)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ex, err := r.Examples(0)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for i := range ex.Len() {
		total += testing.AllocsPerRun(10, func() {
			if _, err := ex.Example(i); err != nil {
				t.Fatal(err)
			}
		})
	}
	if total > ceiling {
		t.Fatalf("20 Example reads allocate %v times, ceiling %d", total, ceiling)
	}
	t.Logf("20 Example reads allocate %v times (ceiling %d)", total, ceiling)
}
