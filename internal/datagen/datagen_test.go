package datagen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"mtmlf/internal/sqldb"
	"mtmlf/internal/tensor"
)

func TestGenerateDBStructure(t *testing.T) {
	cfg := DefaultConfig()
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := GenerateDB(rng, "d", cfg)
		n := len(db.Tables)
		if n < cfg.MinTables || n > cfg.MaxTables {
			t.Fatalf("seed %d: %d tables outside [%d, %d]", seed, n, cfg.MinTables, cfg.MaxTables)
		}
		nf := len(db.FactTables)
		if nf < cfg.MinFacts || nf > cfg.MaxFacts {
			t.Fatalf("seed %d: %d fact tables", seed, nf)
		}
		for _, tab := range db.Tables {
			if tab.NumRows() < cfg.MinRows || tab.NumRows() > cfg.MaxRows {
				t.Fatalf("seed %d: table %s has %d rows", seed, tab.Name, tab.NumRows())
			}
			if tab.Column("id") == nil {
				t.Fatalf("seed %d: table %s missing PK", seed, tab.Name)
			}
		}
	}
}

func TestGenerateDBJoinGraphConnected(t *testing.T) {
	cfg := DefaultConfig()
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := GenerateDB(rng, "d", cfg)
		q := &sqldb.Query{Tables: db.TableNames(), Joins: db.Edges}
		if !q.IsConnected() {
			t.Fatalf("seed %d: join graph disconnected", seed)
		}
	}
}

func TestGenerateDBEdgesArePKFK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := GenerateDB(rng, "d", DefaultConfig())
	for _, e := range db.Edges {
		// Left side must be a PK (id) and right side an FK referencing it.
		if e.C1 != "id" {
			t.Fatalf("edge %v left side not a PK", e)
		}
		fkCol := db.Table(e.T2).Column(e.C2)
		pkRows := int64(db.Table(e.T1).NumRows())
		for _, v := range fkCol.Ints {
			if v < 0 || v >= pkRows {
				t.Fatalf("edge %v: FK value %d outside PK domain [0,%d)", e, v, pkRows)
			}
		}
	}
}

func TestGenerateDBDimensionEdgesTargetFacts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := GenerateDB(rng, "d", DefaultConfig())
	facts := map[string]bool{}
	for _, f := range db.FactTables {
		facts[f] = true
	}
	for _, e := range db.Edges {
		if !facts[e.T1] {
			t.Fatalf("edge %v references non-fact PK side (paper S1: dimensions join facts)", e)
		}
	}
}

func TestZipfColumnSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := zipfColumn(rng, 10000, 50, 1.8)
	counts := map[int64]int{}
	for _, v := range vals {
		if v < 0 || v >= 50 {
			t.Fatalf("value %d out of domain", v)
		}
		counts[v]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Strong skew: the heaviest value should dominate a uniform share.
	if max < 3*(10000/50) {
		t.Fatalf("zipf column not skewed: max count %d", max)
	}
}

func TestCorrelatedColumnTracksBase(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base := zipfColumn(rng, 5000, 20, 1.5)
	derived := correlatedColumn(rng, base, 30)
	// Same base value should map to a small set of derived values.
	seen := map[int64]map[int64]bool{}
	for i, b := range base {
		if seen[b] == nil {
			seen[b] = map[int64]bool{}
		}
		seen[b][derived[i]] = true
	}
	for b, ds := range seen {
		if len(ds) > 4 {
			t.Fatalf("base value %d maps to %d derived values; correlation too weak", b, len(ds))
		}
	}
}

func TestGenerateFleetDistinct(t *testing.T) {
	fleet := GenerateFleet(1, 3, DefaultConfig())
	if len(fleet) != 3 {
		t.Fatal("fleet size wrong")
	}
	if fleet[0].Name == fleet[1].Name {
		t.Fatal("fleet DBs must have distinct names")
	}
	// Different seeds should produce structurally different DBs at
	// least sometimes; compare total row counts.
	total := func(db *sqldb.DB) int {
		s := 0
		for _, t := range db.Tables {
			s += t.NumRows()
		}
		return s
	}
	if total(fleet[0]) == total(fleet[1]) && len(fleet[0].Tables) == len(fleet[1].Tables) &&
		total(fleet[1]) == total(fleet[2]) && len(fleet[1].Tables) == len(fleet[2].Tables) {
		t.Fatal("fleet databases suspiciously identical")
	}
}

func TestSyntheticIMDBShape(t *testing.T) {
	db := SyntheticIMDB(1, 0.2)
	if got := len(db.Tables); got != 21 {
		t.Fatalf("synthetic IMDB has %d tables, want 21 (paper)", got)
	}
	for _, name := range []string{"title", "name", "cast_info", "movie_info", "movie_keyword", "company_name"} {
		if db.Table(name) == nil {
			t.Fatalf("missing IMDB table %q", name)
		}
	}
	q := &sqldb.Query{Tables: db.TableNames(), Joins: db.Edges}
	if !q.IsConnected() {
		t.Fatal("IMDB join graph disconnected")
	}
	// FK domains valid.
	for _, e := range db.Edges {
		pkRows := int64(db.Table(e.T1).NumRows())
		fkCol := db.Table(e.T2).Column(e.C2)
		for _, v := range fkCol.Ints {
			if v < 0 || v >= pkRows {
				t.Fatalf("edge %v FK out of domain", e)
			}
		}
	}
	// String columns exist for LIKE predicates.
	if db.Table("title").Column("title").Kind != sqldb.KindString {
		t.Fatal("title.title must be a string column")
	}
}

func TestSyntheticIMDBScales(t *testing.T) {
	small := SyntheticIMDB(1, 0.1)
	big := SyntheticIMDB(1, 0.5)
	if small.Table("cast_info").NumRows() >= big.Table("cast_info").NumRows() {
		t.Fatal("scale must grow row counts")
	}
}

func TestSyntheticIMDBDeterministic(t *testing.T) {
	a := SyntheticIMDB(42, 0.1)
	b := SyntheticIMDB(42, 0.1)
	ta, tb := a.Table("title"), b.Table("title")
	for i := 0; i < ta.NumRows(); i++ {
		if ta.Column("title").Strs[i] != tb.Column("title").Strs[i] {
			t.Fatal("same seed must reproduce identical data")
		}
	}
}

// TestGenerateFleetParallelismInvariant checks the concurrently
// generated fleet is identical at every worker-pool size: each DB
// draws from its own seed-derived rng, so scheduling cannot leak in.
func TestGenerateFleetParallelismInvariant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinTables, cfg.MaxTables = 4, 5
	cfg.MinRows, cfg.MaxRows = 50, 120
	prev := tensor.SetParallelism(1)
	serial := GenerateFleet(9, 3, cfg)
	tensor.SetParallelism(8)
	par := GenerateFleet(9, 3, cfg)
	tensor.SetParallelism(prev)
	for i := range serial {
		a, b := serial[i], par[i]
		if a.Name != b.Name || len(a.Tables) != len(b.Tables) {
			t.Fatalf("fleet DB %d differs structurally", i)
		}
		for ti, at := range a.Tables {
			bt := b.Tables[ti]
			if at.Name != bt.Name || at.NumRows() != bt.NumRows() {
				t.Fatalf("DB %d table %d differs", i, ti)
			}
			for ci, ac := range at.Columns {
				bc := bt.Columns[ci]
				for r := 0; r < at.NumRows(); r++ {
					switch ac.Kind {
					case sqldb.KindInt:
						if ac.Ints[r] != bc.Ints[r] {
							t.Fatalf("DB %d %s.%s row %d differs", i, at.Name, ac.Name, r)
						}
					case sqldb.KindString:
						if ac.Strs[r] != bc.Strs[r] {
							t.Fatalf("DB %d %s.%s row %d differs", i, at.Name, ac.Name, r)
						}
					}
				}
			}
		}
	}
}

// TestWeightedColumnProperties: the WeightedFrac knob produces
// in-domain values concentrated on a small support set.
func TestWeightedColumnProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vals := weightedColumn(rng, 2000, 40)
	seen := map[int64]int{}
	for _, v := range vals {
		if v < 0 || v >= 40 {
			t.Fatalf("value %d outside domain [0, 40)", v)
		}
		seen[v]++
	}
	if len(seen) > 7 {
		t.Fatalf("weighted column has %d distinct values, want a small support (<= 7)", len(seen))
	}
}

// TestS2KnobsDefaultsUnchanged: with the new knobs at their zero
// defaults, generation must consume the exact rng stream the
// pre-knob pipeline did, so every existing seed reproduces its old
// database. The golden fingerprint below was computed by running the
// same hash over GenerateDB(seed 12, DefaultConfig()) at the commit
// BEFORE the knobs existed; any accidental extra rng draw on the
// default path changes it.
func TestS2KnobsDefaultsUnchanged(t *testing.T) {
	if cfg := DefaultConfig(); cfg.WeightedFrac != 0 || cfg.GroupCorrFrac != 0 {
		t.Fatalf("default knobs must be zero, got %+v", cfg)
	}
	const golden = uint64(0xdad4bf7cab01e892)
	h := fnv.New64a()
	db := GenerateDB(rand.New(rand.NewSource(12)), "d", DefaultConfig())
	for _, tab := range db.Tables {
		fmt.Fprintf(h, "%s/%d", tab.Name, tab.NumRows())
		for _, c := range tab.Columns {
			fmt.Fprintf(h, "|%s:%v", c.Name, c.Kind)
			for i := 0; i < c.Len(); i++ {
				fmt.Fprintf(h, ",%v", c.Value(i))
			}
		}
	}
	for _, e := range db.Edges {
		fmt.Fprintf(h, ";%v", e)
	}
	if got := h.Sum64(); got != golden {
		t.Fatalf("default-config generation drifted from the pre-knob pipeline: fingerprint %#x, want %#x", got, golden)
	}
}

// TestS2KnobsDeterministicAndValid: with the knobs enabled the
// pipeline stays deterministic and structurally valid.
func TestS2KnobsDeterministicAndValid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WeightedFrac = 0.5
	cfg.GroupCorrFrac = 0.7
	a := GenerateDB(rand.New(rand.NewSource(3)), "d", cfg)
	b := GenerateDB(rand.New(rand.NewSource(3)), "d", cfg)
	if len(a.Tables) != len(b.Tables) {
		t.Fatal("knob-enabled generation not deterministic")
	}
	for ti, at := range a.Tables {
		bt := b.Tables[ti]
		for ci, ac := range at.Columns {
			bc := bt.Columns[ci]
			if ac.Len() != bc.Len() {
				t.Fatalf("%s.%s lengths differ", at.Name, ac.Name)
			}
			for r := 0; r < ac.Len(); r++ {
				if ac.Value(r) != bc.Value(r) {
					t.Fatalf("%s.%s row %d not deterministic", at.Name, ac.Name, r)
				}
			}
		}
	}
	q := &sqldb.Query{Tables: a.TableNames(), Joins: a.Edges}
	if !q.IsConnected() {
		t.Fatal("knob-enabled join graph disconnected")
	}
}
