// Package datagen implements the paper's Section 6.2 data generation
// pipeline — the artificial databases used to evaluate cross-DB
// transferability — and a synthetic 21-table IMDB stand-in for the
// JOB experiments of Section 6.1 (the real IMDB dataset is not
// available offline; see DESIGN.md substitutions).
//
// The pipeline follows the paper's three steps:
//
//	S1: generate a valid join schema (6–11 tables, 2–3 fact tables;
//	    every dimension table PK–FK joins one or two fact tables).
//	S2: generate attribute columns with varied skew (Zipf), varied
//	    cross-column correlation, and varied domain sizes (the paper's
//	    other option, bootstrapping from an existing table, is not
//	    implemented).
//	S3: generate join keys, with FK values correlated with the
//	    table's attribute columns.
//
// Row counts are scaled down from the paper's 50K–10M so that exact
// labels (true cardinalities, optimal join orders) stay computable in
// CPU seconds; every knob is on Config.
package datagen

import (
	"fmt"
	"math/rand"

	"mtmlf/internal/parallel"
	"mtmlf/internal/sqldb"
)

// Config controls the Section 6.2 pipeline.
type Config struct {
	// MinTables and MaxTables bound the table count (paper: 6–11).
	MinTables, MaxTables int
	// MinFacts and MaxFacts bound the fact-table count (paper: 2–3).
	MinFacts, MaxFacts int
	// MinRows and MaxRows bound per-table row counts (paper: 50K–10M,
	// scaled down by default).
	MinRows, MaxRows int
	// MinAttrs and MaxAttrs bound attribute-column counts (paper: 2–20).
	MinAttrs, MaxAttrs int
	// MaxDomain bounds attribute domain sizes.
	MaxDomain int
	// ZipfMin and ZipfMax bound the skew exponent of generated columns
	// (s parameter of the Zipf distribution; > 1).
	ZipfMin, ZipfMax float64
	// CorrelatedFrac is the fraction of attribute columns generated as
	// noisy functions of the table's first attribute column.
	CorrelatedFrac float64
	// StringColFrac is the fraction of attribute columns generated as
	// strings (to exercise LIKE predicates).
	StringColFrac float64
	// WeightedFrac is the fraction of otherwise-independent int
	// columns drawn from a small weighted value list — a handful of
	// support values with random weights, the lumpy distributions the
	// bulk-load generators (random-data-load, crdbload) produce from
	// user-supplied weighted lists, rather than a smooth parametric
	// Zipf. 0 (the default) disables, leaving generation byte-
	// identical to the pre-knob pipeline.
	WeightedFrac float64
	// GroupCorrFrac is the fraction of correlated columns derived from
	// a shared hidden category column instead of the first attribute —
	// producing a correlated column *group* (all members move with one
	// latent variable, pairwise-correlated with each other but not
	// with attr1). 0 (the default) disables, leaving generation byte-
	// identical to the pre-knob pipeline.
	GroupCorrFrac float64
}

// DefaultConfig returns laptop-scale settings faithful to the paper's
// ranges in structure.
func DefaultConfig() Config {
	return Config{
		MinTables: 6, MaxTables: 11,
		MinFacts: 2, MaxFacts: 3,
		MinRows: 200, MaxRows: 1500,
		MinAttrs: 2, MaxAttrs: 6,
		MaxDomain: 50,
		ZipfMin:   1.1, ZipfMax: 2.0,
		CorrelatedFrac: 0.4,
		StringColFrac:  0.25,
	}
}

// vocabulary for string columns; LIKE patterns are derived from these.
var words = []string{
	"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
	"hotel", "india", "juliet", "kilo", "lima", "mike", "november",
	"oscar", "papa", "quebec", "romeo", "sierra", "tango", "uniform",
	"victor", "whiskey", "xray", "yankee", "zulu",
}

// GenerateDB runs the full S1→S2→S3 pipeline and returns one database.
func GenerateDB(rng *rand.Rand, name string, cfg Config) *sqldb.DB {
	db := sqldb.NewDB(name)

	// --- S1: join schema ---------------------------------------------------
	n := cfg.MinTables + rng.Intn(cfg.MaxTables-cfg.MinTables+1)
	nFacts := cfg.MinFacts + rng.Intn(cfg.MaxFacts-cfg.MinFacts+1)
	if nFacts >= n {
		nFacts = n - 1
	}
	names := make([]string, n)
	for i := range names {
		if i < nFacts {
			names[i] = fmt.Sprintf("fact%d", i+1)
		} else {
			names[i] = fmt.Sprintf("dim%d", i-nFacts+1)
		}
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = cfg.MinRows + rng.Intn(cfg.MaxRows-cfg.MinRows+1)
	}
	// refTargets[i] lists the fact tables table i holds FKs to.
	refTargets := make([][]int, n)
	// Fact 2..k reference fact 1 (the paper's first join relation is
	// T1.PK with T2.FK).
	for f := 1; f < nFacts; f++ {
		refTargets[f] = []int{0}
	}
	// Each dimension references one or two fact tables.
	for d := nFacts; d < n; d++ {
		first := rng.Intn(nFacts)
		refTargets[d] = []int{first}
		if nFacts > 1 && rng.Float64() < 0.4 {
			second := rng.Intn(nFacts)
			if second != first {
				refTargets[d] = append(refTargets[d], second)
			}
		}
	}

	// --- S2 + S3: per-table contents --------------------------------------
	for i := 0; i < n; i++ {
		cols := []*sqldb.Column{}
		r := rows[i]
		// Primary key (S3).
		pk := make([]int64, r)
		for j := range pk {
			pk[j] = int64(j)
		}
		cols = append(cols, sqldb.IntColumn("id", pk))

		// Attribute columns (S2).
		nAttrs := cfg.MinAttrs + rng.Intn(cfg.MaxAttrs-cfg.MinAttrs+1)
		attrCols := generateAttributes(rng, r, nAttrs, cfg)
		cols = append(cols, attrCols...)

		// Foreign keys (S3), correlated with the first attribute.
		var anchor []int64
		for _, c := range attrCols {
			if c.Kind == sqldb.KindInt {
				anchor = c.Ints
				break
			}
		}
		for _, target := range refTargets[i] {
			fk := generateCorrelatedFK(rng, r, rows[target], anchor)
			cols = append(cols, sqldb.IntColumn(fmt.Sprintf("fk_%s", names[target]), fk))
		}
		db.MustAddTable(sqldb.MustNewTable(names[i], cols...))
	}
	for i := 0; i < n; i++ {
		for _, target := range refTargets[i] {
			db.MustAddEdge(sqldb.JoinEdge{
				T1: names[target], C1: "id",
				T2: names[i], C2: fmt.Sprintf("fk_%s", names[target]),
			})
		}
	}
	db.FactTables = append(db.FactTables, names[:nFacts]...)
	return db
}

// generateAttributes produces the S2 attribute columns: a mix of
// skewed independent columns, columns correlated with the first one
// (or, behind GroupCorrFrac, with a shared hidden category), weighted-
// list columns (behind WeightedFrac), and string columns.
//
// All new-knob rng draws are short-circuited behind the knob being
// non-zero, so DefaultConfig consumes the exact rng stream it always
// did and every pre-existing seed reproduces its old database.
func generateAttributes(rng *rand.Rand, rows, count int, cfg Config) []*sqldb.Column {
	cols := make([]*sqldb.Column, 0, count)
	var base []int64
	// group is the lazily generated hidden category column that
	// GroupCorrFrac members derive from; never stored as a column
	// itself (the correlation is latent, as in real data).
	var group []int64
	for a := 0; a < count; a++ {
		name := fmt.Sprintf("attr%d", a+1)
		if a > 0 && rng.Float64() < cfg.StringColFrac {
			cols = append(cols, sqldb.StringColumn(name, generateStrings(rng, rows, cfg)))
			continue
		}
		domain := 2 + rng.Intn(cfg.MaxDomain-1)
		var vals []int64
		switch {
		// float64(x) rounds where a port could fuse: rng.Float64 inlines
		// to a product by 2⁻⁶³.
		case a > 0 && base != nil && rng.Float64() < cfg.CorrelatedFrac:
			anchor := base
			if cfg.GroupCorrFrac > 0 && rng.Float64() < cfg.GroupCorrFrac {
				if group == nil {
					group = zipfColumn(rng, rows, 2+rng.Intn(6), 1.2+float64(rng.Float64()))
				}
				anchor = group
			}
			vals = correlatedColumn(rng, anchor, domain)
		case cfg.WeightedFrac > 0 && rng.Float64() < cfg.WeightedFrac:
			vals = weightedColumn(rng, rows, domain)
		default:
			vals = zipfColumn(rng, rows, domain, cfg.ZipfMin+float64(rng.Float64()*(cfg.ZipfMax-cfg.ZipfMin)))
		}
		if base == nil {
			base = vals
		}
		cols = append(cols, sqldb.IntColumn(name, vals))
	}
	return cols
}

// weightedColumn draws rows values from a small support set with
// random weights — the weighted-list heuristic of the bulk-load
// generators. Weights are squared uniforms, so most of the mass
// typically lands on one or two values with a ragged tail, a shape a
// parametric Zipf never produces.
func weightedColumn(rng *rand.Rand, rows, domain int) []int64 {
	m := 2 + rng.Intn(6)
	if m > domain {
		m = domain
	}
	support := rng.Perm(domain)[:m]
	cum := make([]float64, m)
	var total float64
	for i := range cum {
		u := rng.Float64()
		total += float64(u * u)
		cum[i] = total
	}
	vals := make([]int64, rows)
	for i := range vals {
		x := rng.Float64() * total
		k := 0
		for k < m-1 && x > cum[k] {
			k++
		}
		vals[i] = int64(support[k])
	}
	return vals
}

// zipfColumn draws rows values from a Zipf(s) distribution over
// [0, domain), then shuffles value identities so the heavy value is
// not always 0.
func zipfColumn(rng *rand.Rand, rows, domain int, s float64) []int64 {
	z := rand.NewZipf(rng, s, 1, uint64(domain-1))
	perm := rng.Perm(domain)
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(perm[int(z.Uint64())])
	}
	return vals
}

// correlatedColumn derives a column from base with an affine map plus
// bounded noise, producing strong but imperfect correlation — the
// hazard that breaks the independence assumption.
func correlatedColumn(rng *rand.Rand, base []int64, domain int) []int64 {
	k := 1 + rng.Intn(3)
	b := rng.Intn(domain)
	noise := 1 + rng.Intn(3)
	vals := make([]int64, len(base))
	for i, x := range base {
		v := (int(x)*k + b + rng.Intn(noise)) % domain
		vals[i] = int64(v)
	}
	return vals
}

// generateStrings produces a skewed string column of "word-digit"
// values so LIKE patterns with common prefixes have skewed matches.
func generateStrings(rng *rand.Rand, rows int, cfg Config) []string {
	z := rand.NewZipf(rng, 1.3, 1, uint64(len(words)-1))
	vals := make([]string, rows)
	for i := range vals {
		w := words[int(z.Uint64())]
		vals[i] = fmt.Sprintf("%s_%d", w, rng.Intn(8))
	}
	return vals
}

// generateCorrelatedFK produces FK values into [0, pkDomain) that are
// correlated with the anchor attribute column (S3: "the join keys are
// correlated with the attribute columns"). Each FK column flips a
// coin for its skew direction, so different joins bias a traditional
// estimator in different directions — the property that makes join
// ordering (not just sizing) go wrong under independence.
func generateCorrelatedFK(rng *rand.Rand, rows, pkDomain int, anchor []int64) []int64 {
	fk := make([]int64, rows)
	z := rand.NewZipf(rng, 1.5, 1, uint64(pkDomain-1))
	reverse := rng.Float64() < 0.5
	for i := range fk {
		var v int
		if anchor != nil && rng.Float64() < 0.4 {
			// Correlated fraction: a deterministic stripe per attribute value
			// plus small jitter.
			stripe := (int(anchor[i]) * 131) % pkDomain
			v = (stripe + rng.Intn(1+pkDomain/20)) % pkDomain
		} else {
			// Skewed half: some PKs are much more referenced.
			v = int(z.Uint64())
		}
		if reverse {
			v = pkDomain - 1 - v
		}
		fk[i] = int64(v)
	}
	return fk
}

// GenerateFleet produces n databases with distinct seeds, the input of
// the paper's Section 6.3 experiment ({D1, ..., D11}). Databases are
// generated concurrently on the worker pool; each draws from its own
// seed-derived rng, so the fleet is identical at any parallelism.
func GenerateFleet(seed int64, n int, cfg Config) []*sqldb.DB {
	out := make([]*sqldb.DB, n)
	parallel.For(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rng := rand.New(rand.NewSource(seed + int64(i)*7919))
			out[i] = GenerateDB(rng, fmt.Sprintf("D%d", i+1), cfg)
		}
	})
	return out
}
