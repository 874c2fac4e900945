package datagen

import (
	"fmt"
	"math/rand"

	"mtmlf/internal/sqldb"
)

// SyntheticIMDB builds a 21-table database mirroring the IMDB schema
// used by the JOB benchmark (Leis et al.): the same table names, the
// same star-around-title/name join topology, Zipf-skewed and
// correlated attributes, and string columns for LIKE predicates. The
// scale parameter multiplies all row counts (scale 1 ≈ 3K-row title
// table, far below real IMDB, so exact labels remain computable).
func SyntheticIMDB(seed int64, scale float64) *sqldb.DB {
	rng := rand.New(rand.NewSource(seed))
	db := sqldb.NewDB("imdb")
	sz := func(base int) int {
		n := int(float64(base) * scale)
		if n < 20 {
			n = 20
		}
		return n
	}

	// Small "type" dimension tables.
	typeTables := []struct {
		name string
		vals []string
	}{
		{"kind_type", []string{"movie", "tv series", "video game", "episode", "video movie", "tv movie", "short"}},
		{"info_type", []string{"genres", "rating", "budget", "runtime", "country", "language", "votes", "gross"}},
		{"company_type", []string{"production companies", "distributors", "special effects", "misc"}},
		{"link_type", []string{"follows", "followed by", "remake of", "spin off", "version of"}},
		{"role_type", []string{"actor", "actress", "producer", "writer", "director", "editor", "composer"}},
		{"comp_cast_type", []string{"cast", "crew", "complete", "complete+verified"}},
	}
	for _, tt := range typeTables {
		ids := make([]int64, len(tt.vals))
		for i := range ids {
			ids[i] = int64(i)
		}
		db.MustAddTable(sqldb.MustNewTable(tt.name,
			sqldb.IntColumn("id", ids),
			sqldb.StringColumn("kind", tt.vals),
		))
	}

	// title: the central fact table. production_year and kind_id are
	// correlated with the row id: because bridge-table FKs are
	// Zipf-skewed toward low title ids, a filter on production_year
	// selects titles with systematically different join fan-out —
	// exactly the attribute/join-key correlation of real IMDB that
	// breaks the independence assumption (Leis et al.).
	nTitle := sz(3000)
	titleIDs := seqIDs(nTitle)
	prodYear := idCorrelated(rng, nTitle, 1880, 140, 8)
	kindIDs := idCorrelated(rng, nTitle, 0, len(typeTables[0].vals), 1)
	titles := movieTitles(rng, nTitle)
	db.MustAddTable(sqldb.MustNewTable("title",
		sqldb.IntColumn("id", titleIDs),
		sqldb.StringColumn("title", titles),
		sqldb.IntColumn("kind_id", kindIDs),
		sqldb.IntColumn("production_year", prodYear),
	))
	db.MustAddEdge(sqldb.JoinEdge{T1: "kind_type", C1: "id", T2: "title", C2: "kind_id"})

	// name: the people fact table.
	nName := sz(4000)
	db.MustAddTable(sqldb.MustNewTable("name",
		sqldb.IntColumn("id", seqIDs(nName)),
		sqldb.StringColumn("name", personNames(rng, nName)),
		sqldb.IntColumn("gender", zipfColumn(rng, nName, 3, 1.2)),
	))

	// company_name / keyword / char_name dimensions.
	nComp := sz(400)
	db.MustAddTable(sqldb.MustNewTable("company_name",
		sqldb.IntColumn("id", seqIDs(nComp)),
		sqldb.StringColumn("name", companyNames(rng, nComp)),
		sqldb.StringColumn("country_code", countryCodes(rng, nComp)),
	))
	nKw := sz(600)
	db.MustAddTable(sqldb.MustNewTable("keyword",
		sqldb.IntColumn("id", seqIDs(nKw)),
		sqldb.StringColumn("keyword", keywords(rng, nKw)),
	))
	nChar := sz(1500)
	db.MustAddTable(sqldb.MustNewTable("char_name",
		sqldb.IntColumn("id", seqIDs(nChar)),
		sqldb.StringColumn("name", personNames(rng, nChar)),
	))
	db.MustAddTable(sqldb.MustNewTable("aka_name",
		sqldb.IntColumn("id", seqIDs(sz(800))),
		sqldb.IntColumn("person_id", fkInto(rng, sz(800), nName, 1.3)),
		sqldb.StringColumn("name", personNames(rng, sz(800))),
	))
	db.MustAddEdge(sqldb.JoinEdge{T1: "name", C1: "id", T2: "aka_name", C2: "person_id"})
	db.MustAddTable(sqldb.MustNewTable("aka_title",
		sqldb.IntColumn("id", seqIDs(sz(500))),
		sqldb.IntColumn("movie_id", fkInto(rng, sz(500), nTitle, 1.3)),
		sqldb.StringColumn("title", movieTitles(rng, sz(500))),
	))
	db.MustAddEdge(sqldb.JoinEdge{T1: "title", C1: "id", T2: "aka_title", C2: "movie_id"})

	// Bridge/fact tables around title.
	addBridge := func(name string, rows int, cols ...*sqldb.Column) {
		base := []*sqldb.Column{sqldb.IntColumn("id", seqIDs(rows))}
		base = append(base, cols...)
		db.MustAddTable(sqldb.MustNewTable(name, base...))
	}

	nCI := sz(9000)
	ciMovie := fkInto(rng, nCI, nTitle, 1.6)
	ciPerson := fkInto(rng, nCI, nName, 1.5)
	addBridge("cast_info", nCI,
		sqldb.IntColumn("movie_id", ciMovie),
		sqldb.IntColumn("person_id", ciPerson),
		sqldb.IntColumn("person_role_id", fkInto(rng, nCI, nChar, 1.3)),
		sqldb.IntColumn("role_id", zipfColumn(rng, nCI, 7, 1.3)),
		// nr_order is derived from the movie FK, so filters on it are
		// correlated with which titles the row joins to.
		sqldb.IntColumn("nr_order", deriveFromFK(rng, ciMovie, 20, 3)),
	)
	db.MustAddEdge(sqldb.JoinEdge{T1: "title", C1: "id", T2: "cast_info", C2: "movie_id"})
	db.MustAddEdge(sqldb.JoinEdge{T1: "name", C1: "id", T2: "cast_info", C2: "person_id"})
	db.MustAddEdge(sqldb.JoinEdge{T1: "char_name", C1: "id", T2: "cast_info", C2: "person_role_id"})
	db.MustAddEdge(sqldb.JoinEdge{T1: "role_type", C1: "id", T2: "cast_info", C2: "role_id"})

	nMI := sz(7000)
	miMovie := fkInto(rng, nMI, nTitle, 1.55)
	miType := zipfColumn(rng, nMI, 8, 1.3)
	addBridge("movie_info", nMI,
		sqldb.IntColumn("movie_id", miMovie),
		sqldb.IntColumn("info_type_id", miType),
		// The info text correlates with both the info type and the
		// movie FK, so LIKE filters carry join-key information.
		sqldb.StringColumn("info", correlatedKeywords(rng, miMovie, miType)),
	)
	db.MustAddEdge(sqldb.JoinEdge{T1: "title", C1: "id", T2: "movie_info", C2: "movie_id"})
	db.MustAddEdge(sqldb.JoinEdge{T1: "info_type", C1: "id", T2: "movie_info", C2: "info_type_id"})

	nMII := sz(2500)
	miiMovie := fkIntoRev(rng, nMII, nTitle, 1.6)
	addBridge("movie_info_idx", nMII,
		sqldb.IntColumn("movie_id", miiMovie),
		sqldb.IntColumn("info_type_id", zipfColumn(rng, nMII, 8, 1.4)),
		sqldb.IntColumn("info", deriveFromFK(rng, miiMovie, 10, 2)),
	)
	db.MustAddEdge(sqldb.JoinEdge{T1: "title", C1: "id", T2: "movie_info_idx", C2: "movie_id"})
	db.MustAddEdge(sqldb.JoinEdge{T1: "info_type", C1: "id", T2: "movie_info_idx", C2: "info_type_id"})

	nMC := sz(4000)
	addBridge("movie_companies", nMC,
		sqldb.IntColumn("movie_id", fkIntoRev(rng, nMC, nTitle, 1.6)),
		sqldb.IntColumn("company_id", fkInto(rng, nMC, nComp, 1.3)),
		sqldb.IntColumn("company_type_id", zipfColumn(rng, nMC, 4, 1.5)),
	)
	db.MustAddEdge(sqldb.JoinEdge{T1: "title", C1: "id", T2: "movie_companies", C2: "movie_id"})
	db.MustAddEdge(sqldb.JoinEdge{T1: "company_name", C1: "id", T2: "movie_companies", C2: "company_id"})
	db.MustAddEdge(sqldb.JoinEdge{T1: "company_type", C1: "id", T2: "movie_companies", C2: "company_type_id"})

	nMK := sz(5000)
	addBridge("movie_keyword", nMK,
		sqldb.IntColumn("movie_id", fkIntoRev(rng, nMK, nTitle, 1.6)),
		sqldb.IntColumn("keyword_id", fkInto(rng, nMK, nKw, 1.6)),
	)
	db.MustAddEdge(sqldb.JoinEdge{T1: "title", C1: "id", T2: "movie_keyword", C2: "movie_id"})
	db.MustAddEdge(sqldb.JoinEdge{T1: "keyword", C1: "id", T2: "movie_keyword", C2: "keyword_id"})

	nML := sz(600)
	addBridge("movie_link", nML,
		sqldb.IntColumn("movie_id", fkInto(rng, nML, nTitle, 1.3)),
		sqldb.IntColumn("linked_movie_id", fkInto(rng, nML, nTitle, 1.3)),
		sqldb.IntColumn("link_type_id", zipfColumn(rng, nML, 5, 1.3)),
	)
	db.MustAddEdge(sqldb.JoinEdge{T1: "title", C1: "id", T2: "movie_link", C2: "movie_id"})
	db.MustAddEdge(sqldb.JoinEdge{T1: "link_type", C1: "id", T2: "movie_link", C2: "link_type_id"})

	nPI := sz(3000)
	addBridge("person_info", nPI,
		sqldb.IntColumn("person_id", fkIntoRev(rng, nPI, nName, 1.5)),
		sqldb.IntColumn("info_type_id", zipfColumn(rng, nPI, 8, 1.3)),
		sqldb.StringColumn("info", keywords(rng, nPI)),
	)
	db.MustAddEdge(sqldb.JoinEdge{T1: "name", C1: "id", T2: "person_info", C2: "person_id"})
	db.MustAddEdge(sqldb.JoinEdge{T1: "info_type", C1: "id", T2: "person_info", C2: "info_type_id"})

	nCC := sz(800)
	addBridge("complete_cast", nCC,
		sqldb.IntColumn("movie_id", fkInto(rng, nCC, nTitle, 1.55)),
		sqldb.IntColumn("subject_id", zipfColumn(rng, nCC, 4, 1.3)),
		sqldb.IntColumn("status_id", zipfColumn(rng, nCC, 4, 1.5)),
	)
	db.MustAddEdge(sqldb.JoinEdge{T1: "title", C1: "id", T2: "complete_cast", C2: "movie_id"})
	db.MustAddEdge(sqldb.JoinEdge{T1: "comp_cast_type", C1: "id", T2: "complete_cast", C2: "subject_id"})

	db.FactTables = []string{"title", "name"}
	return db
}

func seqIDs(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// fkInto draws n skewed foreign keys into [0, domain). Unlike
// zipfColumn it does NOT shuffle value identities: the heavy mass
// stays on low ids, so attributes generated with idCorrelated are
// genuinely correlated with join fan-out (the hazard that defeats the
// independence assumption).
func fkInto(rng *rand.Rand, n, domain int, s float64) []int64 {
	z := rand.NewZipf(rng, s, 1, uint64(domain-1))
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(z.Uint64())
	}
	return out
}

// fkIntoRev is fkInto with the heavy mass on HIGH ids. Mixing forward
// and reverse skew across the bridge tables makes the independence
// assumption's bias direction differ per join, which is what causes a
// traditional optimizer to mis-order joins (not just mis-size them).
func fkIntoRev(rng *rand.Rand, n, domain int, s float64) []int64 {
	out := fkInto(rng, n, domain, s)
	for i := range out {
		out[i] = int64(domain-1) - out[i]
	}
	return out
}

func movieTitles(rng *rand.Rand, n int) []string {
	adjectives := []string{"Dark", "Lost", "Silent", "Golden", "Broken", "Final", "Hidden", "Eternal"}
	nouns := []string{"Empire", "River", "Night", "Crown", "Garden", "Signal", "Harbor", "Mirror"}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s %s %d", adjectives[rng.Intn(len(adjectives))], nouns[rng.Intn(len(nouns))], rng.Intn(100))
	}
	return out
}

func personNames(rng *rand.Rand, n int) []string {
	first := []string{"Avery", "Blake", "Casey", "Drew", "Ellis", "Frankie", "Gray", "Harper"}
	last := []string{"Adler", "Brooks", "Chen", "Diaz", "Evans", "Fischer", "Grant", "Hayes"}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s, %s", last[rng.Intn(len(last))], first[rng.Intn(len(first))])
	}
	return out
}

func companyNames(rng *rand.Rand, n int) []string {
	stems := []string{"Summit", "Apex", "Nova", "Orion", "Vertex", "Zenith", "Atlas", "Polaris"}
	suffix := []string{"Pictures", "Films", "Studios", "Media", "Entertainment"}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s %s", stems[rng.Intn(len(stems))], suffix[rng.Intn(len(suffix))])
	}
	return out
}

func countryCodes(rng *rand.Rand, n int) []string {
	codes := []string{"[us]", "[gb]", "[de]", "[fr]", "[jp]", "[in]", "[cn]", "[it]"}
	z := rand.NewZipf(rng, 1.4, 1, uint64(len(codes)-1))
	out := make([]string, n)
	for i := range out {
		out[i] = codes[int(z.Uint64())]
	}
	return out
}

func keywords(rng *rand.Rand, n int) []string {
	z := rand.NewZipf(rng, 1.25, 1, uint64(len(words)-1))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%s", words[int(z.Uint64())], words[rng.Intn(len(words))])
	}
	return out
}

// idCorrelated produces values that grow with the row id plus bounded
// noise, staying within [base, base+width). Combined with Zipf-skewed
// FKs (which favor low ids), range filters over these columns are
// strongly correlated with join fan-out.
func idCorrelated(rng *rand.Rand, n, base, width, noise int) []int64 {
	out := make([]int64, n)
	for i := range out {
		v := i*width/n + rng.Intn(2*noise+1) - noise
		if v < 0 {
			v = 0
		}
		if v >= width {
			v = width - 1
		}
		out[i] = int64(base + v)
	}
	return out
}

// deriveFromFK produces an attribute column that is a noisy function
// of a foreign-key column, so filters on the attribute implicitly
// select join partners (the correlation that defeats the independence
// assumption).
func deriveFromFK(rng *rand.Rand, fk []int64, domain, noise int) []int64 {
	out := make([]int64, len(fk))
	for i, v := range fk {
		x := (int(v)*13 + rng.Intn(noise+1)) % domain
		out[i] = int64(x)
	}
	return out
}

// correlatedKeywords builds strings whose prefix word is a function of
// the movie FK and whose suffix follows the info type, so both LIKE
// prefix and infix patterns carry join information.
func correlatedKeywords(rng *rand.Rand, movieFK, infoType []int64) []string {
	out := make([]string, len(movieFK))
	for i := range out {
		w1 := words[(int(movieFK[i])*7+rng.Intn(2))%len(words)]
		w2 := words[(int(infoType[i])*3+rng.Intn(2))%len(words)]
		out[i] = fmt.Sprintf("%s-%s", w1, w2)
	}
	return out
}
