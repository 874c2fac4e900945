// Package calib is the cross-tier calibration harness of the
// reduced-precision serving path (DESIGN.md §9).
//
// Within a precision tier the kernels guarantee bitwise equality
// between serial and sharded execution; *across* tiers correctness is
// calibration, not bitwise: a lowered replica must track the eps=0
// float64 reference within a per-tier relative-error budget. This
// package runs a deterministic query fleet through the reference
// model and each lowered replica and enforces:
//
//   - q-error budgets on the card and cost head root estimates
//     (max(got/ref, ref/got) per query, bounded per tier), and
//   - identical argmax join orders on every multi-join query — the
//     one output an optimizer cannot be "close" on.
//
// The fleet is seeded, so a tier that passes once passes forever on
// the same code: a calibration failure is a regression in the
// lowering pass or the kernels, never flake.
package calib

import (
	"fmt"
	"strings"

	"mtmlf/internal/datagen"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/nn"
	"mtmlf/internal/workload"
)

// Budget bounds one tier's allowed deviation from the f64 reference.
type Budget struct {
	// MaxCardQErr / MaxCostQErr bound the per-query root-estimate
	// q-error of the card and cost heads.
	MaxCardQErr float64
	MaxCostQErr float64
	// RequireJoinOrder demands the identical argmax join order as the
	// reference on every multi-join query.
	RequireJoinOrder bool
}

// DefaultBudget returns the shipping budget for a tier: float32 is a
// rounding-error tier (1.05), int8 a quantization tier (2.0). Both
// require exact join orders — the decoder runs at f64 in every tier
// precisely so this holds (see mtmlf.LoweredModel).
func DefaultBudget(p nn.Precision) Budget {
	switch p {
	case nn.PrecisionF32:
		return Budget{MaxCardQErr: 1.05, MaxCostQErr: 1.05, RequireJoinOrder: true}
	case nn.PrecisionInt8:
		return Budget{MaxCardQErr: 2.0, MaxCostQErr: 2.0, RequireJoinOrder: true}
	default:
		return Budget{MaxCardQErr: 1, MaxCostQErr: 1, RequireJoinOrder: true}
	}
}

// TierReport is the calibration outcome of one lowered tier.
type TierReport struct {
	Precision string
	Budget    Budget
	Queries   int
	// MaxCardQErr / MaxCostQErr are the worst observed q-errors.
	MaxCardQErr float64
	MaxCostQErr float64
	// JoinOrderMatches / JoinOrderTotal count multi-join queries whose
	// argmax order matched the reference.
	JoinOrderMatches, JoinOrderTotal int
	// Violations lists every budget breach, one line each.
	Violations []string
}

// OK reports whether the tier stayed within budget.
func (r *TierReport) OK() bool { return len(r.Violations) == 0 }

// String renders the report for the CLI.
func (r *TierReport) String() string {
	var b strings.Builder
	status := "PASS"
	if !r.OK() {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "calib %-4s [%s] queries=%d card_qerr=%.4f (budget %.2f) cost_qerr=%.4f (budget %.2f) join_orders=%d/%d",
		r.Precision, status, r.Queries,
		r.MaxCardQErr, r.Budget.MaxCardQErr,
		r.MaxCostQErr, r.Budget.MaxCostQErr,
		r.JoinOrderMatches, r.JoinOrderTotal)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  violation: %s", v)
	}
	return b.String()
}

// qerr returns max(a/b, b/a) for positive estimates.
func qerr(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	return a / b
}

// SmokeFleet builds the deterministic calibration substrate: the
// synthetic-IMDB benchmark model (the scale of the root Figure 2
// pipeline benches) plus a seeded fixed query set spanning 2–4 join
// tables.
func SmokeFleet(seed int64, n int) (*mtmlf.Model, []*workload.LabeledQuery) {
	db := datagen.SyntheticIMDB(1, 0.05)
	cfg := mtmlf.DefaultConfig()
	cfg.Dim, cfg.Blocks, cfg.DecBlocks = 16, 1, 1
	cfg.Feat.Dim, cfg.Feat.Blocks = 16, 1
	m := mtmlf.NewModel(cfg, db, seed)
	gen := workload.NewGenerator(db, seed+1)
	wcfg := workload.DefaultConfig()
	wcfg.MinTables, wcfg.MaxTables = 2, 4
	return m, gen.Generate(n, wcfg)
}

// Run calibrates one lowered tier of m against its f64 reference over
// the fleet qs.
func Run(m *mtmlf.Model, qs []*workload.LabeledQuery, p nn.Precision, b Budget) *TierReport {
	lm := m.Lower(p)
	r := &TierReport{Precision: p.String(), Budget: b, Queries: len(qs), MaxCardQErr: 1, MaxCostQErr: 1}
	for i, lq := range qs {
		refCard, refCost := m.EstimateRoot(lq)
		gotCard, gotCost := lm.EstimateRoot(lq)
		if q := qerr(gotCard, refCard); q > r.MaxCardQErr {
			r.MaxCardQErr = q
		}
		if q := qerr(gotCost, refCost); q > r.MaxCostQErr {
			r.MaxCostQErr = q
		}
		if q := qerr(gotCard, refCard); q > b.MaxCardQErr {
			r.Violations = append(r.Violations,
				fmt.Sprintf("query %d: card q-error %.4f > %.2f (ref %g, %s %g)", i, q, b.MaxCardQErr, refCard, p, gotCard))
		}
		if q := qerr(gotCost, refCost); q > b.MaxCostQErr {
			r.Violations = append(r.Violations,
				fmt.Sprintf("query %d: cost q-error %.4f > %.2f (ref %g, %s %g)", i, q, b.MaxCostQErr, refCost, p, gotCost))
		}
		if len(lq.Q.Tables) >= 2 {
			r.JoinOrderTotal++
			ref := m.InferJoinOrder(lq.Q, lq.Plan)
			got := lm.InferJoinOrder(lq.Q, lq.Plan)
			if strings.Join(ref, ",") == strings.Join(got, ",") {
				r.JoinOrderMatches++
			} else if b.RequireJoinOrder {
				r.Violations = append(r.Violations,
					fmt.Sprintf("query %d: join order %v differs from reference %v", i, got, ref))
			}
		}
	}
	return r
}

// RunAll calibrates both lowered tiers with their default budgets.
func RunAll(m *mtmlf.Model, qs []*workload.LabeledQuery) []*TierReport {
	var out []*TierReport
	for _, p := range []nn.Precision{nn.PrecisionF32, nn.PrecisionInt8} {
		out = append(out, Run(m, qs, p, DefaultBudget(p)))
	}
	return out
}
