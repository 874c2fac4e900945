package serve

import (
	"errors"
	"fmt"

	"mtmlf/internal/plan"
	"mtmlf/internal/sqldb"
)

// Typed serving errors. The model layer (RepresentInfer, featurize)
// panics on malformed inputs because its callers — training loops and
// experiment harnesses — construct inputs themselves; a server cannot
// afford that contract, so Validate maps every malformed request onto
// one of these sentinels (wrapped with detail; test with errors.Is)
// before the request reaches the model.
var (
	// ErrBadRequest covers structurally invalid requests: nil query or
	// plan, no tables, duplicate tables, kind-mismatched filter values.
	ErrBadRequest = errors.New("serve: bad request")
	// ErrUnknownTable marks a query, filter, join, or plan referencing
	// a table the served database does not have.
	ErrUnknownTable = errors.New("serve: unknown table")
	// ErrUnknownColumn marks a filter or join referencing a column its
	// table does not have.
	ErrUnknownColumn = errors.New("serve: unknown column")
	// ErrPlanMismatch marks a plan whose leaves do not cover the
	// query's tables exactly once each.
	ErrPlanMismatch = errors.New("serve: plan does not match query")
	// ErrModelLimit marks a request exceeding the model architecture's
	// bounds (more tables than Config.MaxTables supports).
	ErrModelLimit = errors.New("serve: request exceeds model limits")
	// ErrNoJoinOrder is returned when the constrained beam search has
	// no legal candidate (a disconnected join graph).
	ErrNoJoinOrder = errors.New("serve: no legal join order")
	// ErrInternal wraps a recovered panic — the backstop that keeps
	// one bad request from crashing the server.
	ErrInternal = errors.New("serve: internal error")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("serve: engine closed")
	// ErrOverloaded is the fast-shed admission rejection: the bounded
	// request queue is full and Options.ShedOverload is set. The HTTP
	// layer maps it to 429 — the client should back off and retry.
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrDeadline marks a request rejected because its deadline
	// (propagated via context / the X-Deadline-Ms header) expired
	// before a worker could pick it up. No model compute was
	// spent. The HTTP layer maps it to 504.
	ErrDeadline = errors.New("serve: deadline exceeded")
	// ErrReloadMismatch marks a Reload whose new model serves a
	// different database (name or table list) than the current one —
	// hot swap is for new weights, not new schemas.
	ErrReloadMismatch = errors.New("serve: reload checkpoint incompatible")
)

// Validate checks a (query, plan) pair against the served database
// and model limits, returning a typed error for every condition that
// would make the model layer panic (plus a few that would silently
// degrade, like filters on tables the query doesn't touch).
func (e *Engine) Validate(q *sqldb.Query, p *plan.Node) error {
	cur := e.cur.Load()
	db := cur.db
	if q == nil {
		return fmt.Errorf("%w: nil query", ErrBadRequest)
	}
	if p == nil {
		return fmt.Errorf("%w: nil plan", ErrBadRequest)
	}
	if len(q.Tables) == 0 {
		return fmt.Errorf("%w: query has no tables", ErrBadRequest)
	}
	if max := cur.maxTables; len(q.Tables) > max {
		return fmt.Errorf("%w: query joins %d tables, model supports %d", ErrModelLimit, len(q.Tables), max)
	}
	inQuery := make(map[string]bool, len(q.Tables))
	for _, t := range q.Tables {
		if db.TableIndex(t) < 0 {
			return fmt.Errorf("%w: query table %q", ErrUnknownTable, t)
		}
		if inQuery[t] {
			return fmt.Errorf("%w: duplicate query table %q", ErrBadRequest, t)
		}
		inQuery[t] = true
	}
	// Plan leaves must cover the query tables exactly once each:
	// RepresentInfer indexes the shared representation by leaf row.
	leaves := p.Tables()
	seen := make(map[string]bool, len(leaves))
	for _, t := range leaves {
		if db.TableIndex(t) < 0 {
			return fmt.Errorf("%w: plan table %q", ErrUnknownTable, t)
		}
		if !inQuery[t] {
			return fmt.Errorf("%w: plan scans %q, not a query table", ErrPlanMismatch, t)
		}
		if seen[t] {
			return fmt.Errorf("%w: plan scans %q twice", ErrPlanMismatch, t)
		}
		seen[t] = true
	}
	for _, t := range q.Tables {
		if !seen[t] {
			return fmt.Errorf("%w: query table %q missing from plan", ErrPlanMismatch, t)
		}
	}
	for _, n := range p.Nodes() {
		if n.IsLeaf() {
			if n.Scan < 0 || int(n.Scan) >= plan.NumScanOps {
				return fmt.Errorf("%w: invalid scan operator %d", ErrBadRequest, int(n.Scan))
			}
		} else if n.Join < 0 || int(n.Join) >= plan.NumJoinOps {
			return fmt.Errorf("%w: invalid join operator %d", ErrBadRequest, int(n.Join))
		}
	}
	for _, f := range q.Filters {
		if err := validateFilter(db, inQuery, f); err != nil {
			return err
		}
	}
	for _, j := range q.Joins {
		if err := validateJoin(db, inQuery, j); err != nil {
			return err
		}
	}
	return nil
}

func validateFilter(db *sqldb.DB, inQuery map[string]bool, f sqldb.Filter) error {
	if db.TableIndex(f.Table) < 0 {
		return fmt.Errorf("%w: filter table %q", ErrUnknownTable, f.Table)
	}
	if !inQuery[f.Table] {
		return fmt.Errorf("%w: filter on %q, which the query does not touch", ErrBadRequest, f.Table)
	}
	col := db.Table(f.Table).Column(f.Col)
	if col == nil {
		return fmt.Errorf("%w: filter column %s.%s", ErrUnknownColumn, f.Table, f.Col)
	}
	if f.Op < sqldb.OpEq || f.Op > sqldb.OpLike {
		return fmt.Errorf("%w: invalid filter operator %d", ErrBadRequest, int(f.Op))
	}
	if f.Val.Kind != col.Kind {
		return fmt.Errorf("%w: filter %s.%s compares %v column with %v value",
			ErrBadRequest, f.Table, f.Col, col.Kind, f.Val.Kind)
	}
	if f.Op == sqldb.OpLike && col.Kind != sqldb.KindString {
		return fmt.Errorf("%w: LIKE on non-string column %s.%s", ErrBadRequest, f.Table, f.Col)
	}
	return nil
}

func validateJoin(db *sqldb.DB, inQuery map[string]bool, j sqldb.JoinEdge) error {
	for _, side := range []struct{ t, c string }{{j.T1, j.C1}, {j.T2, j.C2}} {
		if db.TableIndex(side.t) < 0 {
			return fmt.Errorf("%w: join table %q", ErrUnknownTable, side.t)
		}
		if !inQuery[side.t] {
			return fmt.Errorf("%w: join references %q, which the query does not touch", ErrBadRequest, side.t)
		}
		if db.Table(side.t).Column(side.c) == nil {
			return fmt.Errorf("%w: join column %s.%s", ErrUnknownColumn, side.t, side.c)
		}
	}
	return nil
}
