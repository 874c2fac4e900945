// The serving form of the (F) module, written once over the element
// type (see nn/infer.go and nn/lower.go).
//
// Lowering keeps only the serving surface of each Enc_i — the CLS
// token, the token projection, and the transformer — and drops the
// single-table pre-training Head, which never runs at serve time. The
// raw FilterToken features stay float64 (they are exact featurization
// outputs, cheap, and shared by every tier) and are rounded to T at
// the projection input.
package featurize

import (
	"fmt"

	"mtmlf/internal/ag"
	"mtmlf/internal/nn"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/tensor"
)

// LoweredTableEncoder is the inference form of one Enc_i.
type LoweredTableEncoder[T tensor.Float] struct {
	Proj *nn.LoweredLinear[T]
	CLS  *tensor.Dense[T]
	Enc  *nn.LoweredEncoder[T]
}

// Lowered pairs the weight-free half of a featurizer (the raw
// FilterToken pipeline and the statistics) with the inference form of
// its per-table encoders at element type T.
type Lowered[T tensor.Float] struct {
	Src  *Tokenizer
	Encs map[string]*LoweredTableEncoder[T]
	// memo is nil except on the copy Memoized makes for a serve bundle
	// (memo.go).
	memo *memo[T]
}

// Lower builds the inference form of f at element type T and tier p.
// At float64 it aliases f's weights (nn/lower.go); NewFrom builds that
// view once and Featurizer.EncodeTableInfer serves from it.
func Lower[T tensor.Float](f *Featurizer, p nn.Precision) *Lowered[T] {
	l := &Lowered[T]{Src: &f.Tokenizer, Encs: make(map[string]*LoweredTableEncoder[T], len(f.Encs))}
	for _, t := range f.DB.Tables {
		l.Encs[t.Name] = LowerTableEncoder[T](f.Encs[t.Name], p)
	}
	return l
}

// LowerTableEncoder lowers one Enc_i. Exported for the checkpoint
// loader that builds a reduced-tier replica one table at a time
// (mtmlf.LoadLowered), where the Featurizer Lower wants never exists.
func LowerTableEncoder[T tensor.Float](enc *TableEncoder, p nn.Precision) *LoweredTableEncoder[T] {
	return &LoweredTableEncoder[T]{
		Proj: nn.LowerLinear[T](enc.Proj, p),
		CLS:  tensor.Convert[T](enc.CLS.T),
		Enc:  nn.LowerEncoder[T](enc.Enc, p),
	}
}

// EncodeTableInfer is the no-grad twin of Featurizer.EncodeTable: Enc_i
// over the filters applying to one table, same kernels, no graph,
// pooled intermediates. It returns a read-only [1, Dim] row, bitwise
// identical at float64 to EncodeTable's forward result. The row is
// owned by e — or, on a memoized l, possibly by the memo, which
// outlives e.
func (l *Lowered[T]) EncodeTableInfer(e *ag.Session[T], table string, filters []sqldb.Filter) *tensor.Dense[T] {
	enc, ok := l.Encs[table]
	if !ok {
		panic(fmt.Sprintf("featurize: unknown table %q", table))
	}
	var keyBuf [memoMaxKey]byte
	var key []byte
	if l.memo != nil {
		var row *tensor.Dense[T]
		if row, key = l.memo.lookup(keyBuf[:0], table, filters); row != nil {
			return row
		}
	}
	seq := enc.CLS
	if len(filters) > 0 {
		raw := e.Get(len(filters), l.Src.Cfg.TokenWidth())
		for i, flt := range filters {
			writeFilterToken(l.Src, raw.Row(i), flt)
		}
		seq = e.ConcatRows(enc.CLS, enc.Proj.Infer(e, raw))
	}
	row := e.RowsView(enc.Enc.Infer(e, seq, nil), 0, 1)
	if key != nil {
		l.memo.store(key, row)
	}
	return row
}

// Bytes returns the resident weight bytes of all lowered encoders.
func (l *Lowered[T]) Bytes() int {
	n := 0
	for _, t := range l.Src.DB.Tables {
		enc := l.Encs[t.Name]
		n += enc.Proj.Bytes() + enc.CLS.Bytes() + enc.Enc.Bytes()
	}
	return n
}

// Reference returns the float64 inference view of f — the reference
// serving tier's featurizer.
func (f *Featurizer) Reference() *Lowered[float64] { return f.f64 }

// EncodeTableInfer is Lowered.EncodeTableInfer on the float64 view of
// f. It stays on *Featurizer because the frozen benchmark
// (bench/servetrace.go) calls it by this name.
func (f *Featurizer) EncodeTableInfer(e *ag.Eval, table string, filters []sqldb.Filter) *tensor.Tensor {
	return f.f64.EncodeTableInfer(e, table, filters)
}
