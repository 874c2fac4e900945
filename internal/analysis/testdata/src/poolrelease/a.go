// Package poolrelease is the fixture for the poolrelease analyzer:
// every Acquire* result is released on all return paths, or its
// ownership explicitly escapes.
package poolrelease

// Eval stands in for ag.Eval: a pooled session handle.
type Eval struct{ live int }

// AcquireEval / ReleaseEval mirror the free-function pool API.
func AcquireEval() *Eval  { return &Eval{} }
func ReleaseEval(e *Eval) { e.live = 0 }

// Pool mirrors the method-form pool API.
type Pool struct{}

func (p *Pool) Acquire() *Eval  { return &Eval{} }
func (p *Pool) Release(e *Eval) { e.live = 0 }

// Flagged: acquired, used, never released.
func leak(work func(*Eval) int) int {
	e := AcquireEval() // want `result of AcquireEval is never released with ReleaseEval`
	return work(e)
}

// Flagged: the error path returns before the release.
func leakOnErrPath(fail bool, work func(*Eval) int) int {
	e := AcquireEval() // want `not released with ReleaseEval on the return path`
	if fail {
		return -1
	}
	n := work(e)
	ReleaseEval(e)
	return n
}

// Flagged: result discarded outright.
func discard() {
	AcquireEval() // want `result of AcquireEval is discarded`
}

// Flagged: result bound to blank.
func discardBlank() {
	_ = AcquireEval() // want `result of AcquireEval is discarded`
}

// Clean: deferred free-function release covers every path.
func deferred(fail bool, work func(*Eval) int) int {
	e := AcquireEval()
	defer ReleaseEval(e)
	if fail {
		return -1
	}
	return work(e)
}

// Clean: deferred method-form release.
func deferredMethod(p *Pool, work func(*Eval) int) int {
	e := p.Acquire()
	defer p.Release(e)
	return work(e)
}

// Clean: explicit release before the single return.
func explicit(work func(*Eval) int) int {
	e := AcquireEval()
	n := work(e)
	ReleaseEval(e)
	return n
}

// Clean: released inside a deferred cleanup closure.
func deferredClosure(work func(*Eval) int) int {
	e := AcquireEval()
	defer func() { ReleaseEval(e) }()
	return work(e)
}

// Clean: ownership escapes to the caller with the value.
func handOff() *Eval {
	e := AcquireEval()
	return e
}

// session outlives the function; the release duty moves with it.
type session struct{ e *Eval }

// Clean: ownership escapes into a longer-lived struct.
func store(s *session) {
	e := AcquireEval()
	s.e = e
}

// Float and Session stand in for tensor.Float and ag.Session: the
// session is written once over the element type, and the generic
// Acquire/Release pair is what generic serving code calls.
type Float interface{ ~float32 | ~float64 }

type Session[T Float] struct{ live int }

func Acquire[T Float]() *Session[T]  { return &Session[T]{} }
func Release[T Float](s *Session[T]) { s.live = 0 }

// EvalF32 and its non-generic pair mirror ag.EvalF32 /
// ag.AcquireEvalF32: an alias and one-line forwards. The analyzer
// matches by the Acquire<X>/Release<X> naming pair, so each spelling
// is covered by the same rule.
type EvalF32 = Session[float32]

func AcquireEvalF32() *EvalF32  { return Acquire[float32]() }
func ReleaseEvalF32(e *EvalF32) { Release(e) }

// Flagged: a generic function acquires a session over its own type
// parameter (explicit instantiation at the call) and never releases it.
func leakGeneric[T Float](work func(*Session[T]) int) int {
	e := Acquire[T]() // want `result of Acquire is never released with Release`
	return work(e)
}

// Flagged: the generic session leaks on the error path.
func leakGenericOnErrPath[T Float](fail bool, work func(*Session[T]) int) int {
	e := Acquire[T]() // want `not released with Release on the return path`
	if fail {
		return -1
	}
	n := work(e)
	Release(e)
	return n
}

// Flagged: result of the instantiated call discarded outright.
func discardGeneric[T Float]() {
	Acquire[T]() // want `result of Acquire is discarded`
}

// Clean: the generic twin — deferred release (type argument inferred)
// covers every path.
func deferredGeneric[T Float](fail bool, work func(*Session[T]) int) int {
	e := Acquire[T]()
	defer Release(e)
	if fail {
		return -1
	}
	return work(e)
}

// Flagged: f32 session acquired, used, never released.
func leakF32(work func(*EvalF32) int) int {
	e := AcquireEvalF32() // want `result of AcquireEvalF32 is never released with ReleaseEvalF32`
	return work(e)
}

// Flagged: f32 session leaks on the error path.
func leakF32OnErrPath(fail bool, work func(*EvalF32) int) int {
	e := AcquireEvalF32() // want `not released with ReleaseEvalF32 on the return path`
	if fail {
		return -1
	}
	n := work(e)
	ReleaseEvalF32(e)
	return n
}

// Clean: the release pair is spelling-specific — ReleaseEvalF32 for a
// session from AcquireEvalF32, deferred to cover every path.
func deferredF32(fail bool, work func(*EvalF32) int) int {
	e := AcquireEvalF32()
	defer ReleaseEvalF32(e)
	if fail {
		return -1
	}
	return work(e)
}
