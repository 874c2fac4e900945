//go:build amd64 && !purego

package tensor

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

var geluExhaustive = flag.Bool("gelu-exhaustive", false, "sweep every float32 input of GELUInto[float32] against the scalar body (about a minute per core)")

// expAMD64 transcribes the main path of math.Exp's amd64 assembly
// ($GOROOT/src/math/exp_amd64.s), the only path a tanh argument in
// [1.25, 88.03] takes: with fma its VFMADD instructions through
// math.FMA, otherwise its MULSD/ADDSD ones, each rounded on its own.
func expAMD64(x float64, fma bool) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2U  = 0.69314718055966295651160180568695068359375
		ln2L  = 0.28235290563031577122588448175013436025525412068e-12
	)
	taylor := [...]float64{2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1}
	n := math.RoundToEven(float64(log2e * x)) // CVTSD2SL
	var p float64
	if fma {
		x = math.FMA(-n, ln2U, x)
		x = math.FMA(-n, ln2L, x)
		x *= 0.0625
		p = taylor[0]
		for _, c := range taylor[1:] {
			p = math.FMA(p, x, c)
		}
		x *= p
		for range 3 {
			x *= x + 2
		}
		x = math.FMA(x+2, x, 1)
	} else {
		x -= float64(ln2U * n)
		x -= float64(ln2L * n)
		x *= 0.0625
		p = taylor[0] * x
		for i, c := range taylor[1:] {
			p += c
			if i < len(taylor)-2 {
				p *= x
			}
		}
		x *= p
		for range 4 {
			x *= x + 2
		}
		x++
	}
	return x * math.Float64frombits(uint64(int64(n)+1023)<<52)
}

// tanhWith is math/tanh.go's tanh with exp as its exponential; the
// rational branch has no exp in it and is math.Tanh's own.
func tanhWith(x float64, exp func(float64) float64) float64 {
	const maxlog = 8.8029691931113054295988e+01
	z := math.Abs(x)
	switch {
	case z > 0.5*maxlog:
		return math.Copysign(1, x)
	case z >= 0.625:
		z = 1 - 2/(exp(2*z)+1)
		if x < 0 {
			z = -z
		}
		return z
	}
	return math.Tanh(x)
}

// TestExpTranscription pins the reference the non-host branch is
// checked against: the transcription of the branch this CPU's math.Exp
// takes equals math.Exp on tanh's whole exp range, and the two branches
// differ on some of it (so checking both checks two things), useFMA's
// probe among them.
func TestExpTranscription(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	differ := 0
	for i := 0; i < 1<<20; i++ {
		x := 1.25 + rng.Float64()*(88.03-1.25)
		if got, want := expAMD64(x, useFMA), math.Exp(x); got != want {
			t.Fatalf("exp transcription (fma %v) of %v = %v, math.Exp %v", useFMA, x, got, want)
		}
		if expAMD64(x, true) != expAMD64(x, false) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("exp's FMA and MULSD/ADDSD paths agree on every input: the non-FMA check checks nothing")
	}
	if expAMD64(expProbe, true) != expProbeFMA || expAMD64(expProbe, false) == expProbeFMA {
		t.Fatalf("useFMA's probe: exp(%v) is %v on the FMA path and %v on the other, want %v on the FMA path alone",
			expProbe, expAMD64(expProbe, true), expAMD64(expProbe, false), expProbeFMA)
	}
	t.Logf("the two exp paths differ on %d of %d inputs", differ, 1<<20)
}

// geluCut returns the v > 0 where gelu's tanh argument c·(v+0.044715v³)
// first reaches b, by bisection on the Go expression.
func geluCut(b float64) float64 {
	lo, hi := 0.0, 64.0
	for range 200 {
		mid := lo + (hi-lo)/2
		if 0.7978845608028654*(mid+float64(0.044715*mid*mid*mid)) >= b {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// geluTanhInputs returns the edge inputs (±0, ±Inf, NaN, denormals,
// and ±64 ulps around tanh's two case boundaries, both as tanh inputs
// and as the GELU inputs that put its tanh argument there) followed by
// n random ones cycling through four kinds: normal doubles over seven
// decades, float32 bit patterns, uniform ±50 and raw-bit doubles.
func geluTanhInputs(rng *rand.Rand, n int) []float64 {
	const tmax = 0.5 * 8.8029691931113054295988e+01
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2e-308, -3e-310, 1e-200, -1e-160}
	for _, b := range []float64{0.625, tmax, geluCut(0.625), geluCut(tmax)} {
		for d := -64; d <= 64; d++ {
			x := math.Float64frombits(uint64(int64(math.Float64bits(b)) + int64(d)))
			xs = append(xs, x, -x)
		}
	}
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			xs = append(xs, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(7)-3)))
		case 1:
			xs = append(xs, float64(math.Float32frombits(rng.Uint32())))
		case 2:
			xs = append(xs, (2*rng.Float64()-1)*50)
		default:
			xs = append(xs, math.Float64frombits(rng.Uint64()))
		}
	}
	return xs
}

// TestSIMDGELUTanhMatchesMath is geluTanh's contract: every lane is
// math.Tanh's result, or the scalar GELU body's, bit for bit (NaN in,
// NaN out), at both element types and on both of exp's paths. The path
// this CPU's math.Exp takes is checked against math.Tanh and gelu
// themselves; the other (the MULSD/ADDSD path, on a CPU with FMA) is
// checked against tanhWith over that path's transcription, which is
// what math.Tanh returns on an AVX2 CPU without FMA.
func TestSIMDGELUTanhMatchesMath(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: the pure-Go loops are the ones running")
	}
	branches := []int{0}
	if useFMA {
		branches = append(branches, opFMA)
	}
	const chunks, per = 16, 1<<20 + 3 // 16.8 M inputs; a chunk ends in a 3-element tail
	rng := rand.New(rand.NewSource(54))
	out := make([]float64, 0, per+2000)
	out32 := make([]float32, 0, per+2000)
	for chunk := range chunks {
		xs := geluTanhInputs(rng, per)
		x32 := make([]float32, len(xs))
		for i, x := range xs {
			x32[i] = float32(x)
		}
		for _, br := range branches {
			tanh := math.Tanh
			if fma := br != 0; fma != useFMA {
				tanh = func(x float64) float64 { return tanhWith(x, func(x float64) float64 { return expAMD64(x, fma) }) }
			}
			ref := map[int]func(float64) float64{
				0: tanh,
				opGELU: func(v float64) float64 {
					if br != 0 == useFMA {
						return gelu(v)
					}
					return 0.5 * v * (1 + tanh(0.7978845608028654*(v+float64(0.044715*v*v*v))))
				},
			}
			for _, mode := range []int{0, opGELU} {
				op := br | mode
				what := fmt.Sprintf("op %#x, chunk %d", op, chunk)
				out = out[:len(xs)]
				geluTanhRows(xs, out, op)
				for i, x := range xs {
					if want := ref[mode](x); !sameBits(out[i], want) {
						t.Fatalf("%s: f(%v = %#x) = %v (%#x), scalar %v (%#x)", what, x, math.Float64bits(x),
							out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
					}
				}
				if chunk > 0 {
					continue // float32: the edges and one chunk here, every input under -gelu-exhaustive
				}
				out32 = out32[:len(x32)]
				geluTanhRows(x32, out32, op)
				for i, x := range x32 {
					if want := float32(ref[mode](float64(x))); !sameBits(out32[i], want) {
						t.Fatalf("%s, float32: f(%v = %#x) = %v (%#x), scalar %v (%#x)", what, x, math.Float32bits(x),
							out32[i], math.Float32bits(out32[i]), want, math.Float32bits(want))
					}
				}
			}
		}
	}
}

// TestSIMDGELUTanhLengths: GELUInto and TanhInto agree with their
// scalar bodies at every length of vector trip and tail, in place and
// out of place, and write nothing outside out.
func TestSIMDGELUTanhLengths(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: the pure-Go loops are the ones running")
	}
	testGELUTanhLengths[float64](t)
	testGELUTanhLengths[float32](t)
}

func testGELUTanhLengths[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, n := range elementwiseLengths() {
		for _, isGELU := range []bool{false, true} {
			in := NewOf[T](1, n)
			for i := range in.Data {
				in.Data[i] = T(specialOr(rng, rng.NormFloat64()*3))
			}
			whole, s := offset[T](n)
			out := &Dense[T]{Data: s, Shape: []int{1, n}}
			want, alias := NewOf[T](1, n), in.Clone()
			simd := TanhInto[T]
			if isGELU {
				simd = GELUInto[T]
			}
			for i, x := range in.Data {
				f := math.Tanh(float64(x))
				if isGELU {
					f = gelu(float64(x))
				}
				want.Data[i] = T(f)
			}
			simd(in, out)
			simd(alias, alias)
			checkCanary(t, whole, n)
			for i := range want.Data {
				if !sameBits(out.Data[i], want.Data[i]) || !sameBits(alias.Data[i], want.Data[i]) {
					t.Fatalf("gelu=%v, length %d: element %d of %v = %v / %v in place, scalar %v",
						isGELU, n, i, in.Data[i], out.Data[i], alias.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestGELUFloat32Exhaustive sweeps all 2³² float32 inputs of
// GELUInto[float32] against the scalar body on this CPU's exp path. It
// runs only with -gelu-exhaustive (make gelu-exhaustive).
func TestGELUFloat32Exhaustive(t *testing.T) {
	if !*geluExhaustive {
		t.Skip("run with -gelu-exhaustive (make gelu-exhaustive)")
	}
	const block = 1 << 16
	var next, bad atomic.Uint64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in, out := NewOf[float32](1, block), NewOf[float32](1, block)
			for b := next.Add(1) - 1; b < 1<<32/block && bad.Load() == 0; b = next.Add(1) - 1 {
				for i := range in.Data {
					in.Data[i] = math.Float32frombits(uint32(b*block) + uint32(i))
				}
				GELUInto(in, out)
				for i, x := range in.Data {
					if want := float32(gelu(float64(x))); !sameBits(out.Data[i], want) {
						bad.Store(uint64(math.Float32bits(x)) | 1<<32)
						t.Errorf("GELUInto[float32](%v = %#x) = %v (%#x), scalar %v (%#x)", x, math.Float32bits(x),
							out.Data[i], math.Float32bits(out.Data[i]), want, math.Float32bits(want))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
