package dist

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func mustSample(t *testing.T, values []float64) *Sample {
	t.Helper()
	s, err := NewSample(values)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSampleErrors(t *testing.T) {
	if _, err := NewSample(nil); err == nil {
		t.Fatal("empty sample should error")
	}
	if _, err := NewSample([]float64{0.5, math.NaN()}); err == nil {
		t.Fatal("NaN should error")
	}
	if _, err := NewSample([]float64{math.Inf(1)}); err == nil {
		t.Fatal("Inf should error")
	}
}

// TestSampleSignedZero pins that -0 and +0 are one value of the
// sample: counted together, their multiplicity is the number of zeros.
func TestSampleSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	s := mustSample(t, []float64{negZero, negZero, 0, 0.5})
	if got := s.Values(); len(got) != 2 || got[0] != 0 || got[1] != 0.5 {
		t.Fatalf("distinct values = %v, want [0 0.5]", got)
	}
	if got := s.CDF(0); got != 0.75 {
		t.Fatalf("CDF(0) = %v, want 0.75 (zero has multiplicity 3)", got)
	}
	if got := s.CDF(1); got != 1 {
		t.Fatalf("CDF(1) = %v, want 1", got)
	}
}

// TestSampleHighDistinct builds a sample of over 2^17 distinct values,
// with duplicates spread over several chunks so the counter rehashes
// many times, and checks the distinct values, every CDF step and the
// mean's bits against an oracle that sorts the raw multiset and
// run-length counts it.
func TestSampleHighDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const distinct = 1<<17 + 1000
	var raw []float64
	for i := 0; i < distinct; i++ {
		v := rng.Float64()
		for k := 1 + rng.Intn(3); k > 0; k-- {
			raw = append(raw, v)
		}
	}
	raw = append(raw, 0, math.Copysign(0, -1), 0)
	rng.Shuffle(len(raw), func(i, j int) { raw[i], raw[j] = raw[j], raw[i] })
	var chunks [][]float64
	for rest := raw; len(rest) > 0; {
		k := min(len(rest), 1+rng.Intn(len(raw)/4))
		chunks = append(chunks, rest[:k])
		rest = rest[k:]
	}
	s, err := NewSampleFromChunks(len(raw), chunks)
	if err != nil {
		t.Fatal(err)
	}

	sorted := append([]float64(nil), raw...)
	sort.Float64s(sorted)
	var values []float64
	var cum []int64
	sum := 0.0
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		values = append(values, sorted[i])
		cum = append(cum, int64(j))
		sum += sorted[i] * float64(j-i)
		i = j
	}
	if len(values) <= 1<<17 {
		t.Fatalf("oracle holds %d distinct values, want over 2^17", len(values))
	}

	got := s.Values()
	if len(got) != len(values) {
		t.Fatalf("%d distinct values, oracle %d", len(got), len(values))
	}
	n := float64(len(raw))
	for i, v := range values {
		if got[i] != v {
			t.Fatalf("value %d = %v, oracle %v", i, got[i], v)
		}
		below := 0.0
		if i > 0 {
			below = float64(cum[i-1]) / n
		}
		if c := s.CDF(math.Nextafter(v, -1)); c != below {
			t.Fatalf("CDF just below value %d = %v, oracle %v", i, c, below)
		}
		if c := s.CDF(v); c != float64(cum[i])/n {
			t.Fatalf("CDF(value %d) = %v, oracle %v", i, c, float64(cum[i])/n)
		}
	}
	if s.N() != len(raw) {
		t.Fatalf("N = %d, want %d", s.N(), len(raw))
	}
	if got, want := math.Float64bits(s.Mean()), math.Float64bits(sum/n); got != want {
		t.Fatalf("mean bits %#x, oracle %#x", got, want)
	}
}

// FuzzNewSampleFromChunks reads its input as little-endian float64 bit
// patterns, split into chunks where split has a bit set, and checks the
// sample against an oracle that sorts the raw multiset with
// sort.Float64s and run-length counts it, -0 folded into +0: values and
// sum bit for bit, cum and N exactly. Any NaN or ±Inf must be an error.
func FuzzNewSampleFromChunks(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	f.Add(bits(-0.5, 0.25, -3, 1e300, -1e-300, 0.25, -0.5), uint64(0))
	f.Add(bits(math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1060, 0), uint64(5))
	f.Add(bits(math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64, 1, -1), uint64(2))
	f.Add(bits(0, negZero, negZero, 0, 0.5, negZero), uint64(0b1010))
	f.Add(bits(0.5, 0.25, 0.75, 0.5, 0.125, 0.25, 0.5, 0.75, 0.5, 1, 0.125), uint64(0x55))
	f.Add(bits(0.5, math.Inf(1)), uint64(1))
	f.Add(bits(math.Inf(-1)), uint64(0))
	f.Add(bits(0.25, math.NaN(), 0.25), uint64(3))
	f.Fuzz(func(t *testing.T, data []byte, split uint64) {
		var raw []float64
		var chunks [][]float64
		start := 0
		for i := 0; 8*(i+1) <= len(data); i++ {
			raw = append(raw, math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])))
			if split>>(i%64)&1 == 1 {
				chunks = append(chunks, raw[start:])
				start = len(raw)
			}
		}
		chunks = append(chunks, raw[start:])
		s, err := NewSampleFromChunks(len(raw), chunks)

		finite := true
		for _, v := range raw {
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		switch {
		case len(raw) == 0:
			if !errors.Is(err, ErrEmptySample) {
				t.Fatalf("empty input: error %v, want ErrEmptySample", err)
			}
			return
		case !finite:
			if err == nil {
				t.Fatalf("non-finite input %v accepted", raw)
			}
			return
		case err != nil:
			t.Fatal(err)
		}

		sorted := make([]float64, len(raw))
		for i, v := range raw {
			sorted[i] = v + 0 // -0 + 0 = +0: fold -0 into +0
		}
		sort.Float64s(sorted)
		var values []float64
		var cum []int64
		sum := 0.0
		for i := 0; i < len(sorted); {
			j := i
			for j < len(sorted) && sorted[j] == sorted[i] {
				j++
			}
			values = append(values, sorted[i])
			cum = append(cum, int64(j))
			sum += sorted[i] * float64(j-i)
			i = j
		}

		if s.N() != len(raw) {
			t.Fatalf("N = %d, want %d", s.N(), len(raw))
		}
		if len(s.values) != len(values) {
			t.Fatalf("%d distinct values, oracle %d", len(s.values), len(values))
		}
		for i, v := range values {
			if math.Float64bits(s.values[i]) != math.Float64bits(v) || s.cum[i] != cum[i] {
				t.Fatalf("value %d = %v (cum %d), oracle %v (cum %d)", i, s.values[i], s.cum[i], v, cum[i])
			}
		}
		if got, want := math.Float64bits(s.sum), math.Float64bits(sum); got != want {
			t.Fatalf("sum bits %#x, oracle %#x", got, want)
		}
	})
}

func TestSampleWeightedBasics(t *testing.T) {
	// 4x 0.25, 2x 0.5, 1x 1.0 — stored as 3 distinct values.
	s := mustSample(t, []float64{0.25, 0.5, 0.25, 1, 0.25, 0.5, 0.25})
	if s.N() != 7 {
		t.Fatalf("N = %d, want 7", s.N())
	}
	if got := s.Values(); len(got) != 3 || got[0] != 0.25 || got[1] != 0.5 || got[2] != 1 {
		t.Fatalf("distinct values = %v", got)
	}
	want := (4*0.25 + 2*0.5 + 1) / 7
	if math.Abs(s.Mean()-want) > 1e-12 {
		t.Fatalf("mean = %v, want %v", s.Mean(), want)
	}
	if got := s.CDF(0.25); math.Abs(got-4.0/7) > 1e-12 {
		t.Fatalf("CDF(0.25) = %v, want 4/7", got)
	}
	if got := s.CDF(0.2); got != 0 {
		t.Fatalf("CDF(0.2) = %v, want 0", got)
	}
	if got := s.ICD(0.5); math.Abs(got-1.0/7) > 1e-12 {
		t.Fatalf("ICD(0.5) = %v, want 1/7", got)
	}
	if got := s.ICD(1); got != 0 {
		t.Fatalf("ICD(1) = %v, want 0", got)
	}
}

// TestSampleMatchesNaiveStats cross-checks the weighted implementation
// against direct computation on the raw multiset.
func TestSampleMatchesNaiveStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	values := make([]float64, 5000)
	// Mix of repeated rational values (like occupancies) and noise.
	for i := range values {
		if i%3 == 0 {
			values[i] = rng.Float64()
		} else {
			values[i] = float64(1+rng.Intn(9)) / float64(10+rng.Intn(10))
		}
	}
	s := mustSample(t, append([]float64(nil), values...))

	var sum float64
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(len(values))
	if math.Abs(s.Mean()-mean) > 1e-9 {
		t.Fatalf("mean = %v, naive %v", s.Mean(), mean)
	}
	var varAcc float64
	for _, v := range values {
		varAcc += (v - mean) * (v - mean)
	}
	std := math.Sqrt(varAcc / float64(len(values)))
	if math.Abs(s.Std()-std) > 1e-9 {
		t.Fatalf("std = %v, naive %v", s.Std(), std)
	}
	// CDF at a few points vs counting.
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	for _, x := range []float64{0.1, 0.33, 0.5, 0.77, 0.999} {
		cnt := 0
		for _, v := range sorted {
			if v <= x {
				cnt++
			}
		}
		if got, want := s.CDF(x), float64(cnt)/float64(len(values)); math.Abs(got-want) > 1e-12 {
			t.Fatalf("CDF(%v) = %v, naive %v", x, got, want)
		}
	}
	// MKDistance vs direct Riemann integration of |F(x)-x|.
	integ := 0.0
	const steps = 200000
	for i := 0; i < steps; i++ {
		x := (float64(i) + 0.5) / steps
		j := sort.SearchFloat64s(sorted, x)
		for j < len(sorted) && sorted[j] == x {
			j++
		}
		integ += math.Abs(float64(j)/float64(len(sorted))-x) / steps
	}
	if math.Abs(s.MKDistance()-integ) > 1e-4 {
		t.Fatalf("MKDistance = %v, numeric %v", s.MKDistance(), integ)
	}
}

func TestMKDistanceLimits(t *testing.T) {
	// Point mass at 0 and at 1: maximal distance 1/2, proximity 0.
	for _, v := range []float64{0, 1} {
		s := mustSample(t, []float64{v, v, v})
		if math.Abs(s.MKDistance()-0.5) > 1e-12 {
			t.Fatalf("point mass at %v: MK = %v, want 0.5", v, s.MKDistance())
		}
		if math.Abs(s.MKProximity()) > 1e-12 {
			t.Fatalf("point mass at %v: proximity = %v, want 0", v, s.MKProximity())
		}
	}
	// A fine uniform grid approaches distance 0 / proximity 1.
	grid := make([]float64, 1000)
	for i := range grid {
		grid[i] = (float64(i) + 0.5) / 1000
	}
	s := mustSample(t, grid)
	if s.MKDistance() > 1e-3 {
		t.Fatalf("uniform grid: MK = %v, want ~0", s.MKDistance())
	}
	if s.MKProximity() < 0.99 {
		t.Fatalf("uniform grid: proximity = %v, want ~1", s.MKProximity())
	}
}

func TestHistogramMatchesSample(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	values := make([]float64, 20000)
	for i := range values {
		values[i] = math.Pow(rng.Float64(), 2) // skewed towards 0
	}
	s := mustSample(t, append([]float64(nil), values...))
	h := NewHistogram(4096)
	h.AddAll(values)
	if h.N() != int64(len(values)) {
		t.Fatalf("histogram N = %d", h.N())
	}
	if d := math.Abs(h.MKProximity() - s.MKProximity()); d > 4.0/4096*2 {
		t.Fatalf("histogram proximity off by %v", d)
	}
}

func TestCREUniformQuarter(t *testing.T) {
	grid := make([]float64, 2000)
	for i := range grid {
		grid[i] = (float64(i) + 0.5) / 2000
	}
	s := mustSample(t, grid)
	if got := (CRESelector{}).Score(s); math.Abs(got-0.25) > 1e-2 {
		t.Fatalf("CRE of uniform = %v, want ~1/4", got)
	}
	point := mustSample(t, []float64{1, 1, 1})
	if got := (CRESelector{}).Score(point); got > 1e-12 {
		t.Fatalf("CRE of point mass at 1 = %v, want 0", got)
	}
}

func TestSelectorsOrderAndNames(t *testing.T) {
	sels := AllSelectors()
	if len(sels) != 5 {
		t.Fatalf("AllSelectors = %d, want 5", len(sels))
	}
	if sels[0].Name() != "mk-proximity" {
		t.Fatalf("primary selector = %q", sels[0].Name())
	}
	if sels[2].Name() != "variation-coefficient" {
		t.Fatalf("selector 2 = %q, the figure harness expects the variation coefficient there", sels[2].Name())
	}
	seen := map[string]bool{}
	s := mustSample(t, []float64{0.2, 0.4, 0.4, 0.9})
	for _, sel := range sels {
		if seen[sel.Name()] {
			t.Fatalf("duplicate selector name %q", sel.Name())
		}
		seen[sel.Name()] = true
		if v := sel.Score(s); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s score = %v", sel.Name(), v)
		}
	}
}

func TestSelectorsPreferUniformOverContracted(t *testing.T) {
	uniform := make([]float64, 500)
	for i := range uniform {
		uniform[i] = (float64(i) + 0.5) / 500
	}
	u := mustSample(t, uniform)
	contracted := mustSample(t, []float64{1, 1, 1, 1, 1})
	for _, sel := range AllSelectors() {
		if sel.Score(u) <= sel.Score(contracted) {
			t.Fatalf("%s: uniform %v <= contracted %v", sel.Name(), sel.Score(u), sel.Score(contracted))
		}
	}
}
