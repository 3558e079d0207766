// Package dist implements the distribution machinery of the occupancy
// method: empirical samples of occupancy rates on [0,1], the exact
// Monge-Kantorovich (Wasserstein-1) distance to the uniform density,
// and the five uniformity selectors compared in Section 7 of the paper
// (M-K proximity, standard deviation, variation coefficient, Shannon
// entropy and cumulative residual entropy).
package dist

import (
	"errors"
	"math"
	"sort"
)

// ErrEmptySample is returned by NewSample for an empty value slice.
var ErrEmptySample = errors.New("dist: empty sample")

// Sample is an empirical distribution of occupancy rates, stored as
// sorted distinct values with multiplicities. Occupancy populations are
// huge and at coarse periods take few distinct values (hops/duration
// ratios), so NewSampleFromChunks counts duplicates in a hash table and
// sorts only the distinct values. Small-∆ periods are far more diverse:
// at ∆ = 1 on the paper-batch benchmark stream (seed 1), 1,022,791 of
// 2,046,049 values are distinct, so the table grows to 2^21 slots and
// the sort orders a million keys, in at most eight linear radix passes.
// Values are keyed by value, not by bit pattern (-0 and +0 are one
// value). All scoring methods assume the support is [0,1], which holds
// for occupancy rates by Definition 7.
type Sample struct {
	values []float64 // sorted distinct values
	cum    []int64   // cum[i] = number of sample points <= values[i]
	n      int64
	sum    float64
}

// NewSample builds the distribution of values: the multiset is counted
// by a hash on the float bits, and only the distinct values are sorted.
// The input slice is not retained. An empty or non-finite sample is
// rejected.
func NewSample(values []float64) (*Sample, error) {
	if len(values) == 0 {
		return nil, ErrEmptySample
	}
	return NewSampleFromChunks(len(values), [][]float64{values})
}

// NewSampleFromChunks builds the distribution of a multiset given as a
// list of value chunks with total values overall, counting each chunk
// in place — the streaming entry point of the sweep pipeline, which
// hands over its workers' occupancy chunks without ever concatenating
// them. The chunks are not retained. Every value is counted under an
// order-preserving key of its bits, the counter's distinct (key, count)
// pairs are radix-sorted by key, and values, cum and sum are filled in
// that ascending order: the same bits a sort of the raw multiset
// followed by a run-length count gives.
func NewSampleFromChunks(total int, chunks [][]float64) (*Sample, error) {
	if total == 0 {
		return nil, ErrEmptySample
	}
	m := newF64Counter()
	const expMask = 0x7FF0000000000000
	const negZero = 1 << 63
	for _, values := range chunks {
		for _, v := range values {
			k := math.Float64bits(v)
			if k&expMask == expMask { // NaN or Inf: exponent all ones
				return nil, errors.New("dist: non-finite sample value")
			}
			if k == negZero { // a Sample is keyed by value: -0 counts as +0
				k = 0
			}
			m.add(orderedKey(k))
		}
	}
	distinct := m.sorted()
	s := &Sample{values: make([]float64, len(distinct)), cum: make([]int64, len(distinct)), n: int64(total)}
	var cum int64
	for i, e := range distinct {
		v := math.Float64frombits(floatBits(e.key))
		cum += e.cnt
		s.values[i] = v
		s.cum[i] = cum
		s.sum += v * float64(e.cnt)
	}
	return s, nil
}

// orderedKey maps the bits of a finite float to a key whose unsigned
// order is the float order: a negative float flips every bit, a
// non-negative one sets the sign bit. floatBits inverts it.
func orderedKey(bits uint64) uint64 {
	return bits ^ (uint64(int64(bits)>>63) | 1<<63)
}

func floatBits(key uint64) uint64 {
	return key ^ (uint64(int64(^key)>>63) | 1<<63)
}

// f64Counter is a linear-probing multiset counter of ordered keys. A
// key's home slot is the top log2(len(slots)) bits of its Fibonacci
// hash, which mix every bit of the key: the low bits of the product
// would depend on the low mantissa bits only, and cluster the
// few-hundred-value samples of coarse periods. Key and count share a
// slot, so a probe touches one cache line.
type f64Counter struct {
	slots []counterSlot
	shift uint // 64 - log2(len(slots))
	used  int
}

type counterSlot struct {
	key uint64
	cnt int64 // 0 marks an empty slot
}

const fibonacci = 0x9E3779B97F4A7C15

// newF64Counter starts deliberately small: coarse-period occupancy
// populations have few distinct values, and a small table stays
// cache-resident through millions of adds. Diverse inputs (small-∆
// periods) pay a few amortised rehashes.
func newF64Counter() *f64Counter {
	const logSize = 10
	return &f64Counter{slots: make([]counterSlot, 1<<logSize), shift: 64 - logSize}
}

func (m *f64Counter) add(key uint64) {
	mask := uint64(len(m.slots) - 1)
	for i := (key * fibonacci) >> m.shift; ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.cnt == 0 {
			*s = counterSlot{key, 1}
			m.used++
			if 4*m.used > 3*len(m.slots) {
				m.grow()
			}
			return
		}
		if s.key == key {
			s.cnt++
			return
		}
	}
}

func (m *f64Counter) grow() {
	old := m.slots
	m.slots = make([]counterSlot, 2*len(old))
	m.shift--
	mask := uint64(len(m.slots) - 1)
	for _, s := range old {
		if s.cnt == 0 {
			continue
		}
		j := (s.key * fibonacci) >> m.shift
		for m.slots[j].cnt != 0 {
			j = (j + 1) & mask
		}
		m.slots[j] = s
	}
}

// sorted moves the occupied slots to the front of the table and returns
// them in ascending key order, by an LSD radix sort over the key bytes
// that skips every byte position all keys share. The counter is spent.
func (m *f64Counter) sorted() []counterSlot {
	var counts [8][256]int // counts[b][d]: keys whose byte b is d
	a := m.slots[:0]
	for _, s := range m.slots {
		if s.cnt != 0 {
			a = append(a, s)
			for b := range counts {
				counts[b][byte(s.key>>(8*b))]++
			}
		}
	}
	if len(a) < 2 {
		return a
	}
	// The passes alternate between the front of the table and a scratch
	// run of as many slots: the table's free tail when it is long
	// enough (load at most 1/2), else a new slice.
	buf := m.slots[len(a):]
	if len(buf) < len(a) {
		buf = make([]counterSlot, len(a))
	}
	buf = buf[:len(a)]
	for b := range counts {
		c := &counts[b]
		if c[byte(a[0].key>>(8*b))] == len(a) {
			continue
		}
		off := 0
		for d, n := range c {
			c[d] = off
			off += n
		}
		for _, s := range a {
			d := byte(s.key >> (8 * b))
			buf[c[d]] = s
			c[d]++
		}
		a, buf = buf, a
	}
	return a
}

// N returns the number of values in the sample (multiplicities
// included).
func (s *Sample) N() int { return int(s.n) }

// Values returns the sorted distinct values of the sample. The slice is
// owned by the sample and must not be modified; multiplicities are
// reflected by N, Mean and the scoring methods.
func (s *Sample) Values() []float64 { return s.values }

// Mean returns the sample mean.
func (s *Sample) Mean() float64 { return s.sum / float64(s.n) }

// Std returns the (population) standard deviation of the sample.
func (s *Sample) Std() float64 {
	m := s.Mean()
	var acc float64
	prev := int64(0)
	for i, v := range s.values {
		d := v - m
		acc += d * d * float64(s.cum[i]-prev)
		prev = s.cum[i]
	}
	return math.Sqrt(acc / float64(s.n))
}

// count returns the multiplicity of the i-th distinct value.
func (s *Sample) count(i int) int64 {
	if i == 0 {
		return s.cum[0]
	}
	return s.cum[i] - s.cum[i-1]
}

// CDF returns the empirical cumulative distribution P(X <= x).
func (s *Sample) CDF(x float64) float64 {
	// First distinct value > x; everything before it is <= x.
	i := sort.Search(len(s.values), func(j int) bool { return s.values[j] > x })
	if i == 0 {
		return 0
	}
	return float64(s.cum[i-1]) / float64(s.n)
}

// ICD returns the inverse cumulative distribution P(X > x), the curve
// plotted in Figures 3 and 4.
func (s *Sample) ICD(x float64) float64 { return 1 - s.CDF(x) }

// MKDistance returns the exact Monge-Kantorovich (Wasserstein-1)
// distance between the empirical distribution and the uniform density
// on [0,1]: the integral over [0,1] of |F(x) - x| with F the empirical
// CDF, integrated piecewise between the distinct values. The result
// lies in [0, 1/2]; 0 is reached only by the uniform distribution
// itself.
func (s *Sample) MKDistance() float64 {
	n := float64(s.n)
	total := 0.0
	prev := 0.0 // left end of the current constant piece of F
	for i := 0; i <= len(s.values); i++ {
		level := 0.0
		if i > 0 {
			level = float64(s.cum[i-1]) / n
		}
		next := 1.0
		if i < len(s.values) {
			next = s.values[i]
			if next > 1 {
				next = 1
			}
		}
		if next > prev {
			total += stepAbsIntegral(level, prev, next)
			prev = next
		}
	}
	return total
}

// stepAbsIntegral integrates |f - x| for x in [a, b].
func stepAbsIntegral(f, a, b float64) float64 {
	switch {
	case f <= a: // |f - x| = x - f throughout
		return (a+b)/2*(b-a) - f*(b-a)
	case f >= b: // |f - x| = f - x throughout
		return f*(b-a) - (a+b)/2*(b-a)
	default: // crosses zero at x = f
		da, db := f-a, b-f
		return (da*da + db*db) / 2
	}
}

// MKProximity maps MKDistance into a proximity score on [0,1]: 1 for
// the uniform distribution, 0 for a point mass at 0 or 1 (the two
// distributions at maximal M-K distance 1/2 from uniform). This is the
// score the occupancy method maximises over candidate periods.
func (s *Sample) MKProximity() float64 { return 1 - 2*s.MKDistance() }

// Selector scores how uniformly a sample spreads over [0,1]; the
// occupancy method picks the period maximising the score. Higher means
// closer to the stretched, information-preserving regime.
type Selector interface {
	Name() string
	Score(s *Sample) float64
}

// MKProximitySelector is the paper's primary selector (Section 4): the
// Monge-Kantorovich proximity with the uniform density.
type MKProximitySelector struct{}

// Name implements Selector.
func (MKProximitySelector) Name() string { return "mk-proximity" }

// Score implements Selector.
func (MKProximitySelector) Score(s *Sample) float64 { return s.MKProximity() }

// StdDevSelector scores with the standard deviation of the sample: a
// point mass (fully contracted distribution) scores 0, a spread-out
// distribution scores high.
type StdDevSelector struct{}

// Name implements Selector.
func (StdDevSelector) Name() string { return "standard-deviation" }

// Score implements Selector.
func (StdDevSelector) Score(s *Sample) float64 { return s.Std() }

// VariationCoefficientSelector scores with std/mean. Section 7 shows it
// is degenerate: occupancies at fine scales have a tiny mean, so the
// coefficient diverges towards the timestamp resolution.
type VariationCoefficientSelector struct{}

// Name implements Selector.
func (VariationCoefficientSelector) Name() string { return "variation-coefficient" }

// Score implements Selector.
func (VariationCoefficientSelector) Score(s *Sample) float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return s.Std() / m
}

// entropyBins is the binning used by the Shannon-entropy selector; the
// paper's comparison only needs a resolution much finer than the
// distribution features and much coarser than the trip count.
const entropyBins = 64

// EntropySelector scores with the Shannon entropy of a fixed-bin
// discretisation, normalised to [0,1] (1 = uniform over the bins).
type EntropySelector struct{}

// Name implements Selector.
func (EntropySelector) Name() string { return "shannon-entropy" }

// Score implements Selector.
func (EntropySelector) Score(s *Sample) float64 {
	counts := make([]int64, entropyBins)
	for i, v := range s.values {
		b := int(v * entropyBins)
		if b < 0 {
			b = 0
		}
		if b >= entropyBins {
			b = entropyBins - 1
		}
		counts[b] += s.count(i)
	}
	n := float64(s.n)
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log(p)
	}
	return h / math.Log(entropyBins)
}

// CRESelector scores with the cumulative residual entropy
// -∫ G(x) ln G(x) dx with G(x) = P(X > x), integrated exactly over the
// piecewise-constant G between the distinct values. The uniform
// distribution on [0,1] scores 1/4; contracted distributions score
// near 0.
type CRESelector struct{}

// Name implements Selector.
func (CRESelector) Name() string { return "cre" }

// Score implements Selector.
func (CRESelector) Score(s *Sample) float64 {
	n := float64(s.n)
	total := 0.0
	prev := 0.0
	for i := 0; i <= len(s.values); i++ {
		level := 0.0
		if i > 0 {
			level = float64(s.cum[i-1]) / n
		}
		next := 1.0
		if i < len(s.values) {
			next = s.values[i]
			if next > 1 {
				next = 1
			}
		}
		if next > prev {
			g := 1 - level
			if g > 0 {
				total -= g * math.Log(g) * (next - prev)
			}
			prev = next
		}
	}
	return total
}

// AllSelectors returns the five Section 7 uniformity measures, primary
// selector first. Index 2 is the degenerate variation coefficient, the
// position the figure harness expects.
func AllSelectors() []Selector {
	return []Selector{
		MKProximitySelector{},
		StdDevSelector{},
		VariationCoefficientSelector{},
		EntropySelector{},
		CRESelector{},
	}
}
