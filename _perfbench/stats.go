package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of samples by linear interpolation
// between closest ranks (the "type 7" estimator), or 0 for no samples.
// samples is sorted in place.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	pos := q * float64(len(samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return samples[lo]*(1-frac) + samples[hi]*frac
}

// durQuantile is quantile over durations, in microseconds.
func durQuantile(samples []time.Duration, q float64) float64 {
	us := make([]float64, len(samples))
	for i, d := range samples {
		us[i] = float64(d) / float64(time.Microsecond)
	}
	return quantile(us, q)
}

// quartiles returns the first quartile, median and third quartile of
// values exactly as Python's statistics.quantiles(values, n=4) does
// (its default "exclusive" method), so a steadiness report here agrees
// with one computed in Python. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64, err error) {
	ld := len(values)
	if ld < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles: need at least 2 values, got %d", ld)
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], nil
}

// median is the middle of values as statistics.median gives it.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	mid := len(data) / 2
	if len(data)%2 == 1 {
		return data[mid]
	}
	return (data[mid-1] + data[mid]) / 2
}

// spread is the interquartile distance of values as a share of their
// median: the run-to-run noise figure BENCHMARK.json's bounds are set
// against.
func spread(values []float64) (float64, error) {
	q1, _, q3, err := quartiles(values)
	if err != nil {
		return 0, err
	}
	med := median(values)
	if med == 0 {
		return math.Inf(1), nil
	}
	return (q3 - q1) / math.Abs(med), nil
}

// digest hashes a sequence of float64s by their exact bit patterns, so
// two table passes digest alike only when every value is bit-identical
// (NaN cells included: a table row with no completions stays NaN).
type digest struct{ b []byte }

func (d *digest) add(vs ...float64) {
	for _, v := range vs {
		d.b = binary.LittleEndian.AppendUint64(d.b, math.Float64bits(v))
	}
}

func (d *digest) sum() string {
	s := sha256.Sum256(d.b)
	return hex.EncodeToString(s[:8])
}

// tally accounts for every attempted operation of a serving run: each
// acquire ends granted or failed, and a failed release counts against
// the run too. The split of failures mirrors the client's error
// taxonomy.
type tally struct {
	Attempted int64 // acquires issued
	Granted   int64 // acquires answered with a lease
	Timeouts  int64 // acquires answered ErrDeadline
	Overloads int64 // acquires answered ErrOverload
	Errors    int64 // any other acquire failure
	BadRel    int64 // releases that failed
}

// failed is the number of operations that did not succeed.
func (t tally) failed() int64 { return t.Timeouts + t.Overloads + t.Errors + t.BadRel }

// add folds o into t.
func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Granted += o.Granted
	t.Timeouts += o.Timeouts
	t.Overloads += o.Overloads
	t.Errors += o.Errors
	t.BadRel += o.BadRel
}

// check reports an accounting error: an acquire neither granted nor
// failed, or a grant count that differs from the daemon's own.
func (t tally) check(daemonGrants int64) error {
	acqFailed := t.Timeouts + t.Overloads + t.Errors
	if t.Granted+acqFailed != t.Attempted {
		return fmt.Errorf("accounting: %d acquires attempted but %d granted + %d failed",
			t.Attempted, t.Granted, acqFailed)
	}
	if t.Granted != daemonGrants {
		return fmt.Errorf("accounting: client saw %d grants, daemon metrics report %d",
			t.Granted, daemonGrants)
	}
	return nil
}

// failedFrac is failed operations over operations attempted.
func (t tally) failedFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.Attempted)
}

// minMaxRatio is the paper's t_N/t_1 read as worst-served over
// best-served: the smallest per-agent count over the largest. It is 0
// when some agent got nothing and 1 when all got the same.
func minMaxRatio(counts []float64) float64 {
	if len(counts) == 0 {
		return 0
	}
	lo, hi := counts[0], counts[0]
	for _, c := range counts[1:] {
		lo = math.Min(lo, c)
		hi = math.Max(hi, c)
	}
	if hi == 0 {
		return 0
	}
	return lo / hi
}
