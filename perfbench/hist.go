package main

import (
	"math"
	"math/bits"
)

// Latency histograms are log-linear: values below histSub nanoseconds get
// one bucket each, and every power of two above that is split into
// histHalf buckets, so a bucket is never wider than 1/histHalf of the
// values it holds (0.2%). Quantiles interpolate within their bucket.
const (
	histSubBits  = 10
	histSub      = 1 << histSubBits
	histHalf     = histSub / 2
	histMaxShift = 40 // values up to 2^50 ns
	histBuckets  = histSub + histMaxShift*histHalf
)

// hist counts latency samples in nanoseconds.
type hist struct {
	counts []uint32
	n      int64
}

func newHist() *hist { return &hist{counts: make([]uint32, histBuckets)} }

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - histSubBits
	if shift > histMaxShift {
		return histBuckets - 1
	}
	return histSub + (shift-1)*histHalf + int(uint64(v)>>shift) - histHalf
}

// histBounds returns bucket i's lowest value and width.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	j := i - histSub
	shift := j/histHalf + 1
	m := uint64(j%histHalf + histHalf)
	return float64(m << shift), float64(uint64(1) << shift)
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, or NaN unless at least
// minAbove samples lie above it — the highest percentile a sample
// count can support.
func (h *hist) quantile(q float64) float64 {
	const minAbove = 10
	if h.n == 0 || float64(h.n)-math.Ceil(q*float64(h.n)) < minAbove {
		return math.NaN()
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			lo, w := histBounds(i)
			return lo + w*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := histBounds(histBuckets - 1)
	return lo + w
}
