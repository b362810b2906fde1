package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
)

// percentile is the nearest-rank percentile of xs (q in (0,100]): the
// smallest sample with at least q% of the samples at or below it. It
// reports 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// bucket is where one sent operation ended up. Every op lands in exactly
// one.
type bucket int

const (
	bucketOK        bucket = iota
	bucketShed             // 429: admission control refused it
	bucketBusy             // 503: queue full or breaker open
	bucketClientErr        // any other 4xx
	bucketServerErr        // any other 5xx (and unexpected statuses)
	bucketTransport        // no HTTP reply at all
	bucketUnsolved         // ?wait=1 reply with solved:false
	numBuckets
)

var bucketNames = [numBuckets]string{"ok", "shed", "busy", "client-err", "server-err", "transport", "unsolved"}

// classify maps an HTTP exchange to its bucket. status is 0 when the
// request failed in transport; solved is only consulted for 200 replies to
// ?wait=1 mutations.
func classify(status int, err error, solved bool) bucket {
	switch {
	case err != nil || status == 0:
		return bucketTransport
	case status == http.StatusTooManyRequests:
		return bucketShed
	case status == http.StatusServiceUnavailable:
		return bucketBusy
	case status >= 400 && status < 500:
		return bucketClientErr
	case status < 200 || status >= 300:
		return bucketServerErr
	case !solved:
		return bucketUnsolved
	}
	return bucketOK
}

// accounting counts sent ops and where each landed. An op is counted as
// sent when its request goes out and booked into a bucket once its outcome
// is known, so an op dropped on any path between the two breaks
// sent == Σ buckets.
type accounting struct {
	Sent    int64
	Buckets [numBuckets]int64
}

func (a *accounting) send() { a.Sent++ }

func (a *accounting) book(b bucket) { a.Buckets[b]++ }

func (a *accounting) merge(o accounting) {
	a.Sent += o.Sent
	for i := range a.Buckets {
		a.Buckets[i] += o.Buckets[i]
	}
}

// failed is every sent op that did not land in ok. It is derived from the
// bucket sum, so it is only meaningful once verify has passed.
func (a accounting) failed() int64 {
	var n int64
	for b, c := range a.Buckets {
		if bucket(b) != bucketOK {
			n += c
		}
	}
	return n
}

// verify checks the accounting identity sent == Σ buckets.
func (a accounting) verify() error {
	var sum int64
	for _, c := range a.Buckets {
		sum += c
	}
	if sum != a.Sent {
		return fmt.Errorf("accounting: sent %d != sum of buckets %d (%v)", a.Sent, sum, a.Buckets)
	}
	return nil
}

func (a accounting) errorRate() float64 {
	if a.Sent == 0 {
		return 0
	}
	return float64(a.failed()) / float64(a.Sent)
}

func (a accounting) String() string {
	s := fmt.Sprintf("sent=%d", a.Sent)
	for b, c := range a.Buckets {
		s += fmt.Sprintf(" %s=%d", bucketNames[b], c)
	}
	return s
}
