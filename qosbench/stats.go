package main

import (
	"bufio"
	"encoding/json"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// hist is a log-linear latency histogram in nanoseconds: 128 buckets per
// power of two (0.8% wide), fixed memory however many samples it holds,
// so recording millions of in-process cycles does not inflate the
// benchmark's own peak RSS. Quantiles interpolate by rank inside the
// bucket they fall in.
type hist struct {
	counts []int64
	n      int64
}

const (
	histBits = 7
	histSub  = 1 << histBits
)

// Up to 2^37 ns, about two minutes; longer samples land in the last bucket.
func newHist() *hist { return &hist{counts: make([]int64, histSub*38)} }

func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	shift := bits.Len64(v) - (histBits + 1) // keep the top histBits+1 bits
	if shift <= 0 {
		return int(v)
	}
	return shift*histSub + int(v>>uint(shift))
}

// bucketRange returns the [lo, hi) nanosecond range of bucket i.
func bucketRange(i int) (lo, hi float64) {
	if i < 2*histSub {
		return float64(i), float64(i + 1)
	}
	shift := i/histSub - 1
	m := i - shift*histSub
	lo = float64(uint64(m) << uint(shift))
	return lo, lo + float64(uint64(1)<<uint(shift))
}

func (h *hist) add(d time.Duration) {
	i := bucketOf(int64(d))
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.n++
}

func (h *hist) reset() {
	clear(h.counts)
	h.n = 0
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := bucketRange(i)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, _ := bucketRange(len(h.counts) - 1)
	return lo
}

// chunks records latencies in consecutive chunks of a fixed sample
// count. A quantile is the median over full chunks of each chunk's
// quantile, so one burst of interference from outside the benchmark
// moves one chunk, not the result; with no full chunk it is the pooled
// quantile.
type chunks struct {
	size int64
	full []*hist
	cur  *hist
}

// chunkSize is the default: the fewest samples whose p99 still has ten
// samples beyond it.
const chunkSize = 1000

func newChunks(size int64) *chunks { return &chunks{size: size, cur: newHist()} }

func (c *chunks) add(d time.Duration) {
	c.cur.add(d)
	if c.cur.n >= c.size {
		c.full = append(c.full, c.cur)
		c.cur = newHist()
	}
}

// merge takes o's full chunks and folds its partial one into c's.
func (c *chunks) merge(o *chunks) {
	c.full = append(c.full, o.full...)
	c.cur.merge(o.cur)
}

func (c *chunks) n() int64 {
	n := c.cur.n
	for _, h := range c.full {
		n += h.n
	}
	return n
}

// each returns every full chunk's q-quantile divided by unit.
func (c *chunks) each(q, unit float64) []float64 {
	xs := make([]float64, len(c.full))
	for i, h := range c.full {
		xs[i] = h.quantile(q) / unit
	}
	return xs
}

func (c *chunks) quantile(q float64) float64 {
	if len(c.full) == 0 {
		return c.cur.quantile(q)
	}
	return median(c.each(q, 1))
}

// median returns the median of xs (0 when empty); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// quantile returns the q-quantile of xs, interpolating between order
// statistics (0 when empty); xs is reordered.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (xs[i+1]-xs[i])*(pos-float64(i))
}

// liveHeapMB is the heap the process holds after a full collection: the
// serving state and the generator's retained inputs. A peak resident size
// would also count the garbage of the last collection cycle, whose size
// depends on when the collector ran and wanders by a fifth from run to
// run when the daemon shares the process with its load generator.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent links a call to the one that caused it; N is
// how many operations a batched span covers (1 for a single call).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	N      int64  `json:"n"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for a traced run and writes them out at
// the end. A nil *tracer records nothing, so untraced runs pay only a nil
// check at each call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

// maxSpans caps what one run keeps; calls past the cap are timed as
// before but not stored.
const maxSpans = 1 << 18

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<12)} }

// id reserves a span ID, so that children can name a parent that has
// not ended yet.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under a reserved ID (0 reserves one).
func (t *tracer) record(id, parent, req int64, name string, n int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	if len(t.spans) >= maxSpans {
		return
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name, N: n,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
}

// perOp returns, for every span name, the median over its spans of
// self time per operation in nanoseconds. Self time is a span's duration
// minus the durations of its direct children.
func (t *tracer) perOp() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := make(map[string][]float64)
	for _, s := range t.spans {
		self := s.End - s.Start - child[s.ID]
		byName[s.Name] = append(byName[s.Name], float64(self)/float64(s.N))
	}
	out := make(map[string]float64, len(byName))
	for name, xs := range byName {
		out[name] = median(xs)
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
