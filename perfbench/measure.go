package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

var inf = math.Inf(1)

// median returns the median of xs, 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least ten
// samples beyond it: the value with exactly ten larger samples, its
// percentile and the sample count. Below twenty samples that percentile
// would not even reach the median, so the tail is the maximum
// (percentile 100).
func tail(xs []float64) (v, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n < 20 {
		return s[n-1], 100, n
	}
	return s[n-11], 100 * float64(n-10) / float64(n), n
}

// procSample is the process-wide resource accounting at one instant.
type procSample struct {
	wall  time.Time
	cpu   time.Duration // user + system time of the whole process
	gcCPU float64       // seconds of GC CPU time (runtime/metrics estimate)
	alloc uint64        // cumulative heap allocation in bytes
}

type procDelta struct {
	wall, cpu time.Duration
	gcCPU     float64
	allocB    uint64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return procSample{wall: time.Now(), cpu: cpu, gcCPU: s[0].Value.Float64(), alloc: s[1].Value.Uint64()}
}

func (a procSample) sub(b procSample) procDelta {
	return procDelta{wall: a.wall.Sub(b.wall), cpu: a.cpu - b.cpu, gcCPU: a.gcCPU - b.gcCPU, allocB: a.alloc - b.alloc}
}

// setRuntime fills the runtime.* metrics from the timed phase's resource
// accounting.
func setRuntime(m metricSet, d procDelta, jobs int) {
	if jobs > 0 {
		m.set("runtime.alloc_mb_per_job", float64(d.allocB)/float64(jobs)/(1<<20))
	}
	if d.cpu > 0 {
		m.set("runtime.gc_cpu_frac", d.gcCPU/d.cpu.Seconds())
	}
	if d.wall > 0 {
		m.set("runtime.cpu_util", d.cpu.Seconds()/(d.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	}
}

// rssWatch tracks the resident-memory high-water mark of the timed
// phase. It resets the kernel's VmHWM (clear_refs 5) and, in case the
// kernel refuses, also samples VmRSS itself.
type rssWatch struct {
	reset bool
	stopC chan struct{}
	done  chan struct{}
	maxKB atomic.Int64
}

func startRSSWatch() *rssWatch {
	w := &rssWatch{stopC: make(chan struct{}), done: make(chan struct{})}
	w.reset = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
	go func() {
		defer close(w.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			if kb := statusKB("VmRSS"); kb > w.maxKB.Load() {
				w.maxKB.Store(kb)
			}
			select {
			case <-t.C:
			case <-w.stopC:
				return
			}
		}
	}()
	return w
}

// stop ends the watch and returns the peak in MiB.
func (w *rssWatch) stop() float64 {
	close(w.stopC)
	<-w.done
	peak := w.maxKB.Load()
	if w.reset {
		if hwm := statusKB("VmHWM"); hwm > peak {
			peak = hwm
		}
	}
	return float64(peak) / 1024
}

// statusKB reads one "<key>: <n> kB" line of /proc/self/status.
func statusKB(key string) int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(line[len(key)+1:])
		if len(fields) == 0 {
			return 0
		}
		kb, _ := strconv.ParseInt(fields[0], 10, 64)
		return kb
	}
	return 0
}

// span is one timed call into a layer. All spans of one job share Job;
// Parent is the enclosing span (0 for a job's root).
type span struct {
	Job    int64   `json:"job"`
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
	Tag    string  `json:"tag,omitempty"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer keeps every span in memory; dump writes them out when the run
// ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// jobTrace is one traced job: its ID (the root span's) and start.
type jobTrace struct {
	t     *tracer
	id    int64
	start time.Time
}

func (t *tracer) newJob() *jobTrace {
	return &jobTrace{t: t, id: t.ids.Add(1), start: time.Now()}
}

func (t *tracer) at(tm time.Time) float64 { return msOf(tm.Sub(t.epoch)) }

// add records a finished span under parent (0 means the job's root) and
// returns its ID.
func (j *jobTrace) add(parent int64, name, tag string, start, end time.Time) int64 {
	if j == nil {
		return 0
	}
	if parent == 0 {
		parent = j.id
	}
	id := j.t.ids.Add(1)
	j.t.put(span{Job: j.id, ID: id, Parent: parent, Name: name, Tag: tag, Start: j.t.at(start), End: j.t.at(end)})
	return id
}

// end records the job's root span.
func (j *jobTrace) end(tag string) {
	if j == nil {
		return
	}
	j.t.put(span{Job: j.id, ID: j.id, Name: "job", Tag: tag, Start: j.t.at(j.start), End: j.t.at(time.Now())})
}

func (t *tracer) put(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// perJob sums the durations of the spans named name per job.
func perJob(spans []span, name string) map[int64]float64 {
	out := make(map[int64]float64)
	for _, s := range spans {
		if s.Name == name {
			out[s.Job] += s.ms()
		}
	}
	return out
}

// durations lists the durations of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

func values(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timeIt runs fn reps times and returns the median duration in ms.
func timeIt(reps int, fn func() error) (float64, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, msOf(time.Since(start)))
	}
	return median(ds), nil
}
