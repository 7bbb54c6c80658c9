package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 of 500 samples is the fifth-largest value, which is
// noise, not a tail.
const minTail = 10

var errThinTail = errors.New("too few samples beyond the percentile")

// rank returns the 0-based index of the p-quantile (0 < p < 1) among n
// sorted samples, refusing when fewer than minTail samples lie beyond it.
func rank(n int, p float64) (int, error) {
	i := max(int(math.Ceil(p*float64(n)))-1, 0)
	if beyond := n - 1 - i; beyond < minTail {
		return 0, fmt.Errorf("%w: p%g of %d samples has %d beyond it, want %d", errThinTail, p*100, n, max(beyond, 0), minTail)
	}
	return i, nil
}

// median of a small set of values; the mean of the middle two for an
// even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// histBuckets covers every int64: 16 sub-buckets for each power of two.
const histBuckets = 64 * 16

// hist is a lock-free log-linear histogram of nanosecond durations: 16
// sub-buckets per power of two, so a bucket spans at most 1/16 of its
// values.
type hist struct{ b [histBuckets]atomic.Int64 }

func bucketOf(ns int64) int {
	if ns < 16 {
		return int(max(ns, 0))
	}
	l := bits.Len64(uint64(ns))
	m := int(uint64(ns) >> (l - 5)) // top five bits, in [16, 31]
	return (l-4)*16 + m - 16
}

// bucketBounds is bucket i's value range [lo, hi).
func bucketBounds(i int) (lo, hi float64) {
	if i < 16 {
		return float64(i), float64(i + 1)
	}
	shift := i/16 - 1
	m := uint64(i%16 + 16)
	return float64(m << shift), float64((m + 1) << shift)
}

// interpolate places the sample of rank r within a bucket spanning
// [lo, hi) that holds samples cum..cum+n-1, assuming they spread evenly.
func interpolate(lo, hi float64, r, cum, n int64) float64 {
	return lo + (hi-lo)*(float64(r-cum)+0.5)/float64(n)
}

func (h *hist) add(ns int64) { h.b[bucketOf(ns)].Add(1) }

func (h *hist) counts() []int64 {
	out := make([]int64, len(h.b))
	for i := range h.b {
		out[i] = h.b[i].Load()
	}
	return out
}

// histPercentile reads the p-quantile from bucket counts, interpolated
// within its bucket. It refuses a p-quantile with fewer than minTail
// samples beyond it.
func histPercentile(counts []int64, p float64) (float64, error) {
	var n int64
	for _, c := range counts {
		n += c
	}
	r, err := rank(int(n), p)
	if err != nil {
		return 0, err
	}
	var cum int64
	for i, c := range counts {
		if cum+c > int64(r) {
			lo, hi := bucketBounds(i)
			return interpolate(lo, hi, int64(r), cum, c), nil
		}
		cum += c
	}
	return 0, errThinTail // unreachable: r < n
}

// subCounts returns b - a element-wise.
func subCounts(b, a []int64) []int64 {
	out := make([]int64, len(b))
	for i := range b {
		out[i] = b[i] - a[i]
	}
	return out
}

// tally is one caller's record of a timed phase.
type tally struct {
	lat        hist // every call's latency
	answered   int64
	attempted  int64
	failed     int64
	lifecycles int64
	callNs     int64
}

// summary merges the callers' tallies of one timed phase.
type summary struct {
	elapsed    time.Duration
	lat        []int64 // latency histogram counts
	answered   int64
	attempted  int64
	failed     int64
	lifecycles int64
	callNs     int64
}

func summarize(ts []*tally, elapsed time.Duration) *summary {
	s := &summary{elapsed: elapsed, lat: make([]int64, histBuckets)}
	for _, t := range ts {
		for i, c := range t.lat.counts() {
			s.lat[i] += c
		}
		s.answered += t.answered
		s.attempted += t.attempted
		s.failed += t.failed
		s.lifecycles += t.lifecycles
		s.callNs += t.callNs
	}
	return s
}

// qps is queries answered per second of the timed phase.
func (s *summary) qps() float64 { return float64(s.answered) / s.elapsed.Seconds() }

// latencyUs is the p-quantile call latency of the timed phase in µs.
func (s *summary) latencyUs(p float64) (float64, error) {
	v, err := histPercentile(s.lat, p)
	return v / 1e3, err
}

// ---- machine speed ----

// The benchmark runs on a few vCPUs of a shared host, and neighbours'
// load changes how fast those vCPUs run by up to a third from one minute
// to the next, with no steal time reported: the process keeps its CPUs
// just as busy and gets less done. Every time the benchmark measures
// scales with that speed, so the graded times are reported at a fixed
// reference speed. A probe times a fixed piece of standard-library work
// every probeEvery through the timed phase; its median time against
// probeRef is how much slower than the reference the machine ran.

// probeDoc is the probe's input: a 64-query batch in the JSON the HTTP
// edge decodes, so the probe does the byte scanning and number parsing
// that most of the serving stack's CPU time goes to.
var probeDoc = func() []byte {
	b := []byte(`{"queries":[`)
	for i := 0; i < batchSize; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"query":`...)
		b = strconv.AppendFloat(b, float64(i)*15.625+0.375, 'f', -1, 64)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}()

const (
	probeEvery = 10 * time.Millisecond
	// probeRef is near the probe's median under load on the machine
	// LAYERS.md was measured on (65-85 µs), so graded times there read
	// close to measured ones. A comparison between runs depends only on
	// the ratio of their probes, not on this value.
	probeRef = 75 * time.Microsecond
	// minProbes is the fewest samples a speed is read from.
	minProbes = 50
)

// probeWork validates probeDoc, then parses and re-formats each of its
// numbers, four times. It allocates nothing, so a change in how much the
// program under test allocates cannot move it through GC assists.
func probeWork(buf []byte) []byte {
	for range 4 {
		if !json.Valid(probeDoc) {
			panic("svtperf: the probe document is not JSON")
		}
		buf = buf[:0]
		for i := 0; i < len(probeDoc); {
			j := i
			for j < len(probeDoc) && (probeDoc[j] == '.' || '0' <= probeDoc[j] && probeDoc[j] <= '9') {
				j++
			}
			if j == i {
				i++
				continue
			}
			f, err := strconv.ParseFloat(string(probeDoc[i:j]), 64)
			if err != nil {
				panic(err)
			}
			buf = strconv.AppendFloat(buf, f, 'f', -1, 64)
			i = j
		}
	}
	return buf
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU is the calling thread's CPU time. Unlike wall time it stands
// still while the kernel runs another thread in the probe's place, so how
// often the program under test wakes threads does not move the probe.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("svtperf: clock_gettime: %v", errno))
	}
	return time.Duration(ts.Nano())
}

// probe samples the machine's speed from its own goroutine, locked to
// one thread so that thread's CPU clock times it.
type probe struct {
	stop, done chan struct{}
	ns         []float64
}

func startProbe() *probe {
	p := &probe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		defer close(p.done)
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		var buf []byte
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
			t0 := threadCPU()
			buf = probeWork(buf)
			p.ns = append(p.ns, float64(threadCPU()-t0))
		}
	}()
	return p
}

// finish stops the probe and returns its median time: the median, so a
// sample that page faults or interrupts slowed does not move it.
func (p *probe) finish() (time.Duration, error) {
	close(p.stop)
	<-p.done
	if len(p.ns) < minProbes {
		return 0, fmt.Errorf("%d speed probes, want at least %d", len(p.ns), minProbes)
	}
	return time.Duration(median(p.ns)), nil
}

// procSample is a reading of the process-wide counters the proc.*
// metrics are differences of.
type procSample struct {
	cpu     time.Duration // user + system
	allocs  uint64
	gcCPU   float64
	usedCPU float64
	sched   *metrics.Float64Histogram
}

var procMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sched/latencies:seconds",
}

func readProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ms := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return procSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:  ms[0].Value.Uint64(),
		gcCPU:   ms[1].Value.Float64(),
		usedCPU: ms[2].Value.Float64() - ms[3].Value.Float64(),
		sched:   ms[4].Value.Float64Histogram(),
	}
}

// procDelta is what the process spent between two samples.
type procDelta struct {
	cpuUs      float64
	allocs     float64
	gcFrac     float64
	schedP99Us float64
}

func diffProc(a, b procSample) (procDelta, error) {
	d := procDelta{
		cpuUs:  float64(b.cpu-a.cpu) / 1e3,
		allocs: float64(b.allocs - a.allocs),
	}
	if used := b.usedCPU - a.usedCPU; used > 0 {
		d.gcFrac = (b.gcCPU - a.gcCPU) / used
	}
	counts := make([]int64, len(b.sched.Counts))
	for i := range counts {
		counts[i] = int64(b.sched.Counts[i] - a.sched.Counts[i])
	}
	var n int64
	for _, c := range counts {
		n += c
	}
	r, err := rank(int(n), 0.99)
	if err != nil {
		return d, fmt.Errorf("scheduling latency: %w", err)
	}
	var cum int64
	for i, c := range counts {
		if cum+c > int64(r) {
			// Bucket i spans Buckets[i] to Buckets[i+1]; the last is +Inf.
			lo, hi := b.sched.Buckets[i], b.sched.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = lo
			}
			d.schedP99Us = interpolate(lo, hi, int64(r), cum, c) * 1e6
			break
		}
		cum += c
	}
	return d, nil
}

// peakRSSMiB reads the process's peak resident set size.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// fingerprint names the machine a result was measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	WALFS      string `json:"walFilesystem"`
}

func machine(walDir string) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		WALFS:      fsType(walDir),
	}
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType returns the filesystem type of the mount holding dir: the entry
// of /proc/self/mounts with the longest mount point that contains it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := strings.ReplaceAll(f[1], `\040`, " ")
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), f[2]
		}
	}
	return typ
}
