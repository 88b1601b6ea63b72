package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
)

// config is one benchmark invocation.
type config struct {
	w        *workload
	seed     int64
	rounds   int
	timedOps int    // per round, over all connections
	dir      string // fresh data directory of this run
}

// drive runs each connection's ops as a closed loop, one goroutine per
// connection with one request in flight, and waits for all of them.
// When sm is non-nil it receives each op's latency and completion time.
// With a tracer, op i of connection c is traced under ID offset(c)+i.
// Failures are counted and the first one is returned.
func drive(clouds []transport.Cloud, f fleet, lists [][]op, sm *samples, tr *tracer) (failed int, first error) {
	var wg sync.WaitGroup
	fails := make([]int, len(lists))
	errs := make([]error, len(lists))
	base := int64(0)
	for c := range lists {
		wg.Add(1)
		go func(c int, base int64) {
			defer wg.Done()
			for i, o := range lists[c] {
				var spanStart int64
				if tr != nil {
					tr.begin(o.dev, base+int64(i))
					spanStart = tr.now()
				}
				t0 := time.Now()
				err := send(clouds[c], f, o)
				t1 := time.Now()
				if tr != nil {
					tr.set(layerClient, base+int64(i), spanStart, tr.now())
					tr.end(o.dev)
				}
				if sm != nil {
					sm.lat[c][i] = int64(t1.Sub(t0))
					sm.done[c][i] = int64(t1.Sub(sm.start))
				}
				if err != nil {
					fails[c]++
					if errs[c] == nil {
						errs[c] = err
					}
				}
			}
		}(c, base)
		base += int64(len(lists[c]))
	}
	wg.Wait()
	for c := range lists {
		failed += fails[c]
		if first == nil {
			first = errs[c]
		}
	}
	return failed, first
}

func opCount(lists [][]op) int {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	return n
}

// samples holds, per connection and op, the op's latency and its
// completion time, both in ns; completion is counted from start.
type samples struct {
	start     time.Time
	lat, done [][]int64
}

func newSamples(lists [][]op) *samples {
	sm := &samples{start: time.Now(), lat: make([][]int64, len(lists)), done: make([][]int64, len(lists))}
	for c, l := range lists {
		sm.lat[c] = make([]int64, len(l))
		sm.done[c] = make([]int64, len(l))
	}
	return sm
}

// byKind splits latencies by op kind; all holds every latency.
func (sm *samples) byKind(lists [][]op) (all []int64, kind map[opKind][]int64) {
	kind = make(map[opKind][]int64)
	for c, l := range lists {
		for i, o := range l {
			all = append(all, sm.lat[c][i])
			kind[o.kind] = append(kind[o.kind], sm.lat[c][i])
		}
	}
	return all, kind
}

// windowRate cuts the merged completion times into consecutive windows
// of w ops and returns the median window's throughput in ops/s. A
// stall of the box — the vCPU descheduled for a few ms — slows the
// windows it lands in, not the median one.
func (sm *samples) windowRate(w int) float64 {
	var done []int64
	for _, d := range sm.done {
		done = append(done, d...)
	}
	slices.Sort(done)
	var rates []float64
	for i := 0; i+w < len(done); i += w {
		rates = append(rates, float64(w)*1e9/float64(max(done[i+w]-done[i], 1)))
	}
	if len(rates) == 0 {
		return float64(len(done)) * 1e9 / float64(max(done[len(done)-1], 1))
	}
	slices.Sort(rates)
	return rates[len(rates)/2]
}

// counters is a snapshot of what a timed phase is charged with.
type counters struct {
	at                   time.Time
	cpu                  time.Duration // process user + system
	rchar, wchar         int64         // /proc/self/io
	syscr, syscw         int64
	mallocs, gcs, pauses uint64
	wire                 int64
}

func readCounters(s *stack) (counters, error) {
	var c counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.gcs, c.pauses = ms.Mallocs, uint64(ms.NumGC), ms.PauseTotalNs
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, fmt.Errorf("getrusage: %w", err)
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	io, err := os.Open("/proc/self/io")
	if err != nil {
		return c, err
	}
	defer io.Close()
	sc := bufio.NewScanner(io)
	for sc.Scan() {
		name, val, _ := strings.Cut(sc.Text(), ": ")
		v, _ := strconv.ParseInt(val, 10, 64)
		switch name {
		case "rchar":
			c.rchar = v
		case "wchar":
			c.wchar = v
		case "syscr":
			c.syscr = v
		case "syscw":
			c.syscw = v
		}
	}
	if err := sc.Err(); err != nil {
		return c, fmt.Errorf("read /proc/self/io: %w", err)
	}
	c.wire = s.wireBytes()
	c.at = time.Now()
	return c, nil
}

// round is what one set-up + timed phase measured.
type round struct {
	setup, elapsed time.Duration
	ops, failed    int
	failure        error              // the first failed op's error
	rate           float64            // median window throughput, ops/s
	mean           float64            // us, over the timed ops
	p50, p90       float64            // us, over the timed ops
	p99, p999      float64            // us, over the timed ops
	kindP50        map[opKind]float64 // us, per kind over the timed ops
	kindN          map[opKind]int     // timed ops per kind
	before, after  counters
	liveHeap       uint64
	walBefore      walUsage
	walAfter       walUsage
	backpressured  uint64
	goroutines     int
	lag            uint64
	trace          *tracer
}

// runRound composes a fresh stack in its own directory, sets it up and
// warms it, times the workload's fixed op count, runs the correctness
// checks, and tears the stack down. A failed check is an
// error; failed ops are counted. A traced round records the timed ops'
// spans in res.trace.
func runRound(cfg config, r int, traced bool) (res round, err error) {
	start := time.Now()
	dir := filepath.Join(cfg.dir, fmt.Sprintf("round-%d", r))
	defer os.RemoveAll(dir)
	f := newFleet(cfg.w.devices)
	p := makePlan(cfg.w, cfg.timedOps, cfg.seed, r)
	var tr *tracer
	if traced {
		tr = newTracer(f, opCount(p.timed))
	}
	s, err := openStack(dir, f, tr)
	if err != nil {
		return res, fmt.Errorf("compose stack: %w", err)
	}
	defer func() {
		if cerr := s.close(); cerr != nil && err == nil {
			err = fmt.Errorf("close stack: %w", cerr)
		}
	}()
	clouds := s.clouds()
	if err := registerUsers(clouds[0]); err != nil {
		return res, err
	}
	if n, ferr := drive(clouds, f, p.setup, nil, nil); n > 0 {
		return res, fmt.Errorf("set-up: %d ops failed, first: %w", n, ferr)
	}
	p.setup = nil
	if res.walBefore, err = measureWAL(dir); err != nil {
		return res, err
	}
	runtime.GC()
	if res.before, err = readCounters(s); err != nil {
		return res, err
	}
	res.setup = res.before.at.Sub(start)

	sm := newSamples(p.timed)
	res.failed, res.failure = drive(clouds, f, p.timed, sm, tr)
	if res.after, err = readCounters(s); err != nil {
		return res, err
	}
	res.elapsed = res.after.at.Sub(res.before.at)
	res.ops = opCount(p.timed)
	all, kind := sm.byKind(p.timed)
	res.mean = usMean(all)
	res.p50, res.p90, res.p99, res.p999 = usP(all, 0.50), usP(all, 0.90), usP(all, 0.99), usP(all, 0.999)
	res.kindP50, res.kindN = make(map[opKind]float64), make(map[opKind]int)
	for k, v := range kind {
		res.kindP50[k], res.kindN[k] = usP(v, 0.50), len(v)
	}
	res.rate = sm.windowRate(max(cfg.w.opsPerSecond/100, 1))
	p.timed = nil // only the stack and the fleet stay live for the heap reading
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.liveHeap = ms.HeapAlloc
	if res.walAfter, err = measureWAL(dir); err != nil {
		return res, err
	}
	if err := s.checkReplicas(); err != nil {
		return res, err
	}
	if err := s.checkBindings(f, cfg.w.bound); err != nil {
		return res, err
	}
	res.backpressured = s.srv.Backpressured()
	res.goroutines = s.srv.Goroutines()
	res.lag = s.replicationLag()
	res.trace = tr
	return res, nil
}

// runRung replays round r's set-up and timed ops into one lone store —
// a cloud.OpenDurable ("durable") or a cloud.NewService ("service") —
// over as many goroutines as the stack has connections, and returns
// the timed ops' latencies.
func runRung(cfg config, r int, rung string) ([]int64, error) {
	f := newFleet(cfg.w.devices)
	p := makePlan(cfg.w, cfg.timedOps, cfg.seed, r)
	reg, err := f.registry()
	if err != nil {
		return nil, err
	}
	var c transport.Cloud
	switch rung {
	case "durable":
		dir := filepath.Join(cfg.dir, "rung-durable")
		defer os.RemoveAll(dir)
		d, err := cloud.OpenDurable(dir, design, reg, cloud.DurableOptions{
			WAL: wal.Options{Policy: walPolicy}, WALShards: walShards,
		})
		if err != nil {
			return nil, err
		}
		defer d.Close()
		c = d
	case "service":
		svc, err := cloud.NewService(design, reg)
		if err != nil {
			return nil, err
		}
		c = svc
	default:
		return nil, fmt.Errorf("unknown rung %q", rung)
	}
	clouds := make([]transport.Cloud, conns)
	for i := range clouds {
		clouds[i] = c
	}
	if err := registerUsers(c); err != nil {
		return nil, err
	}
	if n, ferr := drive(clouds, f, p.setup, nil, nil); n > 0 {
		return nil, fmt.Errorf("%s rung set-up: %d ops failed, first: %w", rung, n, ferr)
	}
	sm := newSamples(p.timed)
	if n, ferr := drive(clouds, f, p.timed, sm, nil); n > 0 {
		return nil, fmt.Errorf("%s rung: %d ops failed, first: %w", rung, n, ferr)
	}
	all, _ := sm.byKind(p.timed)
	return all, nil
}

// percentile returns the nearest-rank q-quantile of xs (unsorted).
func percentile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return float64(s[max(0, min(i, len(s)-1))])
}

// usP is percentile in microseconds.
func usP(xs []int64, q float64) float64 { return percentile(xs, q) / 1e3 }

// usMean is the mean of xs (ns) in microseconds.
func usMean(xs []int64) float64 {
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(max(len(xs), 1)) / 1e3
}

// median returns the median of the per-round values of f.
func median(rs []round, f func(round) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	slices.Sort(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// perOp divides a counter delta by the round's timed ops.
func perOp(r round, delta int64) float64 { return float64(delta) / float64(r.ops) }

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x794C7630:
		return "overlayfs"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
