// Command stackbench is the repository's benchmark: it composes the
// replicated cloud in-process — binapi socket server → cluster.Router →
// three cluster.Nodes (primary + replica, ack-after-replicate, 4 WAL
// shards, grouped fsync) → cloud.Durable — drives it over two binapi
// connections in a closed loop, checks the results, and prints every
// metric by name and unit. The last line of its output is one JSON
// object: the end-to-end metrics with --trace 0, the per-layer ones
// with --trace 1. See README.md in this directory.
//
//	bash stackbench/run.sh --workload keyed_heartbeat --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// Fixed shape of every run.
const (
	conns  = 2 // binapi connections, one request in flight each
	rounds = 5 // set-up + timed phase repetitions; metrics are their medians
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("stackbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "keyed_heartbeat, bare_heartbeat or binding_churn")
	seed := fl.Int64("seed", 1, "seed for device order and op interleaving")
	seconds := fl.Int("seconds", 12, "reference length of all timed phases together; fixes their op count")
	trace := fl.Int("trace", 0, "1: traced run, printing the per-layer metrics")
	data := fl.String("data", "stackbench/.data", "where the run's data directory is made (and removed)")
	spans := fl.String("spans", "", "with --trace 1, write the traced round's spans to this CSV file")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(stderr, "stackbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	cfg := config{w: w, seed: *seed, rounds: rounds, timedOps: w.opsPerSecond * *seconds / rounds}
	return execute(cfg, *data, *trace == 1, *spans, stdout, stderr)
}

// metric is one named figure.
type metric struct {
	name, unit string
	value      float64
}

// result is the last line of output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs cfg.rounds untraced rounds (and, if traced, one traced
// round plus the lone-store rungs) in a fresh data directory under
// dataRoot, and prints the report. It returns the exit code.
func execute(cfg config, dataRoot string, traced bool, spansPath string, out, errOut io.Writer) int {
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		fmt.Fprintf(errOut, "stackbench: %v\n", err)
		return 1
	}
	defer os.Remove(dataRoot) // only if no other run is using it
	dir, err := os.MkdirTemp(dataRoot, "run-")
	if err != nil {
		fmt.Fprintf(errOut, "stackbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir
	fmt.Fprintf(out, "stackbench workload=%s seed=%d rounds=%d timed_ops=%d devices=%d conns=%d gomaxprocs=%d "+
		"nodes=%d ack=after-replicate wal_shards=%d fsync=%s fs=%s readiness=epoll\n",
		cfg.w.name, cfg.seed, cfg.rounds, cfg.timedOps, cfg.w.devices, conns, runtime.GOMAXPROCS(0),
		nodeCount, walShards, walPolicy, fsType(dir))

	var rs []round
	attempted, failed := 0, 0
	fatal := func(err error) int {
		fmt.Fprintf(errOut, "stackbench: %v\n", err)
		writeResult(out, result{Attempted: max(attempted, 1), Failed: failed, Metrics: map[string]jsonMetric{}})
		return 1
	}
	for r := 0; r < cfg.rounds; r++ {
		res, err := runRound(cfg, r, false)
		attempted += res.ops
		failed += res.failed
		if err != nil {
			return fatal(fmt.Errorf("round %d: %w", r, err))
		}
		printRound(out, errOut, fmt.Sprintf("round %d", r), res)
		rs = append(rs, res)
	}
	report := endToEnd(rs)
	if traced {
		tr, err := runRound(cfg, 0, true)
		attempted += tr.ops
		failed += tr.failed
		if err != nil {
			return fatal(fmt.Errorf("traced round: %w", err))
		}
		printRound(out, errOut, "traced", tr)
		if spansPath != "" {
			if err := tr.trace.writeSpans(spansPath); err != nil {
				return fatal(err)
			}
		}
		layers, err := perLayer(cfg, rs, tr, out)
		if err != nil {
			return fatal(err)
		}
		printMetrics(out, report)
		report = layers
	}
	printMetrics(out, report)
	// Printed, not gated: they do not repeat between runs (README.md,
	// Steadiness). fail_ratio is 0 on every passing run.
	ungated := func(name, unit string, samples int, f func(round) float64) {
		fmt.Fprintf(out, "%-28s %14.4f %s (not gated; %d samples per round)\n", name, median(rs, f), unit, samples)
	}
	ungated("op_mean_us", "us", rs[0].ops, func(r round) float64 { return r.mean })
	ungated("op_p50_us", "us", rs[0].ops, func(r round) float64 { return r.p50 })
	ungated("op_p99_us", "us", rs[0].ops, func(r round) float64 { return r.p99 })
	ungated("cpu_us_per_op", "us", rs[0].ops, cpuPerOp)
	for _, k := range []opKind{opStatus, opBind, opUnbind} {
		if n, ok := rs[0].kindN[k]; ok && len(rs[0].kindN) > 1 {
			ungated(kindNames[k]+"_p50_us", "us", n, func(r round) float64 { return r.kindP50[k] })
		}
	}
	fmt.Fprintf(out, "%-28s %14.6f %s (%d failed of %d attempted)\n", "fail_ratio", float64(failed)/float64(max(attempted, 1)), "1", failed, attempted)
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, m := range report {
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	writeResult(out, res)
	if failed > 0 {
		return 1
	}
	return 0
}

func writeResult(out io.Writer, r result) {
	b, _ := json.Marshal(r) // plain structs and finite floats only
	fmt.Fprintf(out, "%s\n", b)
}

func printRound(out, errOut io.Writer, label string, r round) {
	if r.failure != nil {
		fmt.Fprintf(errOut, "stackbench: %s: %d ops failed, first: %v\n", label, r.failed, r.failure)
	}
	fmt.Fprintf(out, "%s: setup %.3fs, timed %d ops in %.3fs (mean %.0f, median window %.0f ops/s), "+
		"mean %.1fus p50 %.1fus p90 %.1fus p99 %.1fus p999 %.1fus over %d samples, %d failed\n",
		label, r.setup.Seconds(), r.ops, r.elapsed.Seconds(), float64(r.ops)/r.elapsed.Seconds(), r.rate,
		r.mean, r.p50, r.p90, r.p99, r.p999, r.ops, r.failed)
}

func printMetrics(out io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(out, "%-28s %14.4f %s\n", m.name, m.value, m.unit)
	}
}

// endToEnd computes the gated metrics: per round, then the median over
// rounds.
func endToEnd(rs []round) []metric {
	return []metric{
		{"setup_s", "s", median(rs, func(r round) float64 { return r.setup.Seconds() })},
		{"ops_per_s", "1/s", median(rs, func(r round) float64 { return r.rate })},
		{"live_heap_mb", "MB", median(rs, func(r round) float64 { return float64(r.liveHeap) / (1 << 20) })},
	}
}

// cpuPerOp is the process's user + system CPU over a timed phase, per
// op, in us.
func cpuPerOp(r round) float64 {
	return float64(r.after.cpu-r.before.cpu) / float64(time.Microsecond) / float64(r.ops)
}

// perLayer computes the per-layer metrics: counters from the untraced
// rounds (medians), self times from the traced round, and the lone
// Durable and Service rungs replaying round 0's op stream.
func perLayer(cfg config, rs []round, tr round, out io.Writer) ([]metric, error) {
	self, err := tr.trace.selfTimes()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	durable, err := runRung(cfg, 0, "durable")
	if err != nil {
		return nil, err
	}
	service, err := runRung(cfg, 0, "service")
	if err != nil {
		return nil, err
	}
	var client []int64
	for id := range tr.trace.spans[layerClient] {
		s := &tr.trace.spans[layerClient][id]
		client = append(client, s.end.Load()-s.start.Load())
	}
	selfSum := usP(self[layerClient], 0.5) + usP(self[layerRouter], 0.5) + usP(self[layerNode], 0.5)
	fmt.Fprintf(out, "trace: client span p50 %.1fus; binapi.self + router.self + node.us p50s sum to %.1fus\n",
		usP(client, 0.5), selfSum)

	nodeP50, durableP50 := usP(self[layerNode], 0.50), usP(durable, 0.50)
	delta := func(f func(r round) int64) float64 {
		return median(rs, func(r round) float64 { return perOp(r, f(r)) })
	}
	untracedOps := median(rs, func(r round) float64 { return float64(r.ops) / r.elapsed.Seconds() })
	return []metric{
		{"binapi.self_us_p50", "us", usP(self[layerClient], 0.50)},
		{"binapi.self_us_p99", "us", usP(self[layerClient], 0.99)},
		{"binapi.wire_bytes_per_op", "B", delta(func(r round) int64 { return r.after.wire - r.before.wire })},
		{"binapi.backpressured", "count", median(rs, func(r round) float64 { return float64(r.backpressured) })},
		{"binapi.goroutines", "count", median(rs, func(r round) float64 { return float64(r.goroutines) })},
		{"router.self_us_p50", "us", usP(self[layerRouter], 0.50)},
		{"node.us_p50", "us", nodeP50},
		{"node.us_p99", "us", usP(self[layerNode], 0.99)},
		{"node.replication_lag", "count", median(rs, func(r round) float64 { return float64(r.lag) })},
		{"ship.us_p50", "us", nodeP50 - durableP50},
		{"durable.us_p50", "us", durableP50},
		{"service.us_p50", "us", usP(service, 0.50)},
		{"wal.primary_bytes_per_op", "B", delta(func(r round) int64 { return r.walAfter.primary - r.walBefore.primary })},
		{"wal.replica_bytes_per_op", "B", delta(func(r round) int64 { return r.walAfter.replica - r.walBefore.replica })},
		{"wal.segments", "count", median(rs, func(r round) float64 { return float64(r.walAfter.segments) })},
		{"proc.read_syscalls_per_op", "count", delta(func(r round) int64 { return r.after.syscr - r.before.syscr })},
		{"proc.write_syscalls_per_op", "count", delta(func(r round) int64 { return r.after.syscw - r.before.syscw })},
		{"proc.read_bytes_per_op", "B", delta(func(r round) int64 { return r.after.rchar - r.before.rchar })},
		{"proc.write_bytes_per_op", "B", delta(func(r round) int64 { return r.after.wchar - r.before.wchar })},
		{"proc.cpu_us_per_op", "us", median(rs, cpuPerOp)},
		{"go.allocs_per_op", "count", delta(func(r round) int64 { return int64(r.after.mallocs - r.before.mallocs) })},
		{"go.gc_cycles", "count", median(rs, func(r round) float64 { return float64(r.after.gcs - r.before.gcs) })},
		{"go.gc_pause_ms", "ms", median(rs, func(r round) float64 { return float64(r.after.pauses-r.before.pauses) / 1e6 })},
		{"trace.overhead", "ratio", untracedOps / (float64(tr.ops) / tr.elapsed.Seconds())},
	}, nil
}
