package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile mirrors the fields of ../BENCHMARK.json the smoke test
// checks against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tiny shrinks a workload to a few ops per phase.
func tiny(w *workload) config {
	small := *w
	small.devices = 8
	small.idemWarm = min(small.idemWarm, 4)
	return config{w: &small, seed: 7, rounds: 1, timedOps: 60}
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and requires the checks to pass and every metric BENCHMARK.json names
// to print with its unit — in the report and in the closing JSON line.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, ours)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			t.Run(w.name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				dir := t.TempDir()
				spans := ""
				if traced {
					spans = filepath.Join(dir, "spans.csv")
				}
				var out, errOut bytes.Buffer
				if code := execute(tiny(w), filepath.Join(dir, "data"), traced, spans, &out, &errOut); code != 0 {
					t.Fatalf("exit %d\n%s\n%s", code, out.String(), errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics in the result, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + `\s+-?[0-9.]+ ` + regexp.QuoteMeta(m.Unit) + `$`)
					if !line.MatchString(out.String()) {
						t.Errorf("metric %s is not printed with unit %s", m.Name, m.Unit)
					}
				}
				if !strings.Contains(out.String(), "fail_ratio") {
					t.Error("fail_ratio is not printed")
				}
				if traced {
					b, err := os.ReadFile(spans)
					if err != nil || !bytes.Contains(b, []byte(",node,")) {
						t.Errorf("spans file: %v", err)
					}
				}
				if _, err := os.Stat(filepath.Join(dir, "data")); !os.IsNotExist(err) {
					t.Errorf("data directory left behind: %v", err)
				}
			})
		}
	}
}

// TestPlanSeeded requires the generated stream to depend on the seed
// and on nothing else.
func TestPlanSeeded(t *testing.T) {
	for _, w := range workloads {
		a := makePlan(w, 600, 1, 0)
		b := makePlan(w, 600, 1, 0)
		c := makePlan(w, 600, 2, 0)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different plans", w.name)
		}
		if reflect.DeepEqual(a.timed, c.timed) {
			t.Errorf("%s: seed does not change the timed ops", w.name)
		}
		for ci := range a.timed {
			if n := len(a.timed[ci]); n < 298 || n > 300 {
				t.Errorf("%s: connection %d has %d timed ops", w.name, ci, len(a.timed[ci]))
			}
			for _, o := range a.timed[ci] {
				if int(o.dev)%conns != ci {
					t.Fatalf("%s: connection %d sends for device %d it does not own", w.name, ci, o.dev)
				}
			}
		}
		if w.name == "binding_churn" && !slices.ContainsFunc(a.timed[0], func(o op) bool { return o.kind == opUnbind }) {
			t.Errorf("%s: no unbinds", w.name)
		}
	}
}
