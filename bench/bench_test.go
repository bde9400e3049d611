package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// manifest is BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// benchBinary builds the command once per test binary.
func benchBinary(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "bench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return exe
}

// run executes the command the way the driver does and returns its exit
// code and the result object it printed last.
func run(t *testing.T, exe string, args ...string) (int, contractLine) {
	t.Helper()
	args = append(args, "-out", t.TempDir())
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%v: last line %q is not a result: %v\nstderr: %s", args, lines[len(lines)-1], err, stderr.String())
	}
	return code, line
}

func TestPlanHashFollowsSeed(t *testing.T) {
	sz := sizes{subs: 100, reserve: 50, planLen: 1 << 10}
	for _, w := range workloads {
		if w.fed {
			sz.subs = w.sizes.subs
		}
		a, b, c := w.generate(7, sz), w.generate(7, sz), w.generate(8, sz)
		if a.hash != b.hash {
			t.Errorf("%s: seed 7 gave plan hashes %s and %s", w.name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 gave the same plan hash %s", w.name, a.hash)
		}
		if len(a.profiles) != sz.subs+sz.reserve && !w.fed && w.sizes.reserve > 0 {
			t.Errorf("%s: %d profiles, want %d", w.name, len(a.profiles), sz.subs+sz.reserve)
		}
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	below := map[string]string{"tree": "", "core": "tree", "broker": "core", "probe": ""}
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Batch: 0, Name: "batch", Start: 0, End: ms(100)}, // a root: not a rung
		{ID: 2, Parent: 1, Batch: 0, Name: "tree", Start: 0, End: ms(10)},
		{ID: 3, Parent: 1, Batch: 0, Name: "core", Start: ms(10), End: ms(25)},
		{ID: 4, Parent: 1, Batch: 0, Name: "broker", Start: ms(25), End: ms(65)},
		{ID: 5, Parent: 1, Batch: 0, Name: "tree/event", Start: 0, End: ms(1)}, // per-event span: ignored
		{ID: 6, Batch: 1, Name: "batch", Start: ms(100), End: ms(200)},
		{ID: 7, Parent: 6, Batch: 1, Name: "tree", Start: ms(100), End: ms(112)},
		{ID: 8, Parent: 6, Batch: 1, Name: "core", Start: ms(112), End: ms(130)},
		{ID: 9, Parent: 6, Batch: 1, Name: "broker", Start: ms(130), End: ms(170)},
		{ID: 10, Batch: -1, Name: "probe", Start: ms(200), End: ms(300)}, // outside the batches
	}
	self := selfTimes(spans, below)
	want := map[string]time.Duration{
		"tree":   22 * time.Millisecond, // 10 + 12
		"core":   11 * time.Millisecond, // (15-10) + (18-12)
		"broker": 47 * time.Millisecond, // (40-15) + (40-18)
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %v, want %v", name, self[name], d)
		}
	}
	if _, ok := self["probe"]; ok {
		t.Errorf("a span outside the batches got a self time")
	}
	if sum, top := self["tree"]+self["core"]+self["broker"], totalTimes(spans)["broker"]; sum != top {
		t.Errorf("self times sum to %v, the top rung took %v", sum, top)
	}
}

func TestCompareVerdicts(t *testing.T) {
	higher := metricDef{Name: "events_per_s", Better: "higher", Bound: 0.10}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{100, 130, 80, 100, 125, 75, 100, 130, 85, 100}
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"faster", parent, scale(1.2), "improved"},
		{"same", parent, parent, "unchanged"},
		{"slower", parent, scale(0.8), "regressed"},
		{"noisy parent", noisy, scale(1.2), "unresolved"},
	} {
		if v := judge(higher, c.parent, c.change); v.outcome != c.want {
			t.Errorf("%s: %s, want %s (%+v)", c.name, v.outcome, c.want, v)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesCommand keeps BENCHMARK.json and the command equal:
// same workloads, same metrics, same units and bounds, and the command
// prints exactly the declared metrics in both modes for every workload.
// The -quick runs have the oracle on, so this is also the smoke test.
func TestManifestMatchesCommand(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
		if w.Why != workloads[i].why || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be the command's, one line of at most 200 characters", w.Name)
		}
	}
	sameDefs := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			w.Count = false
			if g != w || !nameRE.MatchString(g.Name) {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, command %+v", kind, i, g, w)
			}
		}
	}
	sameDefs("end_to_end", m.EndToEnd, endToEnd)
	sameDefs("per_layer", m.PerLayer, perLayer)
	if m.RunSeconds != baseSeconds {
		t.Errorf("run_seconds %d, the committed sizes are for %d", m.RunSeconds, baseSeconds)
	}

	exe := benchBinary(t)
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			code, line := run(t, exe, "--workload", w.name, "--seed", "3", "--seconds", "20", "--trace", []string{"0", "1"}[trace], "-quick")
			if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace %d: exit %d, result %+v", w.name, trace, code, line)
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics printed, %d declared", w.name, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				if v, ok := line.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s printed as %+v (present %v), declared unit %s", w.name, trace, d.Name, v, ok, d.Unit)
				}
			}
		}
	}
}

// TestCheckBites makes the benchmark's own subscriber lose notifications,
// and perturbs one oracle answer: both must show as failed operations and
// a non-zero exit.
func TestCheckBites(t *testing.T) {
	exe := benchBinary(t)
	for _, flag := range []string{"-selftest-drop", "-selftest-wrong"} {
		for _, w := range []string{"match-drift", "fanout-agg", "fed-2hop"} {
			code, line := run(t, exe, "-workload", w, "-quick", flag)
			if code == 0 || line.Correct || line.Failed == 0 {
				t.Errorf("%s %s: exit %d, result correct=%v failed=%d of %d; the check did not bite", w, flag, code, line.Correct, line.Failed, line.Attempted)
			}
		}
	}
}
