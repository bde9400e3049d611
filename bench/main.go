// Command bench is the repository's benchmark: four deterministic workloads
// driven end to end through the public genas API, and a traced run that
// drives the same inputs up the stack ladder layer by layer. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

const (
	defaultSeed = 20020702 // ICDCS Workshops 2002
	// baseSeconds is the committed run_seconds: the sizes in workloads.go
	// are what one run does at -seconds 20.
	baseSeconds = 20
	procs       = 2 // GOMAXPROCS of every run: the sandbox has two cores
)

// runDoc is the result file of one run (bench/out/<workload>.json).
type runDoc struct {
	Workload   string                 `json:"workload"`
	Mode       string                 `json:"mode"` // "end_to_end" or "trace"
	Seed       uint64                 `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Quick      bool                   `json:"quick"`
	Sizes      map[string]int         `json:"sizes"`
	NProc      int                    `json:"nproc"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	GoVersion  string                 `json:"go_version"`
	Commit     string                 `json:"commit"`
	Transport  string                 `json:"transport"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	EndToEnd   *e2eResult             `json:"end_to_end,omitempty"`
	Ladder     *ladderResult          `json:"ladder,omitempty"`
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// commit is the revision the binary was built from, marked when the
// working tree had uncommitted changes; "unknown" outside a git checkout.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+uncommitted"
			}
		}
	}
	return rev + dirty
}

type options struct {
	workload      string
	seed          uint64
	seconds       float64
	trace         int
	quick         bool
	selftestDrop  bool
	selftestWrong bool
	outDir        string
	appendTo      string
}

// scaled returns the workload's sizes at the requested run length.
func (o *options) scaled(w *workload) sizes {
	sz := w.sizes
	f := o.seconds / baseSeconds
	if o.quick {
		f /= 100
		sz.reps, sz.setups = 3, 1
		sz.planLen = 1 << 12
		if !w.fed {
			sz.subs, sz.reserve = sz.subs/10, sz.reserve/10
		}
	}
	sz.eventsPerRep = max(sampleEvery, int(float64(sz.eventsPerRep)*f)/sampleEvery*sampleEvery)
	sz.latencySamples = max(100, int(float64(sz.latencySamples)*f))
	sz.ladderEvents = max(traceBatch, int(float64(sz.ladderEvents)*f)/traceBatch*traceBatch)
	return sz
}

func sizesMap(sz sizes) map[string]int {
	return map[string]int{
		"subscriptions": sz.subs, "churn_reserve": sz.reserve, "plan_events": sz.planLen,
		"events_per_rep": sz.eventsPerRep, "latency_samples": sz.latencySamples,
		"ladder_events": sz.ladderEvents, "repetitions": sz.reps, "setups": sz.setups,
	}
}

// runOne executes one workload in this process and returns its exit code.
func runOne(o *options) int {
	w := workloadByName(o.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(100)
	sz := o.scaled(w)
	doc := &runDoc{
		Workload: w.name, Mode: "end_to_end", Seed: o.seed, Seconds: o.seconds, Quick: o.quick,
		Sizes: sizesMap(sz), NProc: runtime.NumCPU(), GOMAXPROCS: procs,
		GoVersion: runtime.Version(), Commit: commit(), Transport: "in-process",
	}
	if w.fed {
		doc.Transport = "TCP over the host's loopback interface, not a real link"
	}
	fmt.Printf("workload %s  seed %d  seconds %g  quick %v  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		w.name, o.seed, o.seconds, o.quick, doc.NProc, procs, doc.GoVersion, doc.Commit)
	fmt.Printf("why: %s\ntransport: %s\n", w.why, doc.Transport)

	start := time.Now()
	if o.trace != 0 {
		doc.Mode = "trace"
		lr, err := runLadder(ladderConfig{w: w, seed: o.seed, sz: sz, outDir: o.outDir})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: traced run: %v\n", w.name, err)
			return 1
		}
		doc.Ladder = lr
		doc.Attempted, doc.Failed = lr.Attempted, lr.Failed
		doc.Metrics = withUnits(perLayer, lr.Metrics)
		printLadder(lr)
	} else {
		cfg := runConfig{w: w, sz: sz, churnEvery: 50, waitLimit: 2 * time.Second, wrong: o.selftestWrong}
		if o.selftestDrop {
			// A lost notification stalls its event for the whole wait
			// limit; the self-test shortens it so the run still ends.
			cfg.dropEvery, cfg.waitLimit = 100, 20*time.Millisecond
		}
		res, err := runE2E(cfg, w.generate(o.seed, sz))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		doc.EndToEnd = res
		doc.Attempted, doc.Failed = res.Attempted, res.Failed
		doc.Metrics = withUnits(slices.Concat(endToEnd, demoted), e2eMetrics(res))
		printE2E(res)
	}
	doc.Correct = doc.Failed == 0
	fmt.Printf("run took %.1f s\n", time.Since(start).Seconds())

	if err := writeDoc(o, doc); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	// The result files hold every metric of the run; the contract line only
	// the declared ones of its mode.
	declared := perLayer
	if o.trace == 0 {
		declared = endToEnd
	}
	contract := make(map[string]metricValue, len(declared))
	for _, d := range declared {
		contract[d.Name] = doc.Metrics[d.Name]
	}
	line, err := json.Marshal(contractLine{doc.Correct, doc.Attempted, doc.Failed, contract})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !doc.Correct {
		return 1
	}
	return 0
}

func writeDoc(o *options, doc *runDoc) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	name := doc.Workload + ".json"
	if doc.Mode == "trace" {
		name = doc.Workload + ".layers.json"
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, name), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if o.appendTo == "" {
		return nil
	}
	line, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(o.appendTo, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func mkdirFor(path string) error { return os.MkdirAll(filepath.Dir(path), 0o755) }

func printE2E(r *e2eResult) {
	fmt.Printf("plan hash %s  events/repetition %d  repetitions %d  set-ups %d\n", r.PlanHash, r.EventsPerRep, len(r.RepEventsPerS), len(r.SetupS))
	vals := e2eMetrics(r)
	fmt.Println("end-to-end metrics (medians over repetitions, samples and set-ups; bound = allowed worsening):")
	for _, d := range endToEnd {
		fmt.Printf("  %-24s %14.4f %-9s bound %4.1f%%\n", d.Name, vals[d.Name], d.Unit, d.Bound*100)
	}
	fmt.Println("end-to-end timings (demoted: they do not repeat within 10% on this sandbox, so they carry no bound):")
	for _, d := range demoted {
		fmt.Printf("  %-24s %14.4f %-9s\n", d.Name, vals[d.Name], d.Unit)
	}
	fmt.Printf("  notify: %d samples, p50 %.2f us, p99 %.2f us, max %.0f us\n", r.NotifyUs.N, r.NotifyUs.P50, r.NotifyUs.P99, r.NotifyUs.Max)
	fmt.Printf("  churn:  %d steps (mean call time of each), p50 %.2f us, p99 %.2f us, max %.0f us; %.1f%% of throughput-phase wall time\n",
		r.ChurnUs.N, r.ChurnUs.P50, r.ChurnUs.P99, r.ChurnUs.Max, 100*median(r.RepChurnShare))
	fmt.Printf("  repetitions: events_per_s spread (IQR/median) %.4f; GC share of CPU %.4f; adaptive restructures %d in the warm-up, %d after\n",
		spread(r.RepEventsPerS), r.GCCPUShare, r.WarmRestructures, sum(r.RepRestructures))
	fmt.Printf("correctness: matched_total %d  delivered_total %d  dropped %d  oracle samples %d  attempted %d  failed %d\n",
		r.MatchedTotal, r.DeliveredTotal, r.Dropped, r.OracleSamples, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Println("  FAILED:", f)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runAll runs every workload in a fresh process of this binary.
func runAll(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, name := range workloadNames() {
		cmd := exec.Command(exe, append([]string{"-workload", name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (default: each in its own process)")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "seed of the generated subscriptions and events")
	flag.Float64Var(&o.seconds, "seconds", baseSeconds, "run length the event counts are scaled to (counts, not a timer, end the run)")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced stack-ladder run (per-layer metrics) instead of the end-to-end run")
	flag.BoolVar(&o.quick, "quick", false, "1/100 of the events on 1/10 of the subscriptions (smoke test)")
	flag.BoolVar(&o.selftestDrop, "selftest-drop", false, "the benchmark's subscriber discards 1% of notifications; the run must fail")
	flag.BoolVar(&o.selftestWrong, "selftest-wrong", false, "perturb one oracle answer; the run must fail")
	flag.StringVar(&o.outDir, "out", "out", "directory of result and trace files")
	flag.StringVar(&o.appendTo, "o", "", "also append the result as one JSON line to this file (input of -compare)")
	calibrate := flag.Bool("calibrate", false, "run two sets of ten full runs per workload and write CALIBRATION.md")
	compare := flag.Bool("compare", false, "compare two -o files: bench -compare parent.json change.json")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare parent.json change.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	case *calibrate:
		os.Exit(runCalibrate(&o))
	case o.workload == "":
		os.Exit(runAll(os.Args[1:]))
	}
	os.Exit(runOne(&o))
}
