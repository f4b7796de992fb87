// Command bench is this repository's benchmark: four workloads (regimes) for
// the online index builder, each reporting every end-to-end metric, and a
// traced run that reports the per-layer ledger. See README.md.
//
//	go run . -workload busy_spill -seed 7          one workload, human-readable
//	go run . -workload busy_spill -trace 1         the traced run, writes out/trace-busy_spill.json
//	go run . -selfcheck                            every workload twice, compared against the bounds
//
// The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; the process exits non-zero if
// any operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	scale     float64
	out       string
	selfcheck bool
	spec      bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(regimeNames(), ", ")+" or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generator (table ids, DML stream, read keys)")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "seconds one run measures after set-up")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	flag.Float64Var(&o.scale, "scale", 1, "shrink rows and memory budgets (tests use 0.01)")
	flag.StringVar(&o.out, "out", defaultOut(), "directory for scratch data, result and trace files")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload twice and compare each metric pair against its bound")
	flag.BoolVar(&o.spec, "spec", false, "print BENCHMARK.json as the tables in spec.go define it, and exit")
	flag.Parse()
	if o.spec {
		os.Stdout.Write(benchmarkJSON()) //nolint:errcheck // stdout
		return
	}
	code, err := realMain(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// defaultOut keeps every file the benchmark writes under its own directory,
// whether it is started from the repository root or from bench/.
func defaultOut() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func regimeNames() []string {
	var names []string
	for _, r := range regimes {
		names = append(names, r.Name)
	}
	return names
}

func realMain(o options, w io.Writer) (int, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return 0, err
	}
	if o.selfcheck {
		return selfcheck(o, w)
	}
	names := regimeNames()
	if o.workload != "all" {
		if _, ok := regimeByName(o.workload); !ok {
			return 0, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
		}
		names = []string{o.workload}
	}
	code := 0
	for _, name := range names {
		res, err := runWorkload(o, name, w)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		if err := printResult(w, res); err != nil {
			return 0, err
		}
		if res.Failed > 0 {
			code = 1
		}
	}
	return code, nil
}

// runWorkload executes one workload once and stores the full result beside
// the traces.
func runWorkload(o options, name string, w io.Writer) (runResult, error) {
	reg, _ := regimeByName(name)
	r := &run{
		reg: reg.scaled(o.scale), seed: o.seed, scale: o.scale, seconds: o.seconds,
		traced: o.trace != 0, outDir: o.out, log: w,
	}
	kind := "untraced"
	if r.traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %.0fs, scale %g)\n", name, kind, o.seed, o.seconds, o.scale)
	res, err := r.execute()
	if err != nil {
		return res, err
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return res, err
	}
	file := filepath.Join(o.out, fmt.Sprintf("result-%s-%s.json", name, kind))
	return res, os.WriteFile(file, append(b, '\n'), 0o644)
}

// reported is the metric set a run answers for: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func reported(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResult prints the metric table and, as the last line, the result
// object of the benchmark contract.
func printResult(w io.Writer, res runResult) error {
	m := res.Machine
	fmt.Fprintf(w, "  machine: nproc=%d GOMAXPROCS=%d %s fs=%s rows=%d commit=%s\n",
		m.NProc, m.GOMAXPROCS, m.GoVersion, m.FSType, m.Rows, m.GitCommit)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]value)}
	for _, d := range reported(res.Traced) {
		v, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured (%v)", res.Workload, d.Name, v)
		}
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// selfcheck runs every workload twice in one invocation, the second set in
// the opposite order, and holds each pair of values against the metric's
// bound; the two exact counts must be equal.
func selfcheck(o options, w io.Writer) (int, error) {
	o.trace = 0
	names := regimeNames()
	sets := make([]map[string]runResult, 2)
	code := 0
	for s := range sets {
		sets[s] = make(map[string]runResult)
		for i := range names {
			name := names[i]
			if s == 1 {
				name = names[len(names)-1-i]
			}
			res, err := runWorkload(o, name, w)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			if res.Failed > 0 {
				code = 1
			}
			sets[s][name] = res
		}
	}
	fmt.Fprintf(w, "\n%-14s %-26s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, name := range names {
		for _, d := range endToEnd {
			a, b := sets[0][name].Metrics[d.Name], sets[1][name].Metrics[d.Name]
			diff := math.Abs(b-a) / math.Max(math.Abs(a), 1e-12)
			mark := ""
			switch {
			case exactCounts[d.Name] && a == b:
				mark = "equal"
			case exactCounts[d.Name]:
				mark = "NOT EQUAL"
				code = 1
			case diff > d.Bound:
				mark = "OUTSIDE BOUND"
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-26s %14.6g %14.6g %7.2f%% %6.0f%% %s\n", name, d.Name, a, b, 100*diff, 100*d.Bound, mark)
		}
	}
	return code, nil
}
