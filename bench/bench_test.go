package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesSpec holds the committed contract file to the
// tables in spec.go (regenerate it with `go run . -spec > ../BENCHMARK.json`).
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Fatalf("BENCHMARK.json differs from spec.go; regenerate it with: go run . -spec > ../BENCHMARK.json")
	}
}

func TestSpecNames(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, r := range regimes {
		check(r.Name)
		if len(r.Why) > 200 || strings.Contains(r.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", r.Name, len(r.Why))
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
}

// TestWorkloadsSmall runs every workload, untraced and traced, at a
// hundredth of its size: every metric of the reporting set is emitted once
// with its unit, no operation fails, and the trace's spans nest.
func TestWorkloadsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads twice")
	}
	for _, reg := range regimes {
		for _, trace := range []int{0, 1} {
			o := options{workload: reg.Name, seed: 3, seconds: 0.6, trace: trace, scale: 0.01, out: t.TempDir()}
			var buf bytes.Buffer
			code, err := realMain(o, &buf)
			if err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", reg.Name, trace, err, buf.String())
			}
			if code != 0 {
				t.Errorf("%s trace=%d: exit code %d\n%s", reg.Name, trace, code, buf.String())
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%d: last line is not the result object: %v\n%s", reg.Name, trace, err, lines[len(lines)-1])
			}
			if res.Correct == nil || res.Attempted == nil || res.Failed == nil {
				t.Fatalf("%s trace=%d: result object lacks a key: %s", reg.Name, trace, lines[len(lines)-1])
			}
			if !*res.Correct || *res.Failed != 0 || *res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", reg.Name, trace, *res.Correct, *res.Attempted, *res.Failed)
			}
			want := reported(trace == 1)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics emitted, want %d", reg.Name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok || m.Value == nil:
					t.Errorf("%s trace=%d: metric %s missing", reg.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%d: metric %s has unit %q, want %q", reg.Name, trace, d.Name, m.Unit, d.Unit)
				}
			}
			if trace == 1 {
				checkTrace(t, filepath.Join(o.out, "trace-"+reg.Name+".json"), reg.Name)
			}
		}
	}
}

// checkTrace asserts that exactly one span has no parent, that every other
// span names a parent that exists and encloses it, and that all spans carry
// the workload's identifier.
func checkTrace(t *testing.T, path, workload string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	byID := make(map[int]span)
	for _, s := range doc.Spans {
		byID[s.ID] = s
	}
	roots := 0
	names := make(map[string]bool)
	for _, s := range doc.Spans {
		names[strings.SplitN(s.Name, ":", 2)[0]] = true
		if s.Workload != workload {
			t.Errorf("span %q carries workload %q, want %q", s.Name, s.Workload, workload)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("span %q ends before it starts", s.Name)
		}
		if s.Parent == 0 {
			roots++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %q names parent %d, which does not exist", s.Name, s.Parent)
			continue
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("span %q [%d,%d] is not inside its parent %q [%d,%d]", s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
		}
	}
	if roots != 1 {
		t.Errorf("%d spans without a parent, want the one workload span", roots)
	}
	for _, want := range []string{"workload", "setup", "restart", "resume", "quiet_build", "build", "serve", "build_rounds", "ledger", "probe"} {
		if !names[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
}
