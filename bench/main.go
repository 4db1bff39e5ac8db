// Command bench is the repository's benchmark: it boots an in-process fleet
// (cluster.StartFleet), drives it over loopback HTTP from two closed-loop
// clients, verifies every response, and prints every metric by name with its
// unit. See README.md for the workloads, the metrics and what each should
// move.
//
//	go run ./bench                                  # all workloads, end-to-end then per-layer
//	go run ./bench --workload hot-local --seed 7 --seconds 20 --trace 0
//	go run ./bench -out runs.jsonl ...              # append each run's record
//	go run ./bench -compare a.jsonl b.jsonl         # medians of b against a, per bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"beyondcache/internal/obs"
)

func main() {
	workloadName := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "request-generator seed (reaches nothing else)")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics; -1: both, one run each")
	out := flag.String("out", "", "append each run's record (JSON lines) here; traced spans go to <out>.<workload>.spans")
	compare := flag.Bool("compare", false, "compare two -out files (baseline, candidate) against the end-to-end bounds")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files, got %d", flag.NArg()))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *seconds <= 0 || *trace < -1 || *trace > 1 {
		fatal(fmt.Errorf("need -seconds > 0 and -trace in {-1,0,1}"))
	}

	var run []*workload
	if *workloadName == "all" {
		for i := range workloads {
			run = append(run, &workloads[i])
		}
	} else if w := findWorkload(*workloadName); w != nil {
		run = []*workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workloadName))
	}
	d := time.Duration(*seconds * float64(time.Second))
	correct := true
	for _, w := range run {
		for t := 0; t <= 1; t++ {
			if *trace >= 0 && t != *trace {
				continue
			}
			var r *record
			var err error
			if t == 0 {
				r, err = runEndToEnd(w, *seed, d, maxSetUps)
			} else {
				r, err = runPerLayer(w, *seed, d)
			}
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.Name, err))
			}
			if *out != "" {
				if err := appendRecord(*out, r); err != nil {
					fatal(err)
				}
			}
			printRecord(r)
			correct = correct && r.Correct
		}
	}
	os.Remove(tmpRoot) // empty by now
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// printRecord writes the human-readable report and then, as the last line,
// the result object the driver parses.
func printRecord(r *record) {
	e := r.Env
	fmt.Printf("== %s  seed=%d  seconds=%g  trace=%d  (%s)\n", r.Workload, r.Seed, r.Seconds, r.Trace, r.Loop)
	fmt.Printf("env: commit=%s %s %s/%s nproc=%d GOMAXPROCS=%d cpu=%q tempfs=%s network=%q\n",
		e.Commit, e.GoVersion, e.GOOS, e.GOARCH, e.NumCPU, e.GOMAXPROCS, e.CPUModel, e.TempFS, e.Network)
	fmt.Printf("note: %s\n", e.DiskNote)
	fmt.Printf("requests: sha256=%s\n", r.SequenceSHA256)
	keys := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var counts []string
	for _, k := range keys {
		counts = append(counts, fmt.Sprintf("%s=%d", k, r.Samples[k]))
	}
	fmt.Printf("samples: %s\n", strings.Join(counts, " "))
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Printf("  %-36s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
	if len(r.Whole) > 0 {
		fmt.Println("in absolute units over the whole window (not gated: the machine's speed drifts):")
		for _, d := range perLayer {
			if v, ok := r.Whole[d.Name]; ok {
				fmt.Printf("  %-36s %14.4f %s\n", d.Name, v, d.Unit)
			}
		}
	}
	if r.FirstError != "" {
		fmt.Printf("first error: %s\n", r.FirstError)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

// appendRecord adds the record to the JSON-lines file at path and, for a
// traced run, writes its spans beside it in the fleet's own span encoding
// (obs.DecodeSpans reads them back).
func appendRecord(path string, r *record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if len(r.spans) == 0 {
		return nil
	}
	return os.WriteFile(path+"."+r.Workload+".spans", obs.AppendSpans(nil, r.spans), 0o644)
}
