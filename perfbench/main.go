// Command perfbench is the repository's benchmark. It builds a Camelot
// deployment in-process, drives one named workload for a fixed time,
// checks every answer against an oracle that shares no code with the
// proof pipeline, and prints one JSON object as the last line of its
// standard output:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds it from the checkout and runs it from the repository
// root. The seed picks the instances; the program under test only sees
// the generated inputs.
//
// With --trace 0 the object carries the end-to-end metrics, with
// --trace 1 the per-layer ones. Per-layer numbers come from spans the
// benchmark records around calls into each layer's public seams
// (camelot.Cluster/Job, camelot.Server over HTTP, decorators on
// core.CompiledProblem/plan.Plan and core.Transport) and from direct
// replays of ff, poly and rs at the workload's own geometry. A traced
// run interleaves untraced requests with traced ones, so the tracing
// overhead is measured in the same process. Spans are written as Chrome
// trace-event JSON under .bench_build/traces.
//
// On a shared virtual machine the host steals CPU time, and wall times
// stretch with its neighbours' load rather than with the program. Every
// end-to-end wall time is therefore scaled by the share of running time
// the host left the machine over the interval that measured it (from the
// steal column of /proc/stat; 1 where nothing was stolen): each set-up;
// in the closed loops each cycle of a proof and its checks, whose
// verification and re-read samples share the cycle's factor; in
// serve-mix, whose requests overlap, the whole window. Each of these
// intervals lasts a quarter second or more, dozens of the counters' 10 ms
// ticks, so the share is not quantised the way a few-millisecond
// sample's would be; steal comes in bursts, so a proof scaled by its own
// cycle's share is steadier than one scaled by the window's. The run
// record prints unscaled figures beside them. CPU time and heap allocation per proof are reported too:
// they follow the program's work rather than the host's load, though CPU
// time still drifts when a busy host's neighbours share the caches.
//
// The workloads split the layers between them, so that a change to one
// layer moves one workload and leaves another flat:
//
//   - cliques-byzantine: Theorem 1 k-cliques under the paper's full fault
//     model (a lying node, a node whose broadcast is always lost, one
//     erasure allowed, one repair round). Gao decoding dominates, and it
//     is the only workload that runs the quorum gather, erasure plans and
//     repair.
//   - chromatic-honest: the Theorem 6 chromatic polynomial with no
//     faults. Exponential-time evaluation through Plan.EvaluateBlock
//     dominates; rs and poly barely register.
//   - serve-mix: the proof service over loopback HTTP, driven by a
//     generator process: an interactive tenant alternating cache hits and
//     cold proofs while a batch tenant keeps the pool busy with cold
//     proofs. It is the only workload that touches spec parsing,
//     admission, the proof cache and the shared plan cache.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// decl is one metric the benchmark reports: its name and unit, as
// declared in BENCHMARK.json.
type decl struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them, each with the meaning its workload gives it:
//
//   - proof_p50_ms, proof_p90_ms: latency of a request that needs a fresh
//     proof — Submit→Wait in the closed loops, a cold interactive request
//     (POST /v1/submit then GET /v1/result) in serve-mix.
//   - proofs_per_s: proofs delivered per second of the timed window
//     (in serve-mix, hits and both tenants' cold proofs).
//   - cpu_ms_per_proof: CPU time the service's process spent per
//     delivered proof (the work EK plus everything around it). Time the
//     host steals from a virtual machine does not count.
//   - verify_p50_ms: the cost of one camelot.VerifyProof trial on a
//     delivered proof (a sample averages at least five), kept out of the
//     proof latencies — the verifier's cost, paper claim (b).
//   - reread_p50_ms, reread_p90_ms: latency of obtaining a proof that was
//     already prepared, with its integrity spot-check — a hot request in
//     serve-mix, unmarshal plus VerifyProofBatch in the closed loops.
//   - slo_ratio: share of attempted requests that finished correctly
//     within the workload's latency limit.
//   - alloc_mb_per_proof: heap the service's process allocated per
//     delivered proof — the memory churn the garbage collector pays for.
//     The peak resident set is reported per layer (bench.peak_rss_mb):
//     with a live heap of a few megabytes it swings by a third between
//     identical runs, with the collector's timing.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"proof_p50_ms", "ms"},
	{"proof_p90_ms", "ms"},
	{"proofs_per_s", "1/s"},
	{"cpu_ms_per_proof", "ms"},
	{"verify_p50_ms", "ms"},
	{"reread_p50_ms", "ms"},
	{"reread_p90_ms", "ms"},
	{"slo_ratio", "ratio"},
	{"alloc_mb_per_proof", "MB"},
}

// perLayer are the traced run's metrics, named layer.metric after the
// repository's modules. A workload that bypasses a layer reports 0 for
// it.
var perLayer = []decl{
	{"ff.mul_ns", "ns"},
	{"ff.mulvec_ns_per_elem", "ns"},
	{"poly.mul_us", "us"},
	{"poly.divmod_us", "us"},
	{"poly.interpolate_us", "us"},
	{"rs.decode_ms", "ms"},
	{"rs.erasure_plan_ms", "ms"},
	{"rs.erasure_decode_ms", "ms"},
	{"plan.compile_us", "us"},
	{"plan.eval_busy_ms", "ms"},
	{"plan.eval_us_per_point", "us"},
	{"plan.eval_calls", "count"},
	{"plan.points", "count"},
	{"core.prepare_ms", "ms"},
	{"core.prepare_self_ms", "ms"},
	{"core.decode_ms", "ms"},
	{"core.verify_ms", "ms"},
	{"core.repair_rounds", "count"},
	{"core.node_max_ms", "ms"},
	{"core.node_total_ms", "ms"},
	{"core.ek_per_point_us", "us"},
	{"core.prepare_parallel_eff", "ratio"},
	{"core.suspects", "count"},
	{"core.missing", "count"},
	{"core.repaired", "count"},
	{"core.transport.send_us", "us"},
	{"core.transport.gather_wait_ms", "ms"},
	{"core.transport.messages", "count"},
	{"session.overhead_ms", "ms"},
	{"serve.submit_us", "us"},
	{"serve.result_hit_us", "us"},
	{"serve.spotcheck_us", "us"},
	{"serve.cache_hit_share", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.refused", "count"},
	{"serve.queue_depth_max", "count"},
	{"serve.plan_cache_hits", "count"},
	{"serve.plan_cache_misses", "count"},
	{"trace.overhead_pct", "%"},
	{"bench.fail_ratio", "ratio"},
	{"bench.peak_rss_mb", "MB"},
}

// modelNodes are the node counts K of the paper's cost-model rows.
var modelNodes = []int{1, 2, 4, 8}

func init() {
	for _, k := range modelNodes {
		p := fmt.Sprintf("model.k%d.", k)
		perLayer = append(perLayer,
			decl{p + "e_ms", "ms"},
			decl{p + "ek_ms", "ms"},
			decl{p + "balance", "ratio"},
			decl{p + "ek_per_unit_us", "us"})
	}
}

// config is one invocation's arguments.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
}

// tally counts the operations a run attempted and how many failed. A
// failure is an error, a refusal, a rejected proof or a wrong answer;
// any of them makes the run incorrect.
type tally struct {
	attempted, failed int
}

// fail records a failed operation and explains it on standard error.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.failed <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// outcome is what a workload hands back: its tally and metric values.
type outcome struct {
	tally
	values map[string]float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(context.Context, config, *tracer) (*outcome, error){
	"cliques-byzantine": runCliquesByzantine,
	"chromatic-honest":  runChromaticHonest,
	"serve-mix":         runServeMix,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config
	var seconds, trace int
	var client bool
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed that picks the instances")
	flag.IntVar(&seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.BoolVar(&client, "serve-client", false, "run as serve-mix's load generator (started by the benchmark itself)")
	flag.Parse()
	if client {
		return runClientProcess(os.Stdin, os.Stdout)
	}
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want cliques-byzantine, chromatic-honest or serve-mix)", cfg.workload)
	}
	if seconds < 1 || seconds > 120 {
		return fmt.Errorf("--seconds %d out of range [1, 120]", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	// GOMAXPROCS is the machine's processor count; before Go 1.25 the
	// runtime ignores container CPU quotas, so print both.
	runtime.GOMAXPROCS(runtime.NumCPU())
	printRunRecord(cfg)

	// A stuck run must still end well inside the 180 s every run is
	// allowed.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.window+120*time.Second)
	defer cancel()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	out, err := fn(ctx, cfg, tr)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	out.values["bench.peak_rss_mb"] = rss
	decls := endToEnd
	if cfg.trace {
		decls = perLayer
		out.values["bench.fail_ratio"] = float64(out.failed) / float64(max(out.attempted, 1))
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.writeChrome(path); err != nil {
			return err
		}
		fmt.Printf("trace spans=%d dropped=%d file=%s\n", len(tr.spans), tr.dropped, path)
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(decls)),
	}
	for _, d := range decls {
		v, ok := out.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v (no samples?)", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printRunRecord prints what a reader needs to compare two runs: the
// host, the toolchain, the code and the arguments.
func printRunRecord(cfg config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	src, err := sourceDigest(".")
	if err != nil {
		src = "unknown (" + err.Error() + ")"
	}
	fmt.Printf("run workload=%s seed=%d seconds=%d trace=%t\n", cfg.workload, cfg.seed, int(cfg.window/time.Second), cfg.trace)
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s cpu=%q\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Printf("code commit=%s source_sha256=%s\n", commit, src)
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root, so a
// run records the code it measured even where no commit is known.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
