// Shared pieces of the repo benchmark driver: run options, the result a
// workload hands back, op-latency statistics, and the static-pipeline ledger.
#ifndef TURNSTILE_PERFBENCH_SRC_BENCH_H_
#define TURNSTILE_PERFBENCH_SRC_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/corpus/driver.h"
#include "src/obs/profiler.h"

namespace turnstile {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // This process is part `part` of `parts` of one run (see run.py): a stream
  // part draws its own messages, a package-deploy part deploys its share of
  // the packages.
  int part = 0;
  int parts = 1;
  Clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run of a workload reports. `failures` lists every output check
// that did not hold (empty = correct); `fatal` is set when the workload could
// not be set up at all, in which case no result line is printed.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  std::string fatal;
  // Untraced runs: every timed op's latency as scaled for the end-to-end
  // figures, and the tail quantile, so run.py can take the quantiles over
  // the ops of all parts of a run.
  std::vector<double> latencies_ms;
  double tail_quantile = 0;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double Quantile(std::vector<double> values, double q);

// Time of a fixed chunk of register-only integer work, best of three. No
// change to the program can make it faster or slower, so it tracks only how
// fast the host is running this thread right now.
double HostProbeMs();
// The probe's time on an idle 4-vCPU host of the kind the README's figures
// come from; op times are reported as if every probe had taken this long.
constexpr double kNominalProbeMs = 0.24;

// CPU time of the whole process so far (every thread).
double ProcessCpuSeconds();

// Cold set-up cost of the program's own calls (Corpus(), every
// AppRuntime::Create, the warm-up ops): process CPU time, each call scaled by
// a host probe taken just before it, as op latencies are. The benchmark's own
// preparation (message templates, package sources) is left out. CPU time
// rather than wall time: wall time in set-up also holds the stretches in which
// other tenants keep this process off the CPU, which no program change causes
// (see the README's Steadiness section).
struct SetupTimer {
  double seconds = 0;       // normalized process CPU time
  double cpu_seconds = 0;   // as measured
  double wall_seconds = 0;  // as measured

  template <typename Call>
  auto Time(Call&& call) {
    double probe_ms = HostProbeMs();
    Clock::time_point start = Clock::now();
    double cpu_start = ProcessCpuSeconds();
    auto result = call();
    double cpu = ProcessCpuSeconds() - cpu_start;
    wall_seconds += SecondsSince(start);
    cpu_seconds += cpu;
    seconds += cpu * kNominalProbeMs / probe_ms;
    return result;
  }
  // Prints the three figures and the wall time since `process_start` to
  // stderr.
  void Report(Clock::time_point process_start) const;
};

// Op latencies in completion order, with a host probe before every window of
// `ops_per_window` ops (whole rounds in the streams, so every window has the
// same op mix). Other tenants of the host slow the program in stretches of
// seconds; every statistic is taken over latencies normalized by the probe
// (scaled by kNominalProbeMs / the window's probe time), and, when paced, also
// scaled by min(1, window rate / kPaceQuantile of window rates), which
// removes the contention the register-only probe does not see (the cache and
// memory kind). Pacing would also remove a slowdown the program causes
// itself during a run, so only workloads without one are paced.
struct OpLog {
  static constexpr double kPaceQuantile = 0.9;

  std::vector<double> ms;
  std::vector<double> probe_ms;
  size_t ops_per_window = 1;

  // Probes the host when the next op starts a window.
  void MaybeProbe();
  // Op latencies scaled to the nominal host speed.
  std::vector<double> Normalized() const;
  // Adds ops_per_s, op_latency_p50_ms and op_latency_tail_ms. Paced, the
  // rate is the kPaceQuantile window rate; otherwise ops per busy second.
  void AddEndToEnd(double tail_quantile, bool paced, Outcome* out) const;
};

// Work counters of app instances, summed.
struct WorkCounters {
  double evals = 0;
  double label_calls = 0;
  double binary_ops = 0;
  double invokes = 0;
  double boxes_created = 0;
  double tracked_values = 0;
  double union_cache_hits = 0;
  double pool_sets = 0;  // label sets interned

  static WorkCounters Of(AppRuntime& runtime);
  void Add(const WorkCounters& other, double sign = 1);
};

// Per-layer ledger of a traced window: the profiler is on, the benchmark's
// own stopwatches time each op, and the program's counters give the work.
struct TraceLedger {
  uint64_t ops = 0;
  double op_s = 0;        // stopwatch around each whole op
  double generate_s = 0;  // GenerateMessage
  double inject_s = 0;    // InjectValue
  double accounted_s = 0;  // profiler app + monitor time inside the ops
  uint64_t over_accounted = 0;  // ops with more profiler time than stopwatch time
  uint64_t records = 0;
  uint64_t payload_bytes = 0;
  WorkCounters work;      // done inside the window
  double instances = 0;   // app instances `work.pool_sets` was summed over
  double heap_kb_per_kop = 0;
  double vm_ops_at_begin = 0;

  // Turns the process-wide profiler on and notes the VM op counter.
  void Begin();
  // Books one op: `op_s` by stopwatch around the whole op, `call_s` around
  // the one program call the profiler saw, `before`/`after` its split.
  void Op(double op_s, double call_s, const obs::OverheadSplit& before,
          const obs::OverheadSplit& after);
  // Adds every runtime-layer metric per op, the tracing overhead (traced
  // minus untraced median op latency) and the time no layer accounted for;
  // then turns the profiler off.
  void End(const OpLog& untraced, const OpLog& traced, Outcome* out);
};

// Peak resident set (VmHWM) in KiB.
double PeakRssKb();
// Bytes the allocator has handed out and not had back, in KiB.
double HeapInUseKb();

// Per-layer cost of the static half of a deployment, measured by calling the
// layers one by one in the order AppRuntime::Create does.
struct StaticLedger {
  double deploys = 0;
  double source_kb = 0;
  double ast_nodes = 0;
  double parse_ms = 0;
  double analyze_ms = 0;
  double graph_nodes = 0;
  double graph_edges = 0;
  double fixpoint_rounds = 0;
  double instrument_ms = 0;
  double sites = 0;
  double print_ms = 0;
  double reparse_ms = 0;
  double compile_ms = 0;
  double create_ms = 0;  // AppRuntime::Create wall, measured by the caller

  // Runs parse → analyze → instrument (→ print → re-parse → resolve for
  // kRoundTrip) → compile on `app` for a managed `version` and accumulates
  // one deploy's figures. Returns false (and sets `error`) when a layer fails.
  bool Measure(const CorpusApp& app, AppVersion version, std::string* error);
  // Adds the lang/analysis/instrument/vm/corpus per-deploy averages.
  void AddTo(Outcome* out) const;
};

Outcome RunStream(const Options& options);
Outcome RunDeploy(const Options& options);

}  // namespace perfbench
}  // namespace turnstile

#endif  // TURNSTILE_PERFBENCH_SRC_BENCH_H_
