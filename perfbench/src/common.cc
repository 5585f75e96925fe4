#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>

#include <malloc.h>

#include "perfbench/src/bench.h"
#include "src/analysis/analyzer.h"
#include "src/ifc/policy.h"
#include "src/instrument/instrumentor.h"
#include "src/lang/parser.h"
#include "src/lang/printer.h"
#include "src/lang/resolve.h"
#include "src/obs/metrics.h"
#include "src/vm/compiler.h"

namespace turnstile {
namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

namespace {

volatile uint64_t probe_seed = 0x9E3779B97F4A7C15ull;
volatile uint64_t probe_sink = 0;

}  // namespace

double HostProbeMs() {
  double best_ms = 0;
  for (int repeat = 0; repeat < 3; ++repeat) {
    uint64_t x = probe_seed;
    Clock::time_point start = Clock::now();
    for (int i = 0; i < 100000; ++i) {  // xorshift64: a serial dependency chain
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    double ms = SecondsSince(start) * 1e3;
    probe_sink = x;
    best_ms = repeat == 0 ? ms : std::min(best_ms, ms);
  }
  return best_ms;
}

double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

void SetupTimer::Report(Clock::time_point process_start) const {
  std::fprintf(stderr, "set-up: %.4f s normalized CPU, %.4f s CPU, %.4f s wall, %.4f s since main\n",
               seconds, cpu_seconds, wall_seconds, SecondsSince(process_start));
}

void OpLog::MaybeProbe() {
  if (ms.size() % ops_per_window == 0) {
    probe_ms.push_back(HostProbeMs());
  }
}

std::vector<double> OpLog::Normalized() const {
  std::vector<double> out(ms.size());
  for (size_t i = 0; i < ms.size(); ++i) {
    out[i] = ms[i] * kNominalProbeMs / probe_ms[i / ops_per_window];
  }
  return out;
}

void OpLog::AddEndToEnd(double tail_quantile, bool paced, Outcome* out) const {
  std::vector<double> latencies = Normalized();
  double busy_ms = 0;
  for (double op : latencies) {
    busy_ms += op;
  }
  double ops_per_s = static_cast<double>(latencies.size()) * 1e3 / busy_ms;
  if (paced) {
    std::vector<double> rates;
    for (size_t begin = 0; begin + ops_per_window <= latencies.size(); begin += ops_per_window) {
      double window_ms = 0;
      for (size_t i = begin; i < begin + ops_per_window; ++i) {
        window_ms += latencies[i];
      }
      rates.push_back(static_cast<double>(ops_per_window) * 1e3 / window_ms);
    }
    if (!rates.empty()) {
      // A program that slows itself down as a run goes on would show here,
      // and pacing would hide it; the README records this ratio.
      size_t third = rates.size() / 3;
      if (third > 0) {
        std::vector<double> first(rates.begin(), rates.begin() + third);
        std::vector<double> last(rates.end() - third, rates.end());
        std::fprintf(stderr, "window rates: last third / first third (medians) %.4f\n",
                     Quantile(last, 0.5) / Quantile(first, 0.5));
      }
      ops_per_s = Quantile(rates, kPaceQuantile);
      for (size_t w = 0; w < rates.size(); ++w) {
        double scale = std::min(1.0, rates[w] / ops_per_s);
        for (size_t i = w * ops_per_window; i < (w + 1) * ops_per_window; ++i) {
          latencies[i] *= scale;
        }
      }
    }
  }
  std::fprintf(stderr, "%zu ops; host probe min %.4f median %.4f max %.4f ms\n", ms.size(),
               Quantile(probe_ms, 0), Quantile(probe_ms, 0.5), Quantile(probe_ms, 1));
  out->Add("ops_per_s", ops_per_s, "ops/s");
  out->Add("op_latency_p50_ms", Quantile(latencies, 0.5), "ms");
  out->Add("op_latency_tail_ms", Quantile(latencies, tail_quantile), "ms");
  out->latencies_ms = std::move(latencies);
  out->tail_quantile = tail_quantile;
}

namespace {

double ProcStatusKb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  size_t key_len = std::string(key).size();
  while (std::getline(status, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::stod(line.substr(key_len));
    }
  }
  return 0.0;
}

double MillisSince(Clock::time_point start) { return SecondsSince(start) * 1e3; }

}  // namespace

double PeakRssKb() { return ProcStatusKb("VmHWM:"); }
double HeapInUseKb() {
  struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / 1024.0;
}

WorkCounters WorkCounters::Of(AppRuntime& runtime) {
  WorkCounters c;
  c.evals = static_cast<double>(runtime.eval_count());
  if (DiftTracker* tracker = runtime.tracker()) {
    const TrackerStats& stats = tracker->stats();
    c.label_calls = static_cast<double>(stats.label_calls);
    c.binary_ops = static_cast<double>(stats.binary_ops);
    c.invokes = static_cast<double>(stats.invokes);
    c.boxes_created = static_cast<double>(stats.boxes_created);
    c.tracked_values = static_cast<double>(tracker->tracked_count());
    const LabelSetPool& pool = runtime.policy()->pool();
    c.union_cache_hits = static_cast<double>(pool.union_cache_hits());
    c.pool_sets = static_cast<double>(pool.size());
  }
  return c;
}

void WorkCounters::Add(const WorkCounters& other, double sign) {
  evals += sign * other.evals;
  label_calls += sign * other.label_calls;
  binary_ops += sign * other.binary_ops;
  invokes += sign * other.invokes;
  boxes_created += sign * other.boxes_created;
  tracked_values += sign * other.tracked_values;
  union_cache_hits += sign * other.union_cache_hits;
  pool_sets += sign * other.pool_sets;
}

namespace {

double VmOpsExecuted() {
  return static_cast<double>(obs::Metrics::Global().GetCounter("vm.ops_executed")->value());
}

}  // namespace

void TraceLedger::Begin() {
  obs::Profiler::Global().Enable(1 << 10);  // aggregates keep counting past the span cap
  vm_ops_at_begin = VmOpsExecuted();
}

void TraceLedger::Op(double op_seconds, double call_seconds, const obs::OverheadSplit& before,
                     const obs::OverheadSplit& after) {
  double accounted = (after.app_s - before.app_s) + (after.monitor_s - before.monitor_s);
  ++ops;
  op_s += op_seconds;
  accounted_s += accounted;
  if (accounted > call_seconds + 1e-9) {  // 1 ns of floating-point slack
    ++over_accounted;
  }
}

void TraceLedger::End(const OpLog& untraced, const OpLog& traced, Outcome* out) {
  obs::Profiler& profiler = obs::Profiler::Global();
  double n = static_cast<double>(std::max<uint64_t>(ops, 1));
  obs::OverheadSplit split = profiler.split();
  double json_parse_s = 0;
  double native_s = 0;
  for (const obs::FunctionProfile& fn : profiler.FunctionsSnapshot()) {
    if (fn.name == "JSON.parse") {
      json_parse_s += fn.self_s;
    } else if (fn.line == 0 && !fn.monitor) {
      native_s += fn.self_s;
    }
  }
  double vm_s = profiler.vm_seconds();
  profiler.Disable();
  double untraced_p50 = Quantile(untraced.Normalized(), 0.5);
  double traced_p50 = Quantile(traced.Normalized(), 0.5);
  out->Add("trace.untraced_p50_us", untraced_p50 * 1e3, "us");
  out->Add("trace.traced_p50_us", traced_p50 * 1e3, "us");
  out->Add("trace.overhead_us", (traced_p50 - untraced_p50) * 1e3, "us");
  out->Add("trace.unaccounted_us", (op_s - accounted_s) / n * 1e6, "us");
  out->Add("flow.generate_us", generate_s / n * 1e6, "us");
  out->Add("flow.inject_us", inject_s / n * 1e6, "us");
  // InjectValue wall minus the profiler's app + monitor time: the engine's
  // mailbox, message plumbing and sink recording.
  out->Add("flow.engine_us", inject_s > 0 ? (inject_s - accounted_s) / n * 1e6 : 0.0, "us");
  out->Add("interp.app_us", split.app_s / n * 1e6, "us");
  out->Add("interp.json_parse_us", json_parse_s / n * 1e6, "us");
  out->Add("interp.native_us", native_s / n * 1e6, "us");
  out->Add("interp.evals", work.evals / n, "count");
  out->Add("vm.dispatch_us", vm_s / n * 1e6, "us");
  out->Add("vm.ops", (VmOpsExecuted() - vm_ops_at_begin) / n, "count");
  out->Add("dift.monitor_us", split.monitor_s / n * 1e6, "us");
  out->Add("dift.label_calls", work.label_calls / n, "count");
  out->Add("dift.binary_ops", work.binary_ops / n, "count");
  out->Add("dift.invokes", work.invokes / n, "count");
  out->Add("dift.boxes_created", work.boxes_created / n, "count");
  out->Add("dift.tracked_values", work.tracked_values / n, "count");
  out->Add("ifc.labelset_pool_sets", work.pool_sets / std::max(instances, 1.0), "count");
  out->Add("ifc.union_cache_hits", work.union_cache_hits / n, "count");
  out->Add("io.records", static_cast<double>(records) / n, "count");
  out->Add("io.payload_bytes", static_cast<double>(payload_bytes) / n, "B");
  out->Add("heap.inuse_kb_per_kop", heap_kb_per_kop, "KiB/kop");
  if (over_accounted != 0) {
    out->failures.push_back(std::to_string(over_accounted) +
                            " traced ops with more profiler time than stopwatch time");
  }
}

bool StaticLedger::Measure(const CorpusApp& app, AppVersion version, std::string* error) {
  Clock::time_point start = Clock::now();
  auto program = ParseProgram(app.source, app.name + ".js");
  if (!program.ok()) {
    *error = program.status().ToString();
    return false;
  }
  parse_ms += MillisSince(start);
  source_kb += static_cast<double>(app.source.size()) / 1024.0;
  ast_nodes += program->node_count;
  auto policy = Policy::FromJsonText(app.policy_json);
  if (!policy.ok()) {
    *error = policy.status().ToString();
    return false;
  }
  start = Clock::now();
  auto analysis = AnalyzeProgram(*program);
  if (!analysis.ok()) {
    *error = analysis.status().ToString();
    return false;
  }
  analyze_ms += MillisSince(start);
  graph_nodes += analysis->stats.graph_nodes;
  graph_edges += analysis->stats.graph_edges;
  fixpoint_rounds += analysis->stats.fixpoint_rounds;
  InstrumentMode mode = version == AppVersion::kExhaustive ? InstrumentMode::kExhaustive
                                                           : InstrumentMode::kSelective;
  start = Clock::now();
  auto instrumented = InstrumentProgram(*program, **policy, mode, &*analysis);
  if (!instrumented.ok()) {
    *error = instrumented.status().ToString();
    return false;
  }
  instrument_ms += MillisSince(start);
  const InstrumentStats& stats = instrumented->stats;
  sites += stats.labels_injected + stats.binary_ops_wrapped + stats.invokes_wrapped +
           stats.tracks_injected;
  Program loaded = instrumented->program;
  if (version == AppVersion::kRoundTrip) {
    start = Clock::now();
    std::string printed = PrintProgram(instrumented->program);
    print_ms += MillisSince(start);
    start = Clock::now();
    auto reparsed = ParseProgram(printed, app.name + ".printed.js");
    if (!reparsed.ok()) {
      *error = reparsed.status().ToString();
      return false;
    }
    ResolveProgram(*reparsed);
    reparse_ms += MillisSince(start);
    loaded = *reparsed;
  }
  start = Clock::now();
  vm::GetOrCompileProgramFused(loaded.root);
  compile_ms += MillisSince(start);
  deploys += 1;
  return true;
}

void StaticLedger::AddTo(Outcome* out) const {
  double n = std::max(deploys, 1.0);
  out->Add("lang.source_kb", source_kb / n, "KiB");
  out->Add("lang.ast_nodes", ast_nodes / n, "count");
  out->Add("lang.parse_ms", parse_ms / n, "ms");
  out->Add("lang.reparse_ms", reparse_ms / n, "ms");
  out->Add("lang.print_ms", print_ms / n, "ms");
  out->Add("analysis.analyze_ms", analyze_ms / n, "ms");
  out->Add("analysis.graph_nodes", graph_nodes / n, "count");
  out->Add("analysis.graph_edges", graph_edges / n, "count");
  out->Add("analysis.fixpoint_rounds", fixpoint_rounds / n, "count");
  out->Add("instrument.instrument_ms", instrument_ms / n, "ms");
  out->Add("instrument.sites", sites / n, "count");
  out->Add("vm.compile_ms", compile_ms / n, "ms");
  out->Add("corpus.create_ms", create_ms / n, "ms");
}

}  // namespace perfbench
}  // namespace turnstile
