// The package-deploy workload. One op is one deployment of a corpus app with
// the vendored dependency bundle prepended, through AppRuntime::Create
// (kRoundTrip: parse, analyze, instrument, print, re-parse, compile, load,
// instantiate). Only the static half of the program runs; no message is
// delivered.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/checks.h"
#include "src/analysis/analyzer.h"
#include "src/lang/parser.h"
#include "src/lang/printer.h"
#include "src/obs/profiler.h"
#include "src/support/rng.h"

namespace turnstile {
namespace perfbench {

namespace {

constexpr int kBundleChain = 2400;  // ~139 KB of vendored code per package
// The end-to-end figures cover one pass over the 61 shuffled packages, split
// among the parts of a run: each part deploys its slice of the order over and
// over and measures its first pass, so a run measures one deploy of every
// package and no run is charged for the slower deploys a longer run reaches
// (see CHANGES.md). The untraced window lasts until that pass is done,
// however short --seconds is.
constexpr double kTailQuantile = 0.84;  // the highest with >= 10 of 61 deploys beyond
constexpr size_t kRssProbeOps = 10;     // the shortest slice of a 5-part run is 12

// Analysis path count of `source`, or -1 when it does not analyze.
long PathCount(const std::string& source, const std::string& name) {
  auto program = ParseProgram(source, name + ".js");
  if (!program.ok()) {
    return -1;
  }
  auto analysis = AnalyzeProgram(*program);
  return analysis.ok() ? static_cast<long>(analysis->paths.size()) : -1;
}

}  // namespace

Outcome RunDeploy(const Options& options) {
  Outcome out;
  SetupTimer setup;
  const std::vector<CorpusApp>& corpus = *setup.Time([] { return &Corpus(); });
  const std::string bundle = VendoredDependencyBundle(kBundleChain);
  std::vector<CorpusApp> packages;
  for (const CorpusApp& app : corpus) {
    packages.push_back(app);
    packages.back().source = bundle + app.source;
  }
  // The seed fixes the deploy order: a shuffle of the 61 packages.
  std::vector<size_t> order(packages.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  Rng rng(options.seed);
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBelow(i + 1)]);
  }
  size_t parts = static_cast<size_t>(options.parts);
  size_t begin = order.size() * static_cast<size_t>(options.part) / parts;
  size_t slice = order.size() * static_cast<size_t>(options.part + 1) / parts - begin;
  {  // warm-up: one deploy of the package before the slice, outside the window
    const CorpusApp& package = packages[order[(begin + order.size() - 1) % order.size()]];
    auto runtime = setup.Time([&] { return AppRuntime::Create(package, AppVersion::kRoundTrip); });
    if (!runtime.ok()) {
      out.fatal = package.name + ": deploy failed: " + runtime.status().ToString();
      return out;
    }
  }
  setup.Report(options.process_start);

  // --- timed window (the traced run: first half untraced, second traced) ---
  OpLog log;
  OpLog traced_log;
  TraceLedger trace;
  StaticLedger ledger;
  // The printer fixed point is checked on each package's first deploy, right
  // away (outside the op's stopwatch), so no program text outlives its deploy.
  std::map<size_t, std::string> checked;  // package -> fixed-point failure
  std::string self_test_text;
  size_t self_test_index = 0;
  double peak_rss_kb = 0;
  double heap_first_kb = 0;
  double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  obs::Profiler& profiler = obs::Profiler::Global();
  size_t op = 0;
  for (int half = 0; half < (options.trace ? 2 : 1); ++half) {
    bool traced = half == 1;
    if (traced) {
      // Growth over the untraced half, from its first deploy on.
      trace.heap_kb_per_kop =
          op > 1 ? (HeapInUseKb() - heap_first_kb) / (static_cast<double>(op - 1) / 1000.0)
                 : 0.0;
      trace.Begin();
    }
    Clock::time_point window_start = Clock::now();
    double window_s = traced ? options.seconds - untraced_s : untraced_s;
    while (SecondsSince(window_start) < window_s ||
           (!options.trace && op < slice)) {
      size_t index = order[begin + op % slice];
      OpLog& log_for_op = traced ? traced_log : log;
      log_for_op.MaybeProbe();
      obs::OverheadSplit before = profiler.split();
      Clock::time_point start = Clock::now();
      auto runtime = AppRuntime::Create(packages[index], AppVersion::kRoundTrip);
      double op_s = SecondsSince(start);
      obs::OverheadSplit after = profiler.split();
      ++out.attempted;
      ++op;
      log_for_op.ms.push_back(op_s * 1e3);
      if (!runtime.ok()) {
        ++out.failed;
        continue;
      }
      if (traced) {
        trace.Op(op_s, op_s, before, after);
        trace.work.Add(WorkCounters::Of(**runtime));
        trace.instances += 1;
        ledger.create_ms += op_s * 1e3;
      }
      if (checked.count(index) == 0) {  // first deploy of this package
        std::string failure = CheckPrinterFixedPoint(packages[index].name,
                                                     PrintProgram((*runtime)->program_root()));
        checked[index] = failure;
        if (self_test_text.empty()) {
          self_test_text = PrintProgram((*runtime)->program_root());
          self_test_index = index;
        }
      }
      runtime->reset();
      if (op == 1) {
        heap_first_kb = HeapInUseKb();
      }
      if (op == kRssProbeOps) {
        peak_rss_kb = PeakRssKb();
      }
      if (traced) {
        std::string error;
        if (!ledger.Measure(packages[index], AppVersion::kRoundTrip, &error)) {
          out.failures.push_back(packages[index].name + ": static pipeline: " + error);
        }
      }
    }
  }
  if (peak_rss_kb == 0) {
    peak_rss_kb = PeakRssKb();
  }

  if (options.trace) {
    trace.End(log, traced_log, &out);
    ledger.AddTo(&out);
  } else {
    // Not paced: every deploy leaves the next one slower (see CHANGES.md),
    // and pacing would hide that.
    log.ms.resize(slice);
    log.probe_ms.resize(slice);
    log.AddEndToEnd(kTailQuantile, /*paced=*/false, &out);
    out.Add("peak_rss_mb", peak_rss_kb / 1024.0, "MB");
    out.Add("setup_s", setup.seconds, "s");
  }

  // --- output checks, outside the timed window ------------------------------
  for (const auto& [index, fixed_point_failure] : checked) {
    const CorpusApp& app = corpus[index];
    long plain = PathCount(app.source, app.name);
    long bundled = PathCount(packages[index].source, app.name);
    std::string failure =
        plain < 0 || bundled < 0
            ? app.name + ": analysis failed"
            : CheckPathCounts(app, static_cast<size_t>(plain), static_cast<size_t>(bundled));
    for (const std::string& reason : {failure, fixed_point_failure}) {
      if (!reason.empty()) {
        out.failures.push_back(reason);
      }
    }
  }
  if (checked.empty()) {
    out.failures.push_back("no deploy completed; the checks have nothing to compare");
  } else {
    const CorpusApp& app = corpus[self_test_index];
    long plain = std::max(PathCount(app.source, app.name), 0L);
    for (const std::string& missed :
         SelfTestDeployChecks(app, static_cast<size_t>(plain), self_test_text)) {
      out.failures.push_back("self-test: " + missed);
    }
  }
  std::fprintf(stderr, "package-deploy: %zu deploys of %zu packages\n", op, checked.size());
  return out;
}

}  // namespace perfbench
}  // namespace turnstile
