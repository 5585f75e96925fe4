// The two message-stream workloads. One op is one generated message
// delivered through an app's entry point (GenerateMessage + InjectValue), in
// rounds of one message per app, on one thread in a closed loop.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/checks.h"
#include "src/flow/workload.h"
#include "src/obs/audit.h"
#include "src/obs/profiler.h"
#include "src/support/json.h"
#include "src/support/rng.h"

namespace turnstile {
namespace perfbench {

namespace {

struct StreamSpec {
  const char* name;
  AppVersion version;
  size_t rounds_per_window;  // ~0.1 s of ops per window at today's speed
  double tail_quantile;      // >= 10 ops beyond it in a run (see README)
  int rss_probe_round;       // peak RSS is read when this many rounds are done
};

// Both streams drive the 27 Turnstile-positive apps.
const StreamSpec kStreams[] = {
    {"managed-stream", AppVersion::kRoundTrip, 2, 0.99, 24},
    {"exhaustive-stream", AppVersion::kExhaustive, 2, 0.99, 24},
};

constexpr int kWarmupRounds = 2;
// Rounds of the selective-vs-exhaustive audit comparison.
constexpr int kSubsetRounds = 4;

uint64_t LaneSeed(uint64_t seed, size_t index) {
  return seed * 0x9E3779B97F4A7C15ull ^ (index + 1) * 0xD1B54A32D192ED03ull;
}

// One app instance in the stream together with its message source.
struct Lane {
  const CorpusApp* app = nullptr;
  uint64_t seed = 0;
  std::unique_ptr<AppRuntime> runtime;
  Json message_template;
  Rng rng{0};
  RecordDigest digest;
  std::vector<IoRecord> sample;  // first record, for the checks' self-test
};

WorkCounters ReadCounters(const std::vector<Lane>& lanes) {
  WorkCounters c;
  for (const Lane& lane : lanes) {
    c.Add(WorkCounters::Of(*lane.runtime));
  }
  return c;
}

// Folds the I/O records the last op produced into the lane's digest and drops
// them, so memory tracks the program rather than the benchmark's log.
void DrainRecords(Lane& lane, TraceLedger* trace) {
  std::vector<IoRecord>& records = lane.runtime->interp().io_world().records;
  for (const IoRecord& record : records) {
    lane.digest.Add(record);
    if (trace != nullptr) {
      ++trace->records;
      trace->payload_bytes += record.payload.size();
    }
  }
  if (lane.sample.empty() && !records.empty()) {
    lane.sample.push_back(records.front());
  }
  records.clear();
}

// Delivers message `seq` to every lane and returns how many ops failed.
uint64_t DriveRound(std::vector<Lane>& lanes, int seq, OpLog* log, TraceLedger* trace) {
  uint64_t failed = 0;
  obs::Profiler& profiler = obs::Profiler::Global();
  if (log != nullptr) {
    log->MaybeProbe();
  }
  for (Lane& lane : lanes) {
    obs::OverheadSplit before;
    if (trace != nullptr) {
      before = profiler.split();
    }
    Clock::time_point start = Clock::now();
    Value message = GenerateMessage(lane.message_template, &lane.rng, seq);
    Clock::time_point generated = Clock::now();
    Status status = lane.runtime->InjectValue(std::move(message));
    Clock::time_point done = Clock::now();
    if (!status.ok()) {
      ++failed;
    }
    if (log != nullptr) {
      log->ms.push_back(std::chrono::duration<double, std::milli>(done - start).count());
    }
    if (trace != nullptr) {
      double op_s = std::chrono::duration<double>(done - start).count();
      double inject_s = std::chrono::duration<double>(done - generated).count();
      trace->generate_s += op_s - inject_s;
      trace->inject_s += inject_s;
      trace->Op(op_s, inject_s, before, profiler.split());
    }
    DrainRecords(lane, trace);
  }
  return failed;
}

// Labelled sink writes ("sink {labels}") of one app version over the first
// `rounds` messages of the lane's stream, read from the audit ledger.
std::vector<std::string> LabelledSinkWrites(const Lane& lane, AppVersion version, int rounds,
                                            std::string* error) {
  obs::AuditLedger& ledger = obs::AuditLedger::Global();
  ledger.Enable(1 << 16);
  std::vector<std::string> writes;
  auto runtime = AppRuntime::Create(*lane.app, version);
  if (!runtime.ok()) {
    *error = lane.app->name + ": " + runtime.status().ToString();
  } else {
    Rng rng(lane.seed);
    for (int seq = 0; seq < rounds; ++seq) {
      (void)(*runtime)->InjectValue(GenerateMessage(lane.message_template, &rng, seq));
    }
    if (ledger.dropped() != 0) {
      *error = lane.app->name + ": audit ledger dropped events";
    }
    for (const obs::AuditEvent& event : ledger.Snapshot()) {
      if (event.kind == obs::AuditKind::kSinkWrite && !event.labels.empty()) {
        writes.push_back(event.subject + " " + event.labels);
      }
    }
  }
  ledger.Disable();
  return writes;
}

// Replays the first `rounds` messages of the lane's stream through the
// unmanaged original.
RecordDigest ReplayOriginal(const Lane& lane, int rounds, std::string* error) {
  RecordDigest digest;
  auto runtime = AppRuntime::Create(*lane.app, AppVersion::kOriginal);
  if (!runtime.ok()) {
    *error = lane.app->name + ": original: " + runtime.status().ToString();
    return digest;
  }
  Rng rng(lane.seed);
  for (int seq = 0; seq < rounds; ++seq) {
    (void)(*runtime)->InjectValue(GenerateMessage(lane.message_template, &rng, seq));
    std::vector<IoRecord>& records = (*runtime)->interp().io_world().records;
    for (const IoRecord& record : records) {
      digest.Add(record);
    }
    records.clear();
  }
  return digest;
}

}  // namespace

Outcome RunStream(const Options& options) {
  Outcome out;
  const StreamSpec* spec = nullptr;
  for (const StreamSpec& candidate : kStreams) {
    if (options.workload == candidate.name) {
      spec = &candidate;
    }
  }
  if (spec == nullptr) {
    out.fatal = "unknown workload '" + options.workload + "'";
    return out;
  }

  // --- set-up: every instance, then warm-up rounds -------------------------
  SetupTimer setup;
  const std::vector<CorpusApp>& corpus = *setup.Time([] { return &Corpus(); });
  std::vector<Lane> lanes;
  StaticLedger ledger;
  for (const CorpusApp& app : corpus) {
    if (!PositiveApp(app)) {
      continue;
    }
    Lane lane;
    lane.app = &app;
    // Each part of a run draws its own messages.
    lane.seed = LaneSeed(options.seed * static_cast<uint64_t>(options.parts) +
                             static_cast<uint64_t>(options.part),
                         lanes.size());
    lane.rng = Rng(lane.seed);
    auto tmpl = Json::Parse(app.message_template);
    if (!tmpl.ok()) {
      out.fatal = app.name + ": message template: " + tmpl.status().ToString();
      return out;
    }
    lane.message_template = std::move(tmpl).value();
    double setup_before = setup.seconds;
    auto runtime = setup.Time([&] { return AppRuntime::Create(app, spec->version); });
    if (!runtime.ok()) {
      out.fatal = app.name + ": deploy failed: " + runtime.status().ToString();
      return out;
    }
    ledger.create_ms += (setup.seconds - setup_before) * 1e3;
    lane.runtime = std::move(runtime).value();
    lanes.push_back(std::move(lane));
  }

  int round = 0;
  double peak_rss_kb = 0;
  double heap_start_kb = 0;
  double heap_probe_kb = 0;
  size_t ops_at_probe = 0;
  size_t timed_ops = 0;
  auto step = [&](OpLog* log, TraceLedger* trace) {
    out.failed += DriveRound(lanes, round, log, trace);
    out.attempted += lanes.size();
    ++round;
    if (log != nullptr) {
      timed_ops += lanes.size();
    }
    if (round == spec->rss_probe_round) {
      peak_rss_kb = PeakRssKb();
      heap_probe_kb = HeapInUseKb();
      ops_at_probe = timed_ops;
    }
  };
  while (round < kWarmupRounds) {
    setup.Time([&] {
      step(nullptr, nullptr);
      return 0;
    });
  }
  setup.Report(options.process_start);

  // --- timed window ---------------------------------------------------------
  // The traced run measures the first half untraced and the second half with
  // the profiler on; the difference of the two medians is the tracing cost.
  OpLog log;
  log.ops_per_window = spec->rounds_per_window * lanes.size();
  OpLog traced_log;
  traced_log.ops_per_window = log.ops_per_window;
  TraceLedger trace;
  double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  heap_start_kb = HeapInUseKb();
  Clock::time_point window_start = Clock::now();
  while (SecondsSince(window_start) < untraced_s) {
    step(&log, nullptr);
  }
  if (peak_rss_kb == 0) {  // the window ended before the probe round
    peak_rss_kb = PeakRssKb();
    heap_probe_kb = HeapInUseKb();
    ops_at_probe = timed_ops;
  }
  if (options.trace) {
    for (const Lane& lane : lanes) {
      std::string error;
      if (!ledger.Measure(*lane.app, spec->version, &error)) {
        out.failures.push_back(lane.app->name + ": static pipeline: " + error);
      }
    }
    trace.Begin();
    WorkCounters before = ReadCounters(lanes);
    Clock::time_point traced_start = Clock::now();
    while (SecondsSince(traced_start) < options.seconds - untraced_s) {
      step(&traced_log, &trace);
    }
    WorkCounters after = ReadCounters(lanes);
    trace.work = after;
    trace.work.Add(before, -1);
    trace.work.pool_sets = after.pool_sets;
    trace.instances = static_cast<double>(lanes.size());
    trace.heap_kb_per_kop =
        (heap_probe_kb - heap_start_kb) / (static_cast<double>(ops_at_probe) / 1000.0);
    trace.End(log, traced_log, &out);
    ledger.AddTo(&out);  // one Create and one Measure per instance
  } else {
    log.AddEndToEnd(spec->tail_quantile, /*paced=*/true, &out);
    out.Add("peak_rss_mb", peak_rss_kb / 1024.0, "MB");
    out.Add("setup_s", setup.seconds, "s");
  }

  // --- output checks, outside the timed window ------------------------------
  std::vector<std::string> subset_sample;
  for (Lane& lane : lanes) {
    std::string failure =
        CheckNoViolations(lane.app->name, lane.runtime->tracker()->violations().size());
    lane.runtime.reset();
    if (!failure.empty()) {
      out.failures.push_back(failure);
    }
  }
  for (const Lane& lane : lanes) {
    std::string error;
    std::vector<std::string> selective =
        LabelledSinkWrites(lane, AppVersion::kRoundTrip, kSubsetRounds, &error);
    std::vector<std::string> exhaustive =
        LabelledSinkWrites(lane, AppVersion::kExhaustive, kSubsetRounds, &error);
    std::string failure =
        error.empty() ? CheckSubMultiset(lane.app->name, selective, exhaustive) : error;
    if (!failure.empty()) {
      out.failures.push_back(failure);
    }
    if (subset_sample.empty()) {
      subset_sample = selective;
    }
  }
  // Every round the lanes ran, warm-up and both halves included.
  for (const Lane& lane : lanes) {
    std::string error;
    RecordDigest original = ReplayOriginal(lane, round, &error);
    std::string failure =
        error.empty() ? CheckTransparent(lane.app->name, lane.digest, original) : error;
    if (!failure.empty()) {
      out.failures.push_back(failure);
    }
  }
  const Lane* sampled = nullptr;
  for (const Lane& lane : lanes) {
    if (sampled == nullptr && !lane.sample.empty()) {
      sampled = &lane;
    }
  }
  if (sampled == nullptr) {
    out.failures.push_back("no app wrote an I/O record; the checks have nothing to compare");
  } else {
    for (const std::string& missed :
         SelfTestStreamChecks(sampled->app->name, sampled->sample.front(), subset_sample)) {
      out.failures.push_back("self-test: " + missed);
    }
  }
  std::fprintf(stderr, "%s: %d rounds x %zu apps, %zu timed ops\n", spec->name, round,
               lanes.size(), log.ms.size() + traced_log.ms.size());
  return out;
}

}  // namespace perfbench
}  // namespace turnstile
