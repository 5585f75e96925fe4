// The repo benchmark driver.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--part <j> --parts <k>]
//
// Workloads: managed-stream, exhaustive-stream, package-deploy
// (see perfbench/README.md). One process is one part of a run; run.py starts
// the parts one after another and merges them. Prints progress and check
// failures to stderr and, as the last line of stdout, one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1); an untraced one also carries "tail_quantile" and every timed
// op's scaled latency in "latencies_ms". Exits 2 on bad arguments and 1 when a
// workload cannot be set up; a run whose checks fail still prints its result,
// with correct=false.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/src/bench.h"

namespace turnstile {
namespace perfbench {
namespace {

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0' || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

int Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--part <j> --parts <k>]\n",
               problem.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  options.process_start = Clock::now();
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage("missing value for " + flag);
    }
    const char* value = argv[i + 1];
    double number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseNumber(value, &number) && number >= 0 &&
               number == std::floor(number) && number < 1e15) {
      options.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds" && ParseNumber(value, &number) && number > 0 &&
               number <= 3600) {
      options.seconds = number;
    } else if (flag == "--trace" && (std::string(value) == "0" || std::string(value) == "1")) {
      options.trace = std::string(value) == "1";
    } else if (flag == "--parts" && ParseNumber(value, &number) && number >= 1 && number <= 64 &&
               number == std::floor(number)) {
      options.parts = static_cast<int>(number);
    } else if (flag == "--part" && ParseNumber(value, &number) && number >= 0 && number < 64 &&
               number == std::floor(number)) {
      options.part = static_cast<int>(number);
    } else {
      return Usage("bad argument " + flag + " " + value);
    }
  }
  if (!have_workload) {
    return Usage("missing --workload");
  }
  if (options.part >= options.parts) {
    return Usage("--part must be below --parts");
  }
  Outcome outcome = options.workload == "package-deploy" ? RunDeploy(options)
                                                         : RunStream(options);
  if (!outcome.fatal.empty()) {
    std::fprintf(stderr, "perfbench_driver: %s\n", outcome.fatal.c_str());
    return 1;
  }
  for (const std::string& failure : outcome.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  for (const Metric& metric : outcome.metrics) {
    std::fprintf(stderr, "  %-28s %16.6f %s\n", metric.name.c_str(), metric.value,
                 metric.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += outcome.failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& metric = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    json += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}";
  if (!outcome.latencies_ms.empty()) {
    char quantile[32];
    std::snprintf(quantile, sizeof quantile, "%.17g", outcome.tail_quantile);
    json += ", \"tail_quantile\": " + std::string(quantile) + ", \"latencies_ms\": [";
    for (size_t i = 0; i < outcome.latencies_ms.size(); ++i) {
      char value[32];
      std::snprintf(value, sizeof value, "%.9g", outcome.latencies_ms[i]);
      json += (i == 0 ? "" : ",") + std::string(value);
    }
    json += "]";
  }
  json += "}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace turnstile

int main(int argc, char** argv) { return turnstile::perfbench::Main(argc, argv); }
