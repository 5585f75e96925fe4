#include "perfbench/src/checks.h"

#include <algorithm>
#include <cstring>

#include "src/lang/parser.h"
#include "src/lang/printer.h"

namespace turnstile {
namespace perfbench {

bool PositiveApp(const CorpusApp& app) {
  return app.bucket == CorpusBucket::kTurnstileOnly || app.bucket == CorpusBucket::kBothFind;
}

void RecordDigest::Add(const IoRecord& record) {
  auto mix = [this](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash = (hash ^ bytes[i]) * 1099511628211ull;
    }
  };
  auto mix_field = [&](const std::string& field) {
    uint64_t size = field.size();
    mix(&size, sizeof size);  // length prefix keeps field boundaries unambiguous
    mix(field.data(), field.size());
  };
  uint64_t time_bits = 0;
  std::memcpy(&time_bits, &record.time, sizeof time_bits);
  mix(&time_bits, sizeof time_bits);
  mix_field(record.channel);
  mix_field(record.op);
  mix_field(record.detail);
  mix_field(record.payload);
  ++count;
}

std::string CheckTransparent(const std::string& app, const RecordDigest& managed,
                             const RecordDigest& original) {
  if (managed == original) {
    return "";
  }
  return app + ": I/O records differ from the original's (" + std::to_string(managed.count) +
         " vs " + std::to_string(original.count) + " records)";
}

std::string CheckNoViolations(const std::string& app, size_t violations) {
  if (violations == 0) {
    return "";
  }
  return app + ": " + std::to_string(violations) + " violations under a violation-free policy";
}

std::string CheckSubMultiset(const std::string& app, std::vector<std::string> selective,
                             std::vector<std::string> exhaustive) {
  std::sort(selective.begin(), selective.end());
  std::sort(exhaustive.begin(), exhaustive.end());
  if (std::includes(exhaustive.begin(), exhaustive.end(), selective.begin(), selective.end())) {
    return "";
  }
  return app + ": selective labelled sink writes are not a sub-multiset of exhaustive's";
}

std::string CheckPathCounts(const CorpusApp& app, size_t plain_paths, size_t bundled_paths) {
  std::string counts = " (" + std::to_string(plain_paths) + " plain, " +
                       std::to_string(bundled_paths) + " bundled, ground truth " +
                       std::to_string(app.ground_truth_paths) + ")";
  if (plain_paths != bundled_paths) {
    return app.name + ": the dependency bundle changes the path count" + counts;
  }
  if (plain_paths > static_cast<size_t>(app.ground_truth_paths)) {
    return app.name + ": more paths than the manual ground truth" + counts;
  }
  if (PositiveApp(app) && plain_paths == 0) {
    return app.name + ": Turnstile-positive app reports no path" + counts;
  }
  return "";
}

std::string CheckPrinterFixedPoint(const std::string& app, const std::string& printed) {
  auto reparsed = ParseProgram(printed, app + ".fixpoint.js");
  if (!reparsed.ok()) {
    return app + ": printed program does not parse: " + reparsed.status().ToString();
  }
  if (PrintProgram(*reparsed) != printed) {
    return app + ": printed program is not a printer fixed point";
  }
  return "";
}

std::vector<std::string> SelfTestStreamChecks(const std::string& app, const IoRecord& sample,
                                              const std::vector<std::string>& labelled_writes) {
  std::vector<std::string> missed;
  RecordDigest good;
  good.Add(sample);
  IoRecord corrupted = sample;
  corrupted.payload += "#";
  RecordDigest bad;
  bad.Add(corrupted);
  if (CheckTransparent(app, bad, good).empty()) {
    missed.push_back("transparency check accepted a corrupted payload");
  }
  corrupted = sample;
  corrupted.time += 1.0;
  bad = RecordDigest();
  bad.Add(corrupted);
  if (CheckTransparent(app, bad, good).empty()) {
    missed.push_back("transparency check accepted a shifted virtual time");
  }
  if (CheckNoViolations(app, 1).empty()) {
    missed.push_back("violation check accepted a violation");
  }
  std::vector<std::string> extra = labelled_writes;
  extra.push_back("corrupted.sink {secret}");
  if (CheckSubMultiset(app, extra, labelled_writes).empty()) {
    missed.push_back("sub-multiset check accepted an extra selective write");
  }
  if (!labelled_writes.empty()) {
    std::vector<std::string> doubled = labelled_writes;
    doubled.push_back(labelled_writes.front());
    if (CheckSubMultiset(app, doubled, labelled_writes).empty()) {
      missed.push_back("sub-multiset check ignored multiplicity");
    }
  }
  return missed;
}

std::vector<std::string> SelfTestDeployChecks(const CorpusApp& app, size_t plain_paths,
                                              const std::string& printed) {
  std::vector<std::string> missed;
  if (CheckPathCounts(app, plain_paths, plain_paths + 1).empty()) {
    missed.push_back("path check accepted a bundle-dependent count");
  }
  size_t over = static_cast<size_t>(app.ground_truth_paths) + 1;
  if (CheckPathCounts(app, over, over).empty()) {
    missed.push_back("path check accepted a count above ground truth");
  }
  CorpusApp positive = app;
  positive.bucket = CorpusBucket::kTurnstileOnly;
  if (CheckPathCounts(positive, 0, 0).empty()) {
    missed.push_back("path check accepted a positive app with no path");
  }
  if (CheckPrinterFixedPoint(app.name, "  " + printed).empty()) {
    missed.push_back("fixed-point check accepted non-canonical text");
  }
  return missed;
}

}  // namespace perfbench
}  // namespace turnstile
