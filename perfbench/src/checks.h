// Output checks of the repo benchmark. Each check compares the program with
// itself (managed vs unmanaged, selective vs exhaustive, with vs without the
// dependency bundle, printer vs re-parse) or with the corpus's manual
// annotation; none compares against a stored copy of earlier output. Each
// returns "" when it holds and a one-line reason when it does not.
#ifndef TURNSTILE_PERFBENCH_SRC_CHECKS_H_
#define TURNSTILE_PERFBENCH_SRC_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/interp/interp.h"

namespace turnstile {
namespace perfbench {

// The 27 apps Turnstile's analysis finds a path in (Fig. 10).
bool PositiveApp(const CorpusApp& app);

// Order-sensitive FNV-1a digest of an app's I/O records (virtual time,
// channel, op, detail, payload), so a long stream can be compared without
// keeping every record.
struct RecordDigest {
  uint64_t hash = 1469598103934665603ull;
  uint64_t count = 0;

  void Add(const IoRecord& record);
  bool operator==(const RecordDigest& other) const {
    return hash == other.hash && count == other.count;
  }
};

// Transparency: the managed app wrote exactly what the original wrote.
std::string CheckTransparent(const std::string& app, const RecordDigest& managed,
                             const RecordDigest& original);

// The corpus policies are violation-free for the generated workload.
std::string CheckNoViolations(const std::string& app, size_t violations);

// Every labelled sink write of the selective version ("sink {labels}") is
// also one of the exhaustive version's, counted with multiplicity.
std::string CheckSubMultiset(const std::string& app, std::vector<std::string> selective,
                             std::vector<std::string> exhaustive);

// Analysis path counts: at most the manual ground truth, unchanged by the
// vendored bundle, and at least one for a Turnstile-positive app.
std::string CheckPathCounts(const CorpusApp& app, size_t plain_paths, size_t bundled_paths);

// Printing the re-parsed program gives back the same text.
std::string CheckPrinterFixedPoint(const std::string& app, const std::string& printed);

// Feeds each check a corrupted input built from real run data and returns
// one line per check that wrongly accepted it (empty = every check bites).
std::vector<std::string> SelfTestStreamChecks(const std::string& app, const IoRecord& sample,
                                              const std::vector<std::string>& labelled_writes);
std::vector<std::string> SelfTestDeployChecks(const CorpusApp& app, size_t plain_paths,
                                              const std::string& printed);

}  // namespace perfbench
}  // namespace turnstile

#endif  // TURNSTILE_PERFBENCH_SRC_CHECKS_H_
