//===- Checks.h - Correctness checks of the pipeline benchmark --*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Every check is a pure function over results, returning an empty string
// on success and a one-line diagnostic otherwise, so the benchmark's
// self-test can feed each one a wrong race set or a perturbed count and
// see it fail.
//
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_PERFBENCH_CHECKS_H
#define BIGFOOT_PERFBENCH_CHECKS_H

#include "events/Replay.h"
#include "runtime/Detector.h"
#include "vm/Vm.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// Ground-truth location keys mapped through a tool's field-proxy table
/// so they compare against the tool's proxy-granular reports.
std::set<std::string>
mapThroughProxies(const std::set<std::string> &Keys,
                  const std::map<std::string, std::string> &Proxy);

/// The correctness oracle for one run made with
/// VmOptions::EnableGroundTruth. A race-free program must run Ok with no
/// tool race; a racy one must run Ok with the tool's racy locations equal
/// to the oracle's, mapped through \p Tool's field proxies.
std::string oracleMismatch(bool Racy, const bigfoot::VmResult &Run,
                           const bigfoot::DetectorConfig &Tool);

/// Everything a run or a replay produces that must repeat byte for byte.
struct Outcome {
  bool Ok = false;
  std::string Error;
  uint64_t Statements = 0;
  std::map<std::string, uint64_t> Counters;
  std::vector<std::string> Races; ///< ReportedRace::str(), in order.
  std::vector<std::string> Output;

  bool operator==(const Outcome &) const = default;
};

Outcome outcomeOf(const bigfoot::VmResult &R);
Outcome outcomeOf(const bigfoot::ReplayResult &R);

/// Names the first field in which \p Got differs from \p Want.
std::string outcomeMismatch(const Outcome &Want, const Outcome &Got);

/// A workload's deterministic work counts, by name.
using WorkCounts = std::map<std::string, uint64_t>;

/// Exact comparison: every name in either map must carry equal values.
std::string countsMismatch(const WorkCounts &Want, const WorkCounts &Got);

/// Reads the counts committed for \p Workload from a file of
/// `<workload> <name> <value>` lines (`#` starts a comment line).
bool readWorkCounts(const std::string &Path, const std::string &Workload,
                    WorkCounts &Out, std::string &Err);

/// Renders \p Counts in the format readWorkCounts reads.
std::string formatWorkCounts(const std::string &Workload,
                             const WorkCounts &Counts);

} // namespace perfbench

#endif // BIGFOOT_PERFBENCH_CHECKS_H
