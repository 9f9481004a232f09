//===- Experiment.h - The Section 6 experiment driver -----------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs (workload × detector) experiments and gathers the measurements
/// behind Table 1, Table 2, Figure 2, and Figure 8: check ratios (check
/// events / heap accesses, split by fields and arrays), wall-clock
/// overhead over the uninstrumented base run, peak shadow memory, and
/// StaticBF analysis time.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_HARNESS_EXPERIMENT_H
#define BIGFOOT_HARNESS_EXPERIMENT_H

#include "events/DetectionBackend.h"
#include "workloads/Workloads.h"

#include <cstdint>
#include <string>
#include <vector>

namespace bigfoot {

/// Per-detector measurements on one workload.
struct ToolMetrics {
  std::string Tool;
  double CheckRatio = 0;      ///< check events / heap accesses.
  double FieldCheckRatio = 0; ///< field check events / heap accesses.
  double ArrayCheckRatio = 0; ///< array check events / heap accesses.
  double Seconds = 0;         ///< best-of-N instrumented run time.
  double OverheadX = 0;       ///< (Seconds - Base) / Base.
  uint64_t ShadowOps = 0;
  uint64_t Races = 0;
  uint64_t PeakShadowBytes = 0;
  uint64_t PeakShadowLocations = 0;
  /// Check-filter metadata footprint, kept apart from the counter-derived
  /// fields above (which are byte-identical with the filter on and off);
  /// Table 2's census adds it to PeakShadowBytes so the memory account
  /// stays honest.
  uint64_t FilterTableBytes = 0;
};

/// All measurements for one workload.
struct ExperimentResult {
  std::string Workload;
  double BaseSeconds = 0;
  uint64_t Accesses = 0;
  uint64_t FieldAccesses = 0;
  uint64_t ArrayAccesses = 0;
  uint64_t BaseHeapBytes = 0;
  double StaticSeconds = 0;   ///< BigFoot placement time.
  unsigned MethodsProcessed = 0;
  unsigned BigFootChecks = 0; ///< check statements BigFoot materialized.
  std::vector<ToolMetrics> Tools; ///< One per tool, in kTools order.

  const ToolMetrics &tool(const std::string &Name) const;
};

/// Experiment knobs; the detection knobs are the DetectOptions base and
/// apply to the timed runs and the counters phase's replays alike.
struct ExperimentOptions : DetectOptions {
  int Iterations = 3; ///< Timed repetitions; the minimum is reported.
                      ///< 0 skips wall-clock timing entirely (counters,
                      ///< ratios, and shadow memory are still measured).
  uint64_t Seed = 1;
  /// Worker threads for the measurement phase of runSuite (0 = one per
  /// hardware thread). Every (workload × config) cell runs on its own
  /// freshly parsed program and writes a pre-assigned slot, and timing
  /// runs stay serial on the quiesced pool afterwards — so Jobs changes
  /// neither the results nor their order, only the wall-clock spent.
  unsigned Jobs = 0;
  /// When non-empty, the counters phase's recorded traces are also
  /// written into this directory as <workload>.<placement>.bft.
  std::string RecordDir;
};

/// Runs all six detectors (plus the base) on one workload.
ExperimentResult runExperiment(const Workload &W,
                               const ExperimentOptions &Opts =
                                   ExperimentOptions());

/// Runs the whole suite.
std::vector<ExperimentResult>
runSuite(SuiteScale Scale,
         const ExperimentOptions &Opts = ExperimentOptions());

/// Geometric mean of (1 + overhead) minus 1... the paper reports geomean
/// of overheads directly; zero/negative overheads are clamped to a small
/// positive epsilon as is conventional.
double geomeanOverhead(const std::vector<double> &Overheads);

/// Parses --small/--iters=N/--seed=N/--jobs=N/--record-dir=DIR/
/// --async-detect/--detect-shards=N|auto/--no-check-filter/--workload=NAME
/// command-line options shared by the bench binaries.
/// Numeric values are strict (see parseNumericFlag): a malformed or
/// out-of-range value, or any other argument, exits with an error.
struct BenchArgs {
  SuiteScale Scale = SuiteScale::Bench;
  ExperimentOptions Opts;
  /// When non-empty, restrict suite-driven benches to this one workload.
  std::string Workload;
};
BenchArgs parseBenchArgs(int Argc, char **Argv);

} // namespace bigfoot

#endif // BIGFOOT_HARNESS_EXPERIMENT_H
