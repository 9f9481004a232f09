//===- CheckPlacement.h - The StaticBF check placement analysis -*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The core BigFoot contribution: the static analysis of Section 3 that
/// places precise race checks. Following the StaticBF implementation
/// notes (Section 5), placement runs as separate passes per method body:
///
///   0. rename insertion (freshness, [RENAME]),
///   1. forward history pass — boolean facts, alias expressions, past
///      accesses; loop invariants via Cartesian predicate abstraction
///      over induction variables,
///   2. backward anticipated pass,
///   3. forward check pass — computes every Checks(...) set of Figure 7,
///      coalesces it (Section 4), and inserts check(C) statements before
///      synchronization operations, at branch merges, at loop edges, and
///      at the ends of methods and threads.
///
/// The result is an instrumented program whose checks are precise: every
/// access is covered by a legitimate check (Section 2), which the test
/// suite verifies with a dynamic oracle.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_ANALYSIS_CHECKPLACEMENT_H
#define BIGFOOT_ANALYSIS_CHECKPLACEMENT_H

#include "analysis/KillSets.h"
#include "bfj/Program.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace bigfoot {

/// Tuning knobs; the defaults are full BigFoot. Turning features off
/// yields the ablation configurations benchmarked in bench_ablations.
struct PlacementOptions {
  /// Reason about anticipated accesses (off: every forgotten access is
  /// checked immediately; loop-carried field checks stay inside loops).
  bool UseAnticipation = true;
  /// Run the Section 4 coalescing step on each inserted check.
  bool CoalesceChecks = true;
  /// Infer loop invariants so array checks hoist out of loops.
  bool HoistLoopChecks = true;
  /// Record per-statement contexts (drives the analysis-explorer example).
  bool TraceContexts = false;
  /// Synchronization model flags (Section 5's static-field handling).
  SyncModel Sync;
};

/// The most entailment queries (H ⊢ h and H•A ⊢ a; see EntailmentBudget)
/// placement spends on one method or thread body. A body that needs more
/// falls back to per-access checks, the FastTrack placement, which is
/// sound. Query counts grow exponentially with loop nesting; the largest
/// body of the benchmark suite asks 3,278, far below this.
inline constexpr uint64_t kEntailmentBudgetPerBody = 50000;

/// Result metadata for one placement run.
struct PlacementStats {
  unsigned MethodsProcessed = 0;
  unsigned RenamesInserted = 0;
  unsigned ChecksInserted = 0; ///< check(C) statements materialized.
  unsigned PathsInserted = 0;  ///< total paths across all checks.
  /// Bodies that ran out of entailment budget and got per-access checks.
  unsigned BodiesOverBudget = 0;
  /// The most entailment queries any one body asked.
  uint64_t MaxBodyQueries = 0;
  double AnalysisSeconds = 0;  ///< wall-clock analysis time, all bodies.
  /// When TraceContexts: statement id -> "H • A" context *after* that
  /// statement (as in Figures 3 and 6).
  std::map<unsigned, std::string> ContextAfter;
};

/// Runs the full BigFoot placement over every method and thread body of
/// \p P, inserting renames and check statements in place. \p P should be
/// a clone of the original program. A body whose analysis would ask more
/// than kEntailmentBudgetPerBody queries gets per-access checks instead.
PlacementStats placeBigFootChecks(Program &P,
                                  const PlacementOptions &Opts =
                                      PlacementOptions());

/// The check path of one access statement, or nullopt for a statement
/// that accesses no heap location.
std::optional<Path> pathForAccess(const Stmt *S);

/// The FastTrack placement of one body: a check immediately before every
/// non-volatile heap access. Returns the number of checks inserted.
unsigned insertPerAccessChecks(const Program &P, Stmt *Body);

} // namespace bigfoot

#endif // BIGFOOT_ANALYSIS_CHECKPLACEMENT_H
