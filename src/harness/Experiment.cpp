//===- Experiment.cpp - The Section 6 experiment driver ---------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
//
// Measurement is split into two phases so the suite can use every core
// without contaminating its numbers:
//
//   1. Counters (check ratios, shadow ops, races, peak shadow memory,
//      static placement stats) come from untimed runs, recorded once and
//      replayed many times: the six detector configs share only three
//      distinct check placements (kTools in instrument/Instrumenters.h),
//      so each workload executes once per placement with a TraceWriter
//      on the event stream and every config is then replayed offline
//      from its placement's trace — 3 executions + 6 replays instead of
//      6 instrumented executions, with bytewise-identical results
//      (detectors are passive consumers; the harness test enforces the
//      identity against direct runs).
//      Cells are independent — each parses its own Program (the VM
//      re-interns the AST at attach, so jobs must not share one) and
//      writes only its pre-assigned slot — and are distributed over a
//      fixed pool of ExperimentOptions::Jobs threads, with a barrier
//      between the record wave and the replay wave. The result vector is
//      identical for any Jobs value, including 1.
//
//   2. Wall-clock timing (BaseSeconds, per-tool Seconds/OverheadX) runs
//      afterwards, serially, best-of-N on the quiesced pool, exactly as
//      the serial driver always did. Iterations == 0 skips this phase for
//      counter-only consumers (e.g. the memory and check-ratio tables).
//
// Both phases are deterministic given the seed, so phase 1's counters are
// the counters a timed run would have produced.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"

#include "bfj/Parser.h"
#include "events/Replay.h"
#include "events/TraceCodec.h"
#include "instrument/Instrumenters.h"
#include "support/Flags.h"
#include "support/Parallel.h"
#include "support/Timer.h"
#include "vm/Vm.h"

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <sys/stat.h>

using namespace bigfoot;

const ToolMetrics &ExperimentResult::tool(const std::string &Name) const {
  for (const ToolMetrics &M : Tools)
    if (M.Tool == Name)
      return M;
  std::fprintf(stderr, "no metrics for tool '%s'\n", Name.c_str());
  std::abort();
}

namespace {

/// One workload's recorded traces, indexed by placement.
using PlacementTraces = std::array<std::vector<uint8_t>, kNumPlacements>;

VmOptions vmOptionsFor(const ExperimentOptions &Opts) {
  VmOptions VmOpts;
  VmOpts.Seed = Opts.Seed;
  static_cast<DetectOptions &>(VmOpts) = Opts;
  return VmOpts;
}

ParseResult parseWorkload(const Workload &W) {
  ParseResult PR = parseProgram(W.Source);
  if (!PR.ok()) {
    std::fprintf(stderr, "workload %s failed to parse: %s\n", W.Name.c_str(),
                 PR.Error.c_str());
    std::abort();
  }
  return PR;
}

/// Best-of-N timed run; returns the last result (all runs are
/// deterministic given the seed, so any result is representative).
template <typename RunFn>
std::pair<double, decltype(std::declval<RunFn>()())> timedBest(int Iterations,
                                                               RunFn Run) {
  double Best = 1e100;
  decltype(Run()) Last;
  for (int I = 0; I < Iterations; ++I) {
    Timer T;
    Last = Run();
    double Sec = T.seconds();
    if (Sec < Best)
      Best = Sec;
    if (!Last.Ok)
      break;
  }
  return {Best, std::move(Last)};
}

/// Phase-1 cell: the base (uninstrumented) run's access and heap
/// counters. Writes only the base fields of \p Out.
void measureBase(const Workload &W, const ExperimentOptions &Opts,
                 ExperimentResult &Out) {
  ParseResult PR = parseWorkload(W);
  VmOptions VmOpts = vmOptionsFor(Opts);
  VmResult Run = runProgramBase(*PR.Prog, VmOpts);
  if (!Run.Ok) {
    std::fprintf(stderr, "workload %s failed: %s\n", W.Name.c_str(),
                 Run.Error.c_str());
    std::abort();
  }
  Out.Accesses = Run.Counters.get("vm.accesses");
  Out.FieldAccesses = Run.Counters.get("vm.accesses.field");
  Out.ArrayAccesses = Run.Counters.get("vm.accesses.array");
  Out.BaseHeapBytes = Run.Counters.get("vm.heapBytes");
}

/// A replayed run's metrics.
void fillToolMetrics(ToolMetrics &M, const std::string &ToolName,
                     const DetectResult &Run) {
  const Stats &Counters = Run.Counters;
  M.Tool = ToolName;
  uint64_t FieldEvents = Counters.get("tool.checkEvents.field");
  uint64_t ArrayEvents = Counters.get("tool.checkEvents.array");
  uint64_t Accesses = Counters.get("vm.accesses");
  if (Accesses > 0) {
    M.CheckRatio =
        static_cast<double>(FieldEvents + ArrayEvents) / Accesses;
    M.FieldCheckRatio = static_cast<double>(FieldEvents) / Accesses;
    M.ArrayCheckRatio = static_cast<double>(ArrayEvents) / Accesses;
  }
  M.ShadowOps = Counters.get("tool.shadowOps");
  M.Races = Counters.get("tool.races");
  M.PeakShadowBytes = Counters.get("tool.peakShadowBytes");
  M.PeakShadowLocations = Counters.get("tool.peakShadowLocations");
  M.FilterTableBytes = Run.FilterTableBytes;
}

/// Record-wave cell: execute one placement with a TraceWriter on the
/// event stream and no detector attached. The VM still executes the
/// placed checks, so the run's vm.* counters, output, and schedule are
/// exactly those of a detector-attached run.
void measureRecord(const Workload &W, const ExperimentOptions &Opts,
                   PlacementKind Placement, ExperimentResult &Out,
                   std::vector<uint8_t> &TraceBytes) {
  ParseResult PR = parseWorkload(W);
  InstrumentedProgram IP = instrumentPlacement(*PR.Prog, Placement);
  if (Placement == PlacementKind::BigFoot) {
    Out.StaticSeconds = IP.Placement.AnalysisSeconds;
    Out.MethodsProcessed = IP.Placement.MethodsProcessed;
    Out.BigFootChecks = IP.Placement.ChecksInserted;
  }
  IP.Prog->internSymbols(); // Idempotent; the trace header needs the table.
  TraceWriter Writer(IP.Prog->symbols(), IP.Tool);
  VmOptions VmOpts = vmOptionsFor(Opts);
  VmOpts.RecordSink = &Writer;
  VmResult Run = runProgramBase(*IP.Prog, VmOpts);
  if (!Run.Ok) {
    std::fprintf(stderr, "workload %s recording %s failed: %s\n",
                 W.Name.c_str(), IP.Tool.Name.c_str(), Run.Error.c_str());
    std::abort();
  }
  Writer.finish(Run.traceSummary());
  TraceBytes = Writer.buffer();
  if (!Opts.RecordDir.empty()) {
    ::mkdir(Opts.RecordDir.c_str(), 0777); // EEXIST is fine; races are too.
    std::string Path = Opts.RecordDir + "/" + W.Name + "." +
                       placementName(Placement) + ".bft";
    if (!Writer.writeFile(Path))
      std::fprintf(stderr, "warning: could not write trace %s\n",
                   Path.c_str());
  }
}

/// Appends the six per-tool replay jobs for one workload's placement
/// traces, in kTools order, for replayTracesParallel.
void appendReplayJobs(const PlacementTraces &Traces,
                      const ExperimentOptions &Opts,
                      std::vector<ReplayJob> &Jobs) {
  for (const ToolSpec &T : kTools) {
    ReplayJob J;
    J.Trace = &Traces[static_cast<size_t>(T.Placement)];
    J.MakeConfig = [&T](const DetectorConfig &Recorded) {
      return T.Config(Recorded.FieldProxy);
    };
    J.Opts = Opts;
    Jobs.push_back(std::move(J));
  }
}

/// Consumes one workload's kNumTools-sized slice of parallel replay
/// results into its metrics slots.
void fillReplayMetrics(const Workload &W, const ReplayResult *Results,
                       ExperimentResult &Out) {
  for (size_t T = 0; T < kNumTools; ++T) {
    const ReplayResult &Run = Results[T];
    if (!Run.Ok) {
      std::fprintf(stderr, "workload %s replay under %s failed: %s\n",
                   W.Name.c_str(), Run.Tool.c_str(), Run.Error.c_str());
      std::abort();
    }
    fillToolMetrics(Out.Tools[T], Run.Tool, Run);
  }
}

/// Phase 2: best-of-N wall-clock timing for one workload (base plus every
/// configuration). Serial by design — call only on a quiesced pool.
void timeWorkload(const Workload &W, const ExperimentOptions &Opts,
                  ExperimentResult &Out) {
  ParseResult PR = parseWorkload(W);
  const Program &Prog = *PR.Prog;
  VmOptions VmOpts = vmOptionsFor(Opts);

  auto [BaseSec, BaseRun] = timedBest(Opts.Iterations, [&Prog, &VmOpts] {
    return runProgramBase(Prog, VmOpts);
  });
  if (!BaseRun.Ok) {
    std::fprintf(stderr, "workload %s failed: %s\n", W.Name.c_str(),
                 BaseRun.Error.c_str());
    std::abort();
  }
  Out.BaseSeconds = BaseSec;

  for (size_t T = 0; T < kNumTools; ++T) {
    InstrumentedProgram IP = instrumentTool(Prog, kTools[T]);
    auto [ToolSec, Run] = timedBest(Opts.Iterations, [&IP, &VmOpts] {
      return runProgram(*IP.Prog, IP.Tool, VmOpts);
    });
    if (!Run.Ok) {
      std::fprintf(stderr, "workload %s under %s failed: %s\n",
                   W.Name.c_str(), IP.Tool.Name.c_str(), Run.Error.c_str());
      std::abort();
    }
    ToolMetrics &M = Out.Tools[T];
    M.Seconds = ToolSec;
    M.OverheadX = Out.BaseSeconds > 0
                      ? (ToolSec - Out.BaseSeconds) / Out.BaseSeconds
                      : 0;
  }
}

/// Phases 1 and 2 over \p Suite, one result per workload in order.
std::vector<ExperimentResult> runWorkloads(const std::vector<Workload> &Suite,
                                           const ExperimentOptions &Opts) {
  std::vector<ExperimentResult> Out(Suite.size());
  for (size_t I = 0; I < Suite.size(); ++I) {
    Out[I].Workload = Suite[I].Name;
    Out[I].Tools.resize(kNumTools);
  }

  // Phase 1. Every cell writes a disjoint part of its workload's
  // pre-sized result, so workers never contend and order never depends on
  // scheduling. Wave 1: base + one recording per distinct placement (4
  // executions per workload). Wave 2 (after the barrier): replay all six
  // configs from the in-memory traces.
  std::vector<PlacementTraces> Traces(Suite.size());
  struct RecCell {
    size_t W;
    int Placement; ///< -1 = base.
  };
  std::vector<RecCell> Wave1;
  Wave1.reserve(Suite.size() * (kNumPlacements + 1));
  for (size_t I = 0; I < Suite.size(); ++I) {
    Wave1.push_back({I, -1});
    for (int P = 0; P < static_cast<int>(kNumPlacements); ++P)
      Wave1.push_back({I, P});
  }
  forEachParallel(Wave1.size(), Opts.Jobs, [&](size_t I) {
    const RecCell &C = Wave1[I];
    if (C.Placement < 0)
      measureBase(Suite[C.W], Opts, Out[C.W]);
    else
      measureRecord(Suite[C.W], Opts,
                    static_cast<PlacementKind>(C.Placement), Out[C.W],
                    Traces[C.W][static_cast<size_t>(C.Placement)]);
  });
  // Wave 2 is one flat parallel replay: every (workload × tool) trace
  // replays as an independent job, results landing slot-indexed so the
  // output is identical for any thread count.
  std::vector<ReplayJob> Jobs;
  Jobs.reserve(Suite.size() * kNumTools);
  for (size_t W = 0; W < Suite.size(); ++W)
    appendReplayJobs(Traces[W], Opts, Jobs);
  std::vector<ReplayResult> Replays = replayTracesParallel(Jobs, Opts.Jobs);
  for (size_t W = 0; W < Suite.size(); ++W)
    fillReplayMetrics(Suite[W], Replays.data() + W * kNumTools, Out[W]);

  // Phase 2: wall-clock timing on the now-quiesced pool.
  if (Opts.Iterations > 0)
    for (size_t I = 0; I < Suite.size(); ++I)
      timeWorkload(Suite[I], Opts, Out[I]);
  return Out;
}

} // namespace

ExperimentResult bigfoot::runExperiment(const Workload &W,
                                        const ExperimentOptions &Opts) {
  return std::move(runWorkloads({W}, Opts).front());
}

std::vector<ExperimentResult>
bigfoot::runSuite(SuiteScale Scale, const ExperimentOptions &Opts) {
  return runWorkloads(standardSuite(Scale), Opts);
}

double bigfoot::geomeanOverhead(const std::vector<double> &Overheads) {
  if (Overheads.empty())
    return 0;
  double LogSum = 0;
  for (double V : Overheads)
    LogSum += std::log(V > 0.001 ? V : 0.001);
  return std::exp(LogSum / static_cast<double>(Overheads.size()));
}

BenchArgs bigfoot::parseBenchArgs(int Argc, char **Argv,
                                  std::span<const std::string_view> Takes) {
  std::string_view Bench = Argv[0];
  Bench = Bench.substr(Bench.find_last_of('/') + 1);
  BenchArgs Args;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strcmp(Arg, "--small") == 0)
      Args.Scale = SuiteScale::Test;
    else if (std::strncmp(Arg, "--iters=", 8) == 0)
      Args.Opts.Iterations =
          static_cast<int>(parseNumericFlag(Arg, 0, INT_MAX));
    else if (std::strncmp(Arg, "--seed=", 7) == 0)
      Args.Opts.Seed = parseNumericFlag(Arg, 0, UINT64_MAX);
    else if (std::strncmp(Arg, "--jobs=", 7) == 0)
      Args.Opts.Jobs =
          static_cast<unsigned>(parseNumericFlag(Arg, 0, UINT_MAX));
    else if (std::strncmp(Arg, "--record-dir=", 13) == 0)
      Args.Opts.RecordDir = Arg + 13;
    else if (std::strncmp(Arg, "--workload=", 11) == 0)
      Args.Workload = Arg + 11;
    else if (!parseDetectFlag(Arg, Args.Opts)) {
      std::fprintf(stderr, "bigfoot: error: unknown option '%s'\n", Arg);
      std::exit(1);
    }
    // A known option the bench would silently ignore is an error too.
    std::string_view Name = Arg;
    Name = Name.substr(0, Name.find('='));
    if (std::find(Takes.begin(), Takes.end(), Name) == Takes.end()) {
      std::fprintf(stderr, "bigfoot: error: %.*s does not take option '%s'\n",
                   static_cast<int>(Bench.size()), Bench.data(), Arg);
      std::exit(1);
    }
  }
  return Args;
}
