//===- bench_pipeline.cpp - End-to-end race-detection benchmark -----------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Drives the public pipeline from outside the library: parseProgram,
// instrumentBigFoot / instrumentFastTrack, compileProgram,
// runProgramBase / runProgram, TraceWriter, TraceReader::nextBatch and
// replayTrace. One invocation runs one workload for one seed:
//
//   1. set-up: parse and instrument every program, repeated (and again
//      between the timed rounds); setup_s is the median repetition;
//   2. an untimed verification pass per op (one program under one
//      scheduler seed): a ground-truth oracle run, the reference runs
//      with and without the detector, and a recorded BFT1 trace whose
//      replay must reproduce the online run byte for byte; on the default
//      seed the workload's work counts must equal the committed ones;
//   3. timed rounds until the time budget is spent, each running every
//      op uninstrumented, then with its detector, then replaying every
//      trace on one thread; every result is compared to its reference.
//      A time metric sums each op's fastest round (see OpMinima) of
//      thread CPU time, scaled to the reference host speed by a
//      calibration kernel timed between rounds (see HostSpeed.h).
//
// With --trace 1 every other round runs with spans around each layer call
// (plus a compile leg and a decode-only leg), and the run ends with the
// parallel-replay and sharded-replay legs; the spans become the per-layer
// ledger. All end-to-end metrics are single-threaded: on a shared host,
// multi-thread timings are too noisy to gate, so they appear only in the
// traced run.
//
//===----------------------------------------------------------------------===//

#include "BenchMeta.h"
#include "Checks.h"
#include "HostSpeed.h"
#include "Tracer.h"

#include "bfj/Parser.h"
#include "events/Replay.h"
#include "events/TraceCodec.h"
#include "instrument/Instrumenters.h"
#include "support/Rng.h"
#include "support/Timer.h"
#include "vm/Compiler.h"
#include "vm/Vm.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace bigfoot;
using namespace perfbench;

namespace {

/// The seed whose work counts are committed in expected_counts.txt.
constexpr uint64_t kDefaultSeed = 1;
/// Scheduler seeds per program; each (program x seed) pair is one op.
constexpr unsigned kSeedsPerProgram = 2;
/// Set-up repeats at least kMinSetupReps times and until the budget is
/// spent (cheap set-ups need many repetitions for a steady median).
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 5000;
constexpr double kSetupBudgetSeconds = 1.0;
/// Timed rounds per run at least (traced runs: this many of each kind).
constexpr int kMinRounds = 3;
/// Repetitions of each multi-thread leg of the traced run.
constexpr int kLegReps = 3;
/// Share of the run spent timing the calibration kernel.
constexpr double kCalibrationShare = 0.05;

enum class Placement { BigFoot, FastTrack };

struct Subject {
  std::string Name;
  std::string Source;
  bool Racy = false;
};

struct WorkloadSpec {
  std::string Name;
  Placement Place = Placement::BigFoot;
  std::vector<Subject> Subjects;
};

const char *const kWorkloadNames[] = {"bigfoot", "fasttrack", "sync_heavy"};

struct Options {
  std::string Workload;
  uint64_t Seed = kDefaultSeed;
  double Seconds = 10;
  bool Trace = false;
  SuiteScale Scale = SuiteScale::Bench;
  std::string Root = ".";
  std::string SpansOut;
  bool PrintCounts = false;
  bool SelfTest = false;
  /// Committed work counts to gate on (set for the default seed).
  std::optional<WorkCounts> Expected;
};

/// The committed work counts of the default seed.
std::string countsFile(const Options &O) {
  return O.Root + "/perfbench/expected_counts.txt";
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream S;
  S << In.rdbuf();
  Out = S.str();
  return true;
}

/// The three workloads. Why each: `bigfoot` is the paper's headline
/// configuration (StaticBF dominates set-up, the VM dominates the run);
/// `fasttrack` puts a check before every heap access of the
/// access-dense kernels, so the event path, filter and shadow state
/// dominate detection and StaticBF never runs; `sync_heavy` is
/// lock-dominated and racy, so acquire/release, clock joins and filter
/// invalidation dominate and races are reported.
bool makeWorkload(const std::string &Name, SuiteScale Scale,
                  const std::string &Root, WorkloadSpec &W,
                  std::string &Err) {
  W = WorkloadSpec();
  W.Name = Name;
  auto AddSuite = [&](std::initializer_list<const char *> Names) {
    for (const char *N : Names) {
      Workload P = workloadByName(N, Scale);
      W.Subjects.push_back({P.Name, std::move(P.Source), false});
    }
  };
  if (Name == "bigfoot") {
    for (Workload &P : standardSuite(Scale))
      W.Subjects.push_back({P.Name, std::move(P.Source), false});
    return true;
  }
  if (Name == "fasttrack") {
    W.Place = Placement::FastTrack;
    AddSuite({"crypt", "lufact", "moldyn", "sparse", "sor", "raytracer",
              "sunflow", "fop"});
    return true;
  }
  if (Name == "sync_heavy") {
    AddSuite({"tomcat", "xalan", "h2", "avrora"});
    for (auto [File, Racy] : {std::pair{"lock_churn.bfj", true},
                              std::pair{"producer_consumer.bfj", false}}) {
      Subject S{File, "", Racy};
      if (!readFile(Root + "/examples/bfj/" + File, S.Source)) {
        Err = "cannot read " + Root + "/examples/bfj/" + File;
        return false;
      }
      W.Subjects.push_back(std::move(S));
    }
    for (Workload &P : racyVariants())
      W.Subjects.push_back({P.Name, std::move(P.Source), true});
    return true;
  }
  Err = "unknown workload '" + Name + "'";
  return false;
}

/// One program of the workload, parsed and instrumented.
struct Prepared {
  std::unique_ptr<Program> Base; ///< Uninstrumented, for runProgramBase.
  InstrumentedProgram Inst;
};

/// Parses and instruments every program of \p W into \p Out (empty on
/// entry): the set-up a user pays before the first run.
bool setUp(const WorkloadSpec &W, Tracer &T, std::vector<Prepared> &Out,
           std::string &Err) {
  auto Setup = T.span("setup");
  for (size_t I = 0; I < W.Subjects.size(); ++I) {
    const Subject &S = W.Subjects[I];
    int Id = static_cast<int>(I);
    ParseResult PR;
    {
      auto Span = T.span("bfj.parse", Id);
      PR = parseProgram(S.Source);
    }
    if (!PR.ok()) {
      Err = S.Name + ": " + PR.Error;
      return false;
    }
    Prepared P;
    if (W.Place == Placement::BigFoot) {
      auto Span = T.span("analysis.place", Id);
      P.Inst = instrumentBigFoot(*PR.Prog);
    } else {
      auto Span = T.span("instrument", Id);
      P.Inst = instrumentFastTrack(*PR.Prog);
    }
    P.Base = std::move(PR.Prog);
    Out.push_back(std::move(P));
  }
  return true;
}

struct Op {
  size_t Subject = 0;
  uint64_t Seed = 0;
};

std::vector<Op> makeOps(const WorkloadSpec &W, uint64_t Seed) {
  Rng R(Seed);
  std::vector<Op> Ops;
  for (size_t S = 0; S < W.Subjects.size(); ++S)
    for (unsigned K = 0; K < kSeedsPerProgram; ++K)
      Ops.push_back({S, 1 + R.nextBelow(1u << 30)});
  return Ops;
}

/// What the verification pass establishes for one op; every timed run
/// must reproduce it.
struct OpRef {
  Outcome Base; ///< runProgramBase on the uninstrumented program.
  Outcome Run;  ///< runProgram with the placement's detector.
  CheckFilterStats Filter;
  uint64_t FilterTableBytes = 0;
  std::vector<uint8_t> Trace; ///< BFT1, recorded without a detector.
  uint64_t Events = 0;
};

/// Counts op attempts and failures; prints the first few failures.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  void record(const std::string &Mismatch, const char *What,
              const std::string &Subject, uint64_t Seed) {
    ++Attempted;
    if (Mismatch.empty())
      return;
    if (++Failed <= 20)
      std::fprintf(stderr, "FAIL %s %s seed %llu: %s\n", What,
                   Subject.c_str(), static_cast<unsigned long long>(Seed),
                   Mismatch.c_str());
  }
};

TraceSummary summaryOf(const VmResult &Run) {
  TraceSummary S;
  S.Ok = Run.Ok;
  S.Error = Run.Error;
  S.Output = Run.Output;
  S.StatementsExecuted = Run.StatementsExecuted;
  for (const auto &[Name, Value] : Run.Counters.all())
    if (Name.rfind("tool.", 0) != 0)
      S.Counters[Name] = Value;
  return S;
}

ReplayResult replayBytes(const std::vector<uint8_t> &Trace,
                         const DetectorConfig &Tool,
                         const ReplayOptions &Opts = ReplayOptions()) {
  TraceReader Reader;
  if (!Reader.open(Trace.data(), Trace.size())) {
    ReplayResult R;
    R.Error = "trace header: " + Reader.error();
    return R;
  }
  return replayTrace(Reader, Tool, Opts);
}

void verifyOp(const Subject &S, const Prepared &P, const Op &O, OpRef &Ref,
              Tally &Tl) {
  VmOptions Opts;
  Opts.Seed = O.Seed;
  VmOptions OracleOpts = Opts;
  OracleOpts.EnableGroundTruth = true;
  Tl.record(oracleMismatch(S.Racy,
                           runProgram(*P.Inst.Prog, P.Inst.Tool, OracleOpts),
                           P.Inst.Tool),
            "oracle", S.Name, O.Seed);

  VmResult Run = runProgram(*P.Inst.Prog, P.Inst.Tool, Opts);
  Tl.record(Run.Ok ? "" : Run.Error, "run", S.Name, O.Seed);
  Ref.Run = outcomeOf(Run);
  Ref.Filter = Run.Filter;
  Ref.FilterTableBytes = Run.FilterTableBytes;

  VmResult Base = runProgramBase(*P.Base, Opts);
  Tl.record(Base.Ok ? "" : Base.Error, "base", S.Name, O.Seed);
  Ref.Base = outcomeOf(Base);

  TraceWriter Writer(P.Inst.Prog->symbols(), P.Inst.Tool);
  VmOptions RecordOpts = Opts;
  RecordOpts.RecordSink = &Writer;
  Writer.finish(summaryOf(runProgramBase(*P.Inst.Prog, RecordOpts)));
  Ref.Trace = Writer.buffer();
  ReplayResult Replay = replayBytes(Ref.Trace, P.Inst.Tool);
  Ref.Events = Replay.EventsReplayed;
  Tl.record(outcomeMismatch(Ref.Run, outcomeOf(Replay)), "replay", S.Name,
            O.Seed);
}

uint64_t counter(const Outcome &O, const char *Name) {
  auto It = O.Counters.find(Name);
  return It == O.Counters.end() ? 0 : It->second;
}

WorkCounts workCounts(const std::vector<OpRef> &Refs) {
  WorkCounts C;
  uint64_t PeakShadow = 0;
  for (const OpRef &R : Refs) {
    C["statements"] += R.Run.Statements;
    C["base_statements"] += R.Base.Statements;
    C["accesses"] += counter(R.Run, "vm.accesses");
    C["check_events"] += counter(R.Run, "tool.checkEvents.field") +
                         counter(R.Run, "tool.checkEvents.array");
    C["sync_events"] += counter(R.Run, "vm.syncOps");
    C["shadow_ops"] += counter(R.Run, "tool.shadowOps");
    C["races"] += counter(R.Run, "tool.races");
    C["events"] += R.Events;
    C["trace_bytes"] += R.Trace.size();
    PeakShadow = std::max(PeakShadow, counter(R.Run, "tool.peakShadowBytes") +
                                          R.FilterTableBytes);
  }
  C["peak_shadow_bytes"] = PeakShadow;
  return C;
}

/// Per-op minimum over rounds. Other tenants of a shared host only ever
/// slow an op down, so each op's fastest round is its least-contended
/// time: bursts shorter than a run drop out of the sum, where they drift
/// the median round by a quarter. Contention lasting longer than a run
/// still shows (README.md).
class OpMinima {
public:
  explicit OpMinima(size_t Ops)
      : Min(Ops, std::numeric_limits<double>::infinity()) {}
  void add(size_t Op, double Seconds) {
    Min[Op] = std::min(Min[Op], Seconds);
  }
  double sum() const {
    double S = 0;
    for (double M : Min)
      S += M;
    return S;
  }

private:
  std::vector<double> Min;
};

struct Timings {
  explicit Timings(size_t Ops) : Base(Ops), Run(Ops), Replay(Ops) {}
  OpMinima Base, Run, Replay;
  double total() const { return Base.sum() + Run.sum() + Replay.sum(); }
};

/// One timed round: every op uninstrumented and with its detector
/// (interleaved, so host drift hits both alike), then every trace
/// replayed on this thread.
void timedRound(const WorkloadSpec &W, const std::vector<Prepared> &Ps,
                const std::vector<Op> &Ops, const std::vector<OpRef> &Refs,
                Tracer &T, Tally &Tl, Timings &Out) {
  for (size_t I = 0; I < Ops.size(); ++I) {
    const Prepared &P = Ps[Ops[I].Subject];
    const std::string &Name = W.Subjects[Ops[I].Subject].Name;
    VmOptions Opts;
    Opts.Seed = Ops[I].Seed;
    int Id = static_cast<int>(I);

    VmResult Base, Run;
    CpuTimer Tm;
    {
      auto Span = T.span("vm.base", Id);
      Base = runProgramBase(*P.Base, Opts);
    }
    Out.Base.add(I, Tm.seconds());
    Tm.reset();
    {
      auto Span = T.span("vm.run", Id);
      Run = runProgram(*P.Inst.Prog, P.Inst.Tool, Opts);
    }
    Out.Run.add(I, Tm.seconds());
    Tl.record(outcomeMismatch(Refs[I].Base, outcomeOf(Base)), "base", Name,
              Opts.Seed);
    Tl.record(outcomeMismatch(Refs[I].Run, outcomeOf(Run)), "run", Name,
              Opts.Seed);
  }
  for (size_t I = 0; I < Ops.size(); ++I) {
    const Prepared &P = Ps[Ops[I].Subject];
    ReplayResult R;
    CpuTimer Tm;
    {
      auto Span = T.span("runtime.replay", static_cast<int>(I));
      R = replayBytes(Refs[I].Trace, P.Inst.Tool);
    }
    Out.Replay.add(I, Tm.seconds());
    Tl.record(outcomeMismatch(Refs[I].Run, outcomeOf(R)), "replay",
              W.Subjects[Ops[I].Subject].Name, Ops[I].Seed);
  }
}

/// Traced rounds only: one compileProgram per instrumented program.
void compileLeg(const std::vector<Prepared> &Ps, Tracer &T) {
  for (size_t I = 0; I < Ps.size(); ++I) {
    const Prepared &P = Ps[I];
    auto Span = T.span("vm.compile", static_cast<int>(I));
    CompiledProgram C = compileProgram(*P.Inst.Prog);
    if (C.ThreadChunks.size() != P.Inst.Prog->Threads.size())
      std::abort(); // Keeps the call observable; cannot fail.
  }
}

/// Traced rounds only: TraceReader::nextBatch alone over every trace.
void decodeLeg(const WorkloadSpec &W, const std::vector<Op> &Ops,
               const std::vector<OpRef> &Refs, Tracer &T, Tally &Tl) {
  std::vector<Event> Batch(kDefaultEventBatch);
  std::vector<uint32_t> Payload;
  for (size_t I = 0; I < Refs.size(); ++I) {
    TraceReader Reader;
    {
      auto Span = T.span("events.decode", static_cast<int>(I));
      if (Reader.open(Refs[I].Trace.data(), Refs[I].Trace.size()))
        while (Reader.nextBatch(Batch.data(), Batch.size(), Payload) > 0)
          ;
    }
    std::string Bad;
    if (!Reader.ok() || !Reader.summaryReady())
      Bad = "decode: " + Reader.error();
    else if (Reader.eventsDecoded() != Refs[I].Events)
      Bad = "decoded " + std::to_string(Reader.eventsDecoded()) + " events";
    Tl.record(Bad, "decode", W.Subjects[Ops[I].Subject].Name, Ops[I].Seed);
  }
}

/// replayTracesParallel over every trace at \p Threads threads.
double parallelReplay(const WorkloadSpec &W, const std::vector<Op> &Ops,
                      const std::vector<OpRef> &Refs, unsigned Threads,
                      Tally &Tl) {
  std::vector<ReplayJob> Jobs(Refs.size());
  for (size_t I = 0; I < Refs.size(); ++I)
    Jobs[I].Trace = &Refs[I].Trace;
  Timer Tm;
  std::vector<ReplayResult> Results = replayTracesParallel(Jobs, Threads);
  double Seconds = Tm.seconds();
  for (size_t I = 0; I < Refs.size(); ++I)
    Tl.record(outcomeMismatch(Refs[I].Run, outcomeOf(Results[I])),
              "parallel replay", W.Subjects[Ops[I].Subject].Name,
              Ops[I].Seed);
  return Seconds;
}

struct ShardLeg {
  double Seconds = 0;
  std::vector<uint64_t> LaneEvents;
  uint64_t Stalls = 0;
  uint64_t SyncTableBytes = 0;
};

/// Every trace replayed through a ShardedSink of \p Lanes lanes.
ShardLeg shardedReplay(const WorkloadSpec &W, const std::vector<Prepared> &Ps,
                       const std::vector<Op> &Ops,
                       const std::vector<OpRef> &Refs, size_t Lanes,
                       Tally &Tl) {
  ShardLeg L;
  L.LaneEvents.assign(Lanes, 0);
  ReplayOptions Opts;
  Opts.DetectShards = Lanes;
  for (size_t I = 0; I < Refs.size(); ++I) {
    const Prepared &P = Ps[Ops[I].Subject];
    Timer Tm;
    ReplayResult R = replayBytes(Refs[I].Trace, P.Inst.Tool, Opts);
    L.Seconds += Tm.seconds();
    Tl.record(outcomeMismatch(Refs[I].Run, outcomeOf(R)), "sharded replay",
              W.Subjects[Ops[I].Subject].Name, Ops[I].Seed);
    for (size_t K = 0; K < R.ShardLanes.size() && K < Lanes; ++K) {
      L.LaneEvents[K] += R.ShardLanes[K].Events;
      L.Stalls += R.ShardLanes[K].Stalls;
    }
    L.SyncTableBytes = std::max(L.SyncTableBytes, R.ShardSyncTableBytes);
  }
  return L;
}

unsigned hostThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// N spinning threads against one: N x t(1) / t(N), each side the
/// fastest of three tries. Near N on idle cores; lower when the host's
/// cores are shared or oversubscribed.
double effectiveParallelism(unsigned N) {
  auto Spin = [](unsigned Threads) {
    std::atomic<uint64_t> Sink{0};
    Timer Tm;
    {
      std::vector<std::jthread> Pool;
      for (unsigned I = 0; I < Threads; ++I)
        Pool.emplace_back([&Sink, I] {
          uint64_t X = I + 1;
          for (int K = 0; K < 20 * 1000 * 1000; ++K)
            X = X * 6364136223846793005ULL + 1442695040888963407ULL;
          Sink += X;
        });
    }
    return Tm.seconds();
  };
  double One = Spin(1), All = Spin(N);
  for (int Try = 1; Try < 3; ++Try) {
    One = std::min(One, Spin(1));
    All = std::min(All, Spin(N));
  }
  return N * One / All;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t M = V.size() / 2;
  return V.size() % 2 ? V[M] : 0.5 * (V[M - 1] + V[M]);
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Ledger; ///< Human-readable ledger lines.
  WorkCounts Counts;
  std::string Meta; ///< JSON members: provenance stamp.
  bool correct() const { return Failed == 0 && Attempted > 0; }
};

std::string num(double V, int Digits = 4) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Digits, V);
  return Buf;
}

bool runWorkload(const Options &O, Report &Out, std::string &Err) {
  WorkloadSpec W;
  if (!makeWorkload(O.Workload, O.Scale, O.Root, W, Err))
    return false;
  unsigned Nproc = hostThreads();
  double EffPar = effectiveParallelism(Nproc);
  Out.Meta = benchMetaJson() + ",\"workload\":\"" + W.Name +
             "\",\"seed\":" + std::to_string(O.Seed) + ",\"scale\":\"" +
             (O.Scale == SuiteScale::Bench ? "bench" : "test") +
             "\",\"trace\":" + (O.Trace ? "true" : "false") +
             ",\"nproc\":" + std::to_string(Nproc) + ",\"build_type\":\"" +
             PERFBENCH_BUILD_TYPE + "\",\"effective_parallelism\":" +
             num(EffPar, 3);

  Tracer T(O.Trace);
  Tally Tl;
  HostSpeed Host;
  CpuTimer RunClock;

  // 1. Set-up, repeated.
  std::vector<Prepared> Ps;
  std::vector<double> SetupSecs;
  Timer SetupBudget;
  while (SetupSecs.size() < kMinSetupReps ||
         (SetupBudget.seconds() < kSetupBudgetSeconds &&
          SetupSecs.size() < kMaxSetupReps)) {
    Ps.clear();
    T.nextRound();
    CpuTimer Tm;
    if (!setUp(W, T, Ps, Err))
      return false;
    SetupSecs.push_back(Tm.seconds());
    Host.keepShare(kCalibrationShare, RunClock.seconds());
  }

  // 2. Verification pass, untimed and untraced.
  std::vector<Op> Ops = makeOps(W, O.Seed);
  std::vector<OpRef> Refs(Ops.size());
  for (size_t I = 0; I < Ops.size(); ++I)
    verifyOp(W.Subjects[Ops[I].Subject], Ps[Ops[I].Subject], Ops[I], Refs[I],
             Tl);
  Out.Counts = workCounts(Refs);
  if (O.Expected)
    Tl.record(countsMismatch(*O.Expected, Out.Counts), "work-count gate",
              W.Name, O.Seed);
  if (O.PrintCounts) {
    Out.Attempted = Tl.Attempted;
    Out.Failed = Tl.Failed;
    return true;
  }

  // 3. Timed rounds; in a traced run every other round is traced. An
  // untraced run also repeats set-up between rounds, up to a tenth of the
  // run, so setup_s samples the host over the whole run, not its first
  // second.
  Timings Untraced(Ops.size()), Traced(Ops.size());
  int MinRounds = O.Trace ? 2 * kMinRounds : kMinRounds;
  double SetupBetweenRounds = 0;
  Timer Budget;
  for (int Round = 0; Round < MinRounds || Budget.seconds() < O.Seconds;
       ++Round) {
    bool Tracing = O.Trace && Round % 2 == 1;
    T.setEnabled(Tracing);
    T.nextRound();
    timedRound(W, Ps, Ops, Refs, T, Tl, Tracing ? Traced : Untraced);
    if (Tracing) {
      compileLeg(Ps, T);
      decodeLeg(W, Ops, Refs, T, Tl);
    }
    while (!O.Trace && SetupBetweenRounds < 0.1 * Budget.seconds()) {
      std::vector<Prepared> Again;
      CpuTimer Tm;
      if (!setUp(W, T, Again, Err))
        return false;
      SetupSecs.push_back(Tm.seconds());
      SetupBetweenRounds += SetupSecs.back();
    }
    Host.keepShare(kCalibrationShare, RunClock.seconds());
  }
  T.setEnabled(false);

  const WorkCounts &C = Out.Counts;
  auto Count = [&C](const char *Name) {
    auto It = C.find(Name);
    return It == C.end() ? 0.0 : static_cast<double>(It->second);
  };
  double Events = Count("events");
  auto Scaled = [&Host](double Seconds) { return Host.scale(Seconds); };

  if (!O.Trace) {
    rusage Usage;
    getrusage(RUSAGE_SELF, &Usage);
    Out.Metrics = {
        {"setup_s", Scaled(median(SetupSecs)), "s"},
        {"run_s", Scaled(Untraced.Run.sum()), "s"},
        {"base_s", Scaled(Untraced.Base.sum()), "s"},
        {"replay_events_per_s", ratio(Events, Scaled(Untraced.Replay.sum())),
         "events/s"},
        {"peak_shadow_bytes", Count("peak_shadow_bytes"), "bytes"},
        {"peak_rss_bytes", 1024.0 * static_cast<double>(Usage.ru_maxrss),
         "bytes"},
    };
    Out.Ledger = {
        "unscaled setup_s " + num(median(SetupSecs), 6) + " s, run_s " +
            num(Untraced.Run.sum(), 6) + " s, base_s " +
            num(Untraced.Base.sum(), 6) + " s, replay " +
            num(Untraced.Replay.sum(), 6) + " s; calibration pass " +
            num(1e3 * Host.fastest(), 6) + " ms (reference " +
            num(1e3 * HostSpeed::kReferenceSeconds, 6) + " ms)",
    };
    Out.Attempted = Tl.Attempted;
    Out.Failed = Tl.Failed;
    return true;
  }

  // 4. Traced run only: the multi-thread legs, alternating sides; the
  // fastest repetition of each counts, as for the rounds.
  unsigned ParThreads =
      static_cast<unsigned>(std::min<size_t>(Nproc, Refs.size()));
  size_t Lanes = std::max<size_t>(1, autoShardCount());
  double Serial = 0, Parallel = 0, Sharded = 0;
  ShardLeg Shard;
  for (int Rep = 0; Rep < kLegReps; ++Rep) {
    double S = parallelReplay(W, Ops, Refs, 1, Tl);
    double P = parallelReplay(W, Ops, Refs, ParThreads, Tl);
    Shard = shardedReplay(W, Ps, Ops, Refs, Lanes, Tl);
    Serial = Rep ? std::min(Serial, S) : S;
    Parallel = Rep ? std::min(Parallel, P) : P;
    Sharded = Rep ? std::min(Sharded, Shard.Seconds) : Shard.Seconds;
  }

  // 5. The ledger, from the spans: set-up as the median repetition, the
  // run layers as sums of per-op minima like the end-to-end metrics, all
  // scaled to the reference host speed like them.
  auto ByRound = T.selfSecondsByRound();
  auto SetupMedian = [&ByRound](std::initializer_list<const char *> Names) {
    std::vector<double> PerRep;
    for (const auto &[Round, Sums] : ByRound) {
      if (!Sums.count("setup"))
        continue;
      double Sum = 0;
      for (const char *Name : Names)
        Sum += Sums.count(Name) ? Sums.at(Name) : 0;
      PerRep.push_back(Sum);
    }
    return median(PerRep);
  };
  double ParseS = Scaled(SetupMedian({"bfj.parse"}));
  double PlaceS = Scaled(SetupMedian({"analysis.place"}));
  double InstrS = Scaled(SetupMedian({"instrument"}));
  double SetupResidual = Scaled(SetupMedian({"setup"}));
  double TracedSetup = Scaled(
      SetupMedian({"setup", "bfj.parse", "analysis.place", "instrument"}));
  double RunT = Scaled(T.sumOfOpMinima("vm.run"));
  double BaseT = Scaled(T.sumOfOpMinima("vm.base"));
  double DecodeS = Scaled(T.sumOfOpMinima("events.decode"));
  double DetectS = Scaled(T.sumOfOpMinima("runtime.replay")) - DecodeS;
  double Residual = RunT - BaseT - DetectS;
  double CompileS = Scaled(T.sumOfOpMinima("vm.compile"));

  uint64_t Hits = 0, Misses = 0, Invalidations = 0, TableBytes = 0;
  uint64_t PeakLocations = 0;
  for (const OpRef &R : Refs) {
    Hits += R.Filter.hits();
    Misses += R.Filter.misses();
    Invalidations += R.Filter.Invalidations;
    TableBytes = std::max(TableBytes, R.FilterTableBytes);
    PeakLocations =
        std::max(PeakLocations, counter(R.Run, "tool.peakShadowLocations"));
  }
  unsigned Checks = 0, Paths = 0, Renames = 0;
  for (const Prepared &P : Ps) {
    Checks += P.Inst.Placement.ChecksInserted;
    Paths += P.Inst.Placement.PathsInserted;
    Renames += P.Inst.Placement.RenamesInserted;
  }
  double LaneMean = 0, LaneMax = 0;
  for (uint64_t E : Shard.LaneEvents) {
    LaneMean += static_cast<double>(E) / static_cast<double>(Lanes);
    LaneMax = std::max(LaneMax, static_cast<double>(E));
  }

  double CheckEvents = Count("check_events");
  Out.Metrics = {
      {"bfj.parse_s", ParseS, "s"},
      {"analysis.place_s", PlaceS, "s"},
      {"analysis.checks_inserted", static_cast<double>(Checks), "count"},
      {"analysis.paths_inserted", static_cast<double>(Paths), "count"},
      {"analysis.renames_inserted", static_cast<double>(Renames), "count"},
      {"instrument.s", InstrS, "s"},
      {"ledger.setup_residual_s", SetupResidual, "s"},
      {"vm.compile_s", CompileS, "s"},
      {"vm.statements", Count("base_statements"), "count"},
      {"vm.accesses", Count("accesses"), "count"},
      {"vm.ns_per_stmt", 1e9 * ratio(BaseT, Count("base_statements")), "ns"},
      {"events.count", Events, "count"},
      {"events.trace_bytes", Count("trace_bytes"), "bytes"},
      {"events.bytes_per_event", ratio(Count("trace_bytes"), Events), "bytes"},
      {"events.decode_ns_per_event", 1e9 * ratio(DecodeS, Events), "ns"},
      {"runtime.detect_s", DetectS, "s"},
      {"runtime.ns_per_check", 1e9 * ratio(DetectS, CheckEvents), "ns"},
      {"runtime.check_events", CheckEvents, "count"},
      {"runtime.sync_events", Count("sync_events"), "count"},
      {"runtime.shadow_ops", Count("shadow_ops"), "count"},
      {"runtime.races", Count("races"), "count"},
      {"runtime.peak_shadow_locations", static_cast<double>(PeakLocations),
       "count"},
      {"runtime.filter_hits", static_cast<double>(Hits), "count"},
      {"runtime.filter_misses", static_cast<double>(Misses), "count"},
      {"runtime.filter_hit_ratio",
       ratio(static_cast<double>(Hits), static_cast<double>(Hits + Misses)),
       "ratio"},
      {"runtime.filter_invalidations", static_cast<double>(Invalidations),
       "count"},
      {"runtime.filter_table_bytes", static_cast<double>(TableBytes),
       "bytes"},
      {"ledger.residual_s", Residual, "s"},
      {"ledger.residual_share", ratio(Residual, RunT), "ratio"},
      {"harness.overhead_x", ratio(RunT, BaseT) - 1, "ratio"},
      {"harness.replay_parallel_speedup", ratio(Serial, Parallel), "ratio"},
      {"trace.overhead_share", ratio(Traced.total(), Untraced.total()) - 1,
       "ratio"},
      {"events.shard_lane_skew", ratio(LaneMax, LaneMean), "ratio"},
      {"events.shard_stalls", static_cast<double>(Shard.Stalls), "count"},
      {"events.shard_sync_table_bytes",
       static_cast<double>(Shard.SyncTableBytes), "bytes"},
      {"events.shard_speedup", ratio(Serial, Sharded), "ratio"},
      {"host.nproc", static_cast<double>(Nproc), "count"},
      {"host.effective_parallelism", EffPar, "ratio"},
      {"host.calibration_s", Host.fastest(), "s"},
  };
  Out.Ledger = {
      "setup_s " + num(TracedSetup) + " s = bfj.parse_s " + num(ParseS) +
          " + analysis.place_s " + num(PlaceS) + " + instrument.s " +
          num(InstrS) + " + residual " + num(SetupResidual) + " (" +
          num(100 * ratio(SetupResidual, TracedSetup), 1) + "%)",
      "run_s " + num(RunT) + " s = base_s " + num(BaseT) +
          " + runtime.detect_s " + num(DetectS) + " + residual " +
          num(Residual) + " (" + num(100 * ratio(Residual, RunT), 1) + "%)",
      "replay " + num(DetectS + DecodeS) + " s = events.decode " +
          num(DecodeS) + " + runtime.detect_s " + num(DetectS) +
          " (single thread; sharded x" + std::to_string(Lanes) + " " +
          num(Scaled(Sharded)) + " s, parallel x" +
          std::to_string(ParThreads) + " " + num(Scaled(Parallel)) + " s)",
  };
  Out.Attempted = Tl.Attempted;
  Out.Failed = Tl.Failed;
  if (!O.SpansOut.empty() && !T.writeJson(O.SpansOut, Out.Meta))
    std::fprintf(stderr, "warning: cannot write %s\n", O.SpansOut.c_str());
  return true;
}

std::string resultJson(const Report &R) {
  std::string Out = std::string("{\"correct\": ") +
                    (R.correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(R.Attempted) +
                    ", \"failed\": " + std::to_string(R.Failed) +
                    ", \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}", I ? ", " : "",
                  R.Metrics[I].Name.c_str(), R.Metrics[I].Value,
                  R.Metrics[I].Unit);
    Out += Buf;
  }
  return Out + "}}";
}

void printReport(const Report &R) {
  std::printf("meta {%s}\n", R.Meta.c_str());
  for (const Metric &M : R.Metrics)
    std::printf("metric %s %.6g %s\n", M.Name.c_str(), M.Value, M.Unit);
  std::printf("metric fail_ratio %.6g ratio (%llu of %llu ops)\n",
              ratio(static_cast<double>(R.Failed),
                    static_cast<double>(R.Attempted)),
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  for (const std::string &L : R.Ledger)
    std::printf("ledger %s\n", L.c_str());
  std::printf("%s\n", resultJson(R).c_str());
}

//===----------------------------------------------------------------------===//
// Self-test: every workload runs at SuiteScale::Test, and every check
// rejects a wrong race set or a perturbed count.
//===----------------------------------------------------------------------===//

int selfTest(const Options &Base) {
  int Bad = 0;
  auto Expect = [&Bad](bool Cond, const std::string &What) {
    std::printf("%s %s\n", Cond ? "ok  " : "FAIL", What.c_str());
    Bad += !Cond;
  };

  for (const char *Name : kWorkloadNames)
    for (bool Traced : {false, true}) {
      Options O = Base;
      O.Workload = Name;
      O.Scale = SuiteScale::Test;
      O.Seconds = 0.05;
      O.Trace = Traced;
      Report R;
      std::string Err;
      bool Ran = runWorkload(O, R, Err);
      std::string Label = std::string(Name) + (Traced ? " traced" : "");
      Expect(Ran && R.correct() && !R.Metrics.empty(), Label + " runs clean");
      for (const Metric &M : R.Metrics)
        if (!std::isfinite(M.Value))
          Expect(false, Label + " metric " + M.Name + " is finite");
      if (Traced)
        continue;

      // The committed-count gate: the run's own counts pass, a perturbed
      // copy fails the whole run.
      Expect(countsMismatch(R.Counts, R.Counts).empty(),
             Label + " counts match themselves");
      WorkCounts Off = R.Counts;
      ++Off["statements"];
      Expect(!countsMismatch(Off, R.Counts).empty(),
             Label + " perturbed statement count is caught");
      O.Expected = Off;
      O.PrintCounts = true;
      Report Gated;
      Expect(runWorkload(O, Gated, Err) && !Gated.correct() &&
                 Gated.Failed == 1,
             Label + " run fails against a perturbed committed count");
    }

  // The oracle: right race sets pass, wrong ones fail.
  for (const Workload &Racy : racyVariants()) {
    std::unique_ptr<Program> P = parseProgramOrDie(Racy.Source);
    InstrumentedProgram IP = instrumentBigFoot(*P);
    VmOptions Opts;
    Opts.EnableGroundTruth = true;
    VmResult R = runProgram(*IP.Prog, IP.Tool, Opts);
    Expect(oracleMismatch(true, R, IP.Tool).empty(),
           Racy.Name + " agrees with the oracle");
    Expect(!R.ToolRacyLocations.empty() &&
               !oracleMismatch(false, R, IP.Tool).empty(),
           Racy.Name + " reported races fail a race-free check");
    VmResult Wrong = R;
    Wrong.ToolRacyLocations.insert("obj#99999.bogus");
    Expect(!oracleMismatch(true, Wrong, IP.Tool).empty(),
           Racy.Name + " extra race location is caught");
    Wrong = R;
    Wrong.ToolRacyLocations.erase(Wrong.ToolRacyLocations.begin());
    Expect(!oracleMismatch(true, Wrong, IP.Tool).empty(),
           Racy.Name + " missed race location is caught");

    // Replay-equality: a perturbed counter or race list is caught.
    Outcome Want = outcomeOf(R);
    Outcome Got = Want;
    ++Got.Counters["tool.shadowOps"];
    Expect(!outcomeMismatch(Want, Got).empty(),
           Racy.Name + " perturbed replay counter is caught");
    Got = Want;
    if (!Got.Races.empty())
      Got.Races.pop_back();
    Expect(!outcomeMismatch(Want, Got).empty(),
           Racy.Name + " dropped replay race is caught");
  }
  {
    std::unique_ptr<Program> P =
        parseProgramOrDie(workloadByName("crypt", SuiteScale::Test).Source);
    InstrumentedProgram IP = instrumentFastTrack(*P);
    VmOptions Opts;
    Opts.EnableGroundTruth = true;
    VmResult R = runProgram(*IP.Prog, IP.Tool, Opts);
    Expect(oracleMismatch(false, R, IP.Tool).empty(),
           "crypt passes the race-free check");
    R.ToolRacyLocations.insert("obj#1.bogus");
    Expect(!oracleMismatch(false, R, IP.Tool).empty(),
           "crypt false race is caught");
  }

  // Host-speed scaling: a measured pass gives a finite positive factor,
  // and the scaled time tracks the raw one.
  {
    HostSpeed H;
    for (int I = 0; I < 3; ++I)
      H.pass();
    Expect(H.fastest() > 0 && std::isfinite(H.fastest()) &&
               H.scale(2.0) == 2 * H.scale(1.0) && H.scale(1.0) > 0,
           "calibration scales times");
  }

  // The committed counts parse and cover every workload.
  for (const char *Name : kWorkloadNames) {
    WorkCounts Committed;
    std::string Err;
    Expect(readWorkCounts(countsFile(Base), Name, Committed, Err),
           std::string("committed counts for ") + Name + " " + Err);
  }

  std::printf("%s: %d failure(s)\n", Bad ? "FAIL" : "PASS", Bad);
  return Bad ? 1 : 0;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: bench_pipeline --workload bigfoot|fasttrack|sync_heavy\n"
      "         [--seed N] [--seconds S] [--trace 0|1] [--root DIR]\n"
      "         [--spans-out FILE] [--print-counts]\n"
      "       bench_pipeline --selftest [--root DIR]\n");
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  if (!S || !*S)
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || *End || S[0] == '-')
    return false;
  Out = V;
  return true;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    const char *V = I + 1 < Argc ? Argv[I + 1] : nullptr;
    uint64_t N = 0;
    if (A == "--selftest") {
      O.SelfTest = true;
    } else if (A == "--print-counts") {
      O.PrintCounts = true;
    } else if (!V) {
      return false;
    } else if (A == "--workload") {
      O.Workload = V, ++I;
    } else if (A == "--seed") {
      if (!parseUnsigned(V, O.Seed))
        return false;
      ++I;
    } else if (A == "--seconds") {
      if (!parseUnsigned(V, N) || N < 1 || N > 600)
        return false;
      O.Seconds = static_cast<double>(N), ++I;
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return false;
      O.Trace = V[0] == '1', ++I;
    } else if (A == "--root") {
      O.Root = V, ++I;
    } else if (A == "--spans-out") {
      O.SpansOut = V, ++I;
    } else {
      return false;
    }
  }
  return O.SelfTest || std::find(std::begin(kWorkloadNames),
                                 std::end(kWorkloadNames),
                                 O.Workload) != std::end(kWorkloadNames);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    usage();
    return 2;
  }
  if (O.SelfTest)
    return selfTest(O);

  // The committed counts gate the default seed.
  if (O.Seed == kDefaultSeed && !O.PrintCounts) {
    WorkCounts Committed;
    std::string Err;
    if (!readWorkCounts(countsFile(O), O.Workload, Committed, Err)) {
      std::fprintf(stderr, "bench_pipeline: %s\n", Err.c_str());
      return 2;
    }
    O.Expected = std::move(Committed);
  }

  Report R;
  std::string Err;
  if (!runWorkload(O, R, Err)) {
    std::fprintf(stderr, "bench_pipeline: %s\n", Err.c_str());
    return 2;
  }
  if (O.PrintCounts) {
    std::printf("%s", formatWorkCounts(O.Workload, R.Counts).c_str());
    return R.correct() ? 0 : 1;
  }
  printReport(R);
  return 0;
}
