//===- CoverageOracleTest.cpp - Section 2's definitions, checked literally ---===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// The theory of check placement (Section 2) defines precise checks
// per-thread: a check COVERS an access to the same location by the same
// thread if it precedes it with no intervening release or succeeds it
// with no intervening acquire; a check is LEGITIMATE for an access if it
// precedes it with no intervening acquire or succeeds it with no
// intervening release. Write checks cover reads and writes but are
// legitimate only for writes; read checks cover only reads but are
// legitimate for both (Section 5).
//
// This test collects each thread's projection of the typed event stream
// of instrumented runs (tests/common/ThreadEvents.h) and verifies both
// properties for every access and every check — the "additional dynamic
// analysis" the paper used to confirm its implementation was precise
// (Section 5).
//
//===----------------------------------------------------------------------===//

#include "common/ThreadEvents.h"

#include "bfj/Parser.h"
#include "instrument/Instrumenters.h"
#include "vm/Vm.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace bigfoot;

namespace {

void verifyPreciseChecks(const InstrumentedProgram &IP,
                         const std::string &Label, uint64_t Seed) {
  VmOptions Opts;
  Opts.Seed = Seed;
  ThreadEventCollector Events = collectThreadEvents(*IP.Prog, IP.Tool, Opts);
  EXPECT_GT(Events.count(ThreadEvent::Kind::Access), 0u) << Label;
  EXPECT_TRUE(checksArePrecise(Events)) << Label << "/" << IP.Tool.Name;
}

} // namespace

TEST(CoverageOracle, AllSuiteWorkloadsHavePreciseChecks) {
  for (const Workload &W : standardSuite(SuiteScale::Test)) {
    auto Prog = parseProgramOrDie(W.Source.c_str());
    InstrumentedProgram Bf = instrumentBigFoot(*Prog);
    verifyPreciseChecks(Bf, W.Name + "/bigfoot", 9);
    InstrumentedProgram Rc = instrumentRedCard(*Prog);
    verifyPreciseChecks(Rc, W.Name + "/redcard", 9);
  }
}

/// The oracle's verdict on a hand-instrumented program run under
/// FastTrack's detector (the checks are taken as written).
::testing::AssertionResult handPlacedVerdict(const char *Source) {
  auto Prog = parseProgramOrDie(Source);
  return checksArePrecise(collectThreadEvents(*Prog, fastTrackConfig()));
}

TEST(CoverageOracle, ReportsMissingAndIllegitimateChecks) {
  const char *LostCheck = R"(
class C { fields f, g; }
thread {
  o = new C;
  check(W o.f);
  o.f = 1;
  o.g = 2;
}
)";
  ::testing::AssertionResult Lost = handPlacedVerdict(LostCheck);
  ASSERT_FALSE(Lost);
  EXPECT_NE(std::string(Lost.message()).find("uncovered write of obj#"),
            std::string::npos)
      << Lost.message();
  EXPECT_NE(std::string(Lost.message()).find(".g by thread 0"),
            std::string::npos)
      << Lost.message();

  // A coalesced check naming g, which its window never accesses.
  ::testing::AssertionResult Unused = handPlacedVerdict(R"(
class C { fields f, g; }
thread {
  o = new C;
  check(W o.f/g);
  o.f = 1;
}
)");
  ASSERT_FALSE(Unused);
  EXPECT_NE(std::string(Unused.message()).find("illegitimate write check"),
            std::string::npos)
      << Unused.message();
  EXPECT_NE(std::string(Unused.message()).find(".g by thread 0"),
            std::string::npos)
      << Unused.message();

  // An array range one element past what its window accesses.
  ::testing::AssertionResult Range = handPlacedVerdict(R"(
thread {
  a = new_array(4);
  check(W a[0..4]);
  a[0] = 1;
  a[1] = 1;
  a[2] = 1;
}
)");
  ASSERT_FALSE(Range);
  EXPECT_NE(std::string(Range.message()).find("check of arr#"),
            std::string::npos)
      << Range.message();
  EXPECT_NE(std::string(Range.message()).find("[3] by thread 0"),
            std::string::npos)
      << Range.message();

  // A check and its access on the wrong sides of a fence: a release
  // ends coverage forward and legitimacy backward, an acquire ends
  // coverage backward and legitimacy forward.
  for (const char *Fenced : {
           "acq(o); check(W o.f); rel(o); o.f = 1;",
           "o.f = 1; acq(o); check(W o.f); rel(o);",
           "check(W o.f); acq(o); o.f = 1; rel(o);",
           "acq(o); o.f = 1; rel(o); check(W o.f);",
       }) {
    std::string Source = "class C { fields f; }\nthread { o = new C; " +
                         std::string(Fenced) + " }\n";
    EXPECT_FALSE(handPlacedVerdict(Source.c_str())) << Fenced;
  }

  // Without the ground-truth events the stream carries no accesses, so
  // the coverage half of the oracle misses the lost check; hence
  // collectThreadEvents turns them on and verifyPreciseChecks requires
  // accesses.
  auto Prog = parseProgramOrDie(LostCheck);
  Prog->internSymbols();
  ThreadEventCollector Blind(Prog->symbols());
  VmOptions Opts;
  Opts.RecordSink = &Blind;
  ASSERT_TRUE(runProgram(*Prog, fastTrackConfig(), Opts).Ok);
  EXPECT_EQ(Blind.count(ThreadEvent::Kind::Access), 0u);
  EXPECT_TRUE(checksArePrecise(Blind, /*Legitimacy=*/false));
}

TEST(CoverageOracle, FastTrackTriviallyPrecise) {
  // Per-access placement: every check is adjacent to its access.
  Workload W = workloadByName("sparse", SuiteScale::Test);
  auto Prog = parseProgramOrDie(W.Source.c_str());
  InstrumentedProgram Ft = instrumentFastTrack(*Prog);
  verifyPreciseChecks(Ft, "sparse/fasttrack", 3);
}

TEST(CoverageOracle, HoldsUnderAggressiveInterleaving) {
  Workload W = workloadByName("sor", SuiteScale::Test);
  auto Prog = parseProgramOrDie(W.Source.c_str());
  InstrumentedProgram Bf = instrumentBigFoot(*Prog);
  for (uint64_t Seed : {2u, 3u, 5u, 8u}) {
    VmOptions Opts;
    Opts.Seed = Seed;
    Opts.Quantum = 2;
    EXPECT_TRUE(checksArePrecise(collectThreadEvents(*Bf.Prog, Bf.Tool, Opts),
                                 /*Legitimacy=*/false))
        << "seed " << Seed;
  }
}

TEST(CoverageOracle, AblatedConfigurationsStayPrecise) {
  // Turning optimizations off must never break precision, only slow
  // things down.
  Workload W = workloadByName("lufact", SuiteScale::Test);
  auto Prog = parseProgramOrDie(W.Source.c_str());
  for (bool Anticipation : {false, true}) {
    for (bool Hoist : {false, true}) {
      PlacementOptions P;
      P.UseAnticipation = Anticipation;
      P.HoistLoopChecks = Hoist;
      P.CoalesceChecks = Anticipation; // Vary this too.
      InstrumentedProgram Bf = instrumentBigFoot(*Prog, P);
      verifyPreciseChecks(Bf,
                          "lufact/ant=" + std::to_string(Anticipation) +
                              "/hoist=" + std::to_string(Hoist),
                          4);
    }
  }
}

TEST(CoverageOracle, PeriodicCommitKeepsDetectionIntact) {
  // The Section 3.3 extension: committing footprints mid-span must not
  // change the verdict.
  for (const Workload &W : racyVariants()) {
    auto Prog = parseProgramOrDie(W.Source.c_str());
    InstrumentedProgram Bf = instrumentBigFoot(*Prog);
    VmOptions Opts;
    Opts.Seed = 3;
    Opts.Quantum = 4;
    Opts.CommitIntervalSteps = 7;
    Opts.EnableGroundTruth = true;
    VmResult Run = runProgram(*Bf.Prog, Bf.Tool, Opts);
    ASSERT_TRUE(Run.Ok) << W.Name << ": " << Run.Error;
    EXPECT_FALSE(Run.GroundTruthRaces.empty()) << W.Name;
    EXPECT_FALSE(Run.ToolRaces.empty())
        << W.Name << " with periodic commits";
  }
  // And on a race-free program it stays quiet.
  Workload Clean = workloadByName("moldyn", SuiteScale::Test);
  auto Prog = parseProgramOrDie(Clean.Source.c_str());
  InstrumentedProgram Bf = instrumentBigFoot(*Prog);
  VmOptions Opts;
  Opts.CommitIntervalSteps = 5;
  VmResult Run = runProgram(*Bf.Prog, Bf.Tool, Opts);
  ASSERT_TRUE(Run.Ok) << Run.Error;
  EXPECT_TRUE(Run.ToolRaces.empty());
}

TEST(CoverageOracle, SpinLoopWithPeriodicCommitTerminatesChecks) {
  // A potentially unbounded loop with deferred checks: periodic commits
  // flush them even though the loop's deferred check point is far away.
  auto Prog = parseProgramOrDie(R"(
class W {
  fields dummy;
  method run(a, n, reps) {
    r = 0;
    while (r < reps) {
      i = 0;
      while (i < n) {
        a[i] = i + r;
        i = i + 1;
      }
      r = r + 1;
    }
  }
}
thread {
  n = 32;
  a = new_array(n);
  w = new W;
  fork t = w.run(a, n, 50);
  join t;
}
)");
  InstrumentedProgram Bf = instrumentBigFoot(*Prog);
  VmOptions Opts;
  Opts.CommitIntervalSteps = 11;
  VmResult Run = runProgram(*Bf.Prog, Bf.Tool, Opts);
  ASSERT_TRUE(Run.Ok) << Run.Error;
  EXPECT_GT(Run.Counters.get("tool.commits") +
                Run.Counters.get("tool.earlyCommits"),
            0u);
  EXPECT_TRUE(Run.ToolRaces.empty());
}
