//===- HarnessTest.cpp - Experiment driver and support utility tests ---------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"

#include "bfj/Parser.h"
#include "instrument/Instrumenters.h"
#include "support/Stats.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace bigfoot;

TEST(Harness, RunsOneWorkloadEndToEnd) {
  Workload W = workloadByName("tomcat", SuiteScale::Test);
  ExperimentOptions Opts;
  Opts.Iterations = 1;
  ExperimentResult R = runExperiment(W, Opts);
  ASSERT_EQ(R.Tools.size(), 6u); // Five paper tools + djit.
  EXPECT_GT(R.Accesses, 0u);
  EXPECT_GT(R.MethodsProcessed, 0u);

  const ToolMetrics &Ft = R.tool("fasttrack");
  const ToolMetrics &Bf = R.tool("bigfoot");
  // FastTrack checks every access by definition.
  EXPECT_NEAR(Ft.CheckRatio, 1.0, 1e-9);
  // BigFoot moves and coalesces: strictly fewer events.
  EXPECT_LT(Bf.CheckRatio, Ft.CheckRatio);
  // Nothing races in the suite programs.
  for (const ToolMetrics &M : R.Tools)
    EXPECT_EQ(M.Races, 0u) << M.Tool;
  // Ratios decompose into the array/field split.
  EXPECT_NEAR(Ft.CheckRatio, Ft.FieldCheckRatio + Ft.ArrayCheckRatio, 1e-9);
}

TEST(Harness, CheckRatioOrderingAcrossTools) {
  // RedCard eliminates a subset of FastTrack's checks; BigFoot at most
  // RedCard's count. (SlimState shares FastTrack's placement.)
  Workload W = workloadByName("batik", SuiteScale::Test);
  ExperimentOptions Opts;
  Opts.Iterations = 1;
  ExperimentResult R = runExperiment(W, Opts);
  EXPECT_LE(R.tool("redcard").CheckRatio, R.tool("fasttrack").CheckRatio);
  EXPECT_NEAR(R.tool("slimstate").CheckRatio,
              R.tool("fasttrack").CheckRatio, 1e-9);
  EXPECT_LE(R.tool("bigfoot").CheckRatio, R.tool("redcard").CheckRatio);
}

TEST(Harness, ShadowOpsNeverExceedFastTrackOnCompressedTools) {
  Workload W = workloadByName("crypt", SuiteScale::Test);
  ExperimentOptions Opts;
  Opts.Iterations = 1;
  ExperimentResult R = runExperiment(W, Opts);
  EXPECT_LT(R.tool("bigfoot").ShadowOps, R.tool("fasttrack").ShadowOps);
  EXPECT_LE(R.tool("bigfoot").PeakShadowBytes,
            R.tool("fasttrack").PeakShadowBytes);
}

TEST(Harness, SuiteResultsIdenticalAcrossJobCounts) {
  // Iterations = 0 skips the wall-clock phase, so everything measured is
  // deterministic; serial and 4-way parallel runs must agree exactly, in
  // the same order.
  ExperimentOptions Serial;
  Serial.Iterations = 0;
  Serial.Jobs = 1;
  ExperimentOptions Parallel = Serial;
  Parallel.Jobs = 4;
  std::vector<ExperimentResult> A = runSuite(SuiteScale::Test, Serial);
  std::vector<ExperimentResult> B = runSuite(SuiteScale::Test, Parallel);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Workload, B[I].Workload);
    EXPECT_EQ(A[I].Accesses, B[I].Accesses);
    EXPECT_EQ(A[I].BaseHeapBytes, B[I].BaseHeapBytes);
    EXPECT_EQ(A[I].BigFootChecks, B[I].BigFootChecks);
    EXPECT_EQ(A[I].MethodsProcessed, B[I].MethodsProcessed);
    ASSERT_EQ(A[I].Tools.size(), B[I].Tools.size());
    for (size_t T = 0; T < A[I].Tools.size(); ++T) {
      EXPECT_EQ(A[I].Tools[T].Tool, B[I].Tools[T].Tool);
      EXPECT_EQ(A[I].Tools[T].ShadowOps, B[I].Tools[T].ShadowOps);
      EXPECT_EQ(A[I].Tools[T].Races, B[I].Tools[T].Races);
      EXPECT_EQ(A[I].Tools[T].PeakShadowBytes,
                B[I].Tools[T].PeakShadowBytes);
      EXPECT_EQ(A[I].Tools[T].PeakShadowLocations,
                B[I].Tools[T].PeakShadowLocations);
      EXPECT_DOUBLE_EQ(A[I].Tools[T].CheckRatio, B[I].Tools[T].CheckRatio);
    }
  }
}

TEST(Harness, ReplaySuiteMatchesDirectExecution) {
  // The record-once/replay-many counters phase (3 recorded placements +
  // 6 offline replays per workload) must be bytewise indistinguishable
  // from running each of the 6 detectors inline.
  ExperimentOptions Opts;
  Opts.Iterations = 0;
  Opts.Jobs = 1;
  std::vector<Workload> Suite = standardSuite(SuiteScale::Test);
  std::vector<ExperimentResult> Replayed = runSuite(SuiteScale::Test, Opts);
  ASSERT_EQ(Replayed.size(), Suite.size());
  for (size_t I = 0; I < Suite.size(); ++I) {
    const ExperimentResult &B = Replayed[I];
    EXPECT_EQ(B.Workload, Suite[I].Name);
    ParseResult PR = parseProgram(Suite[I].Source);
    ASSERT_TRUE(PR.ok()) << PR.Error;
    VmOptions VmOpts;
    VmOpts.Seed = Opts.Seed;
    VmResult Base = runProgramBase(*PR.Prog, VmOpts);
    EXPECT_EQ(B.Accesses, Base.Counters.get("vm.accesses"));
    EXPECT_EQ(B.FieldAccesses, Base.Counters.get("vm.accesses.field"));
    EXPECT_EQ(B.ArrayAccesses, Base.Counters.get("vm.accesses.array"));
    EXPECT_EQ(B.BaseHeapBytes, Base.Counters.get("vm.heapBytes"));
    ASSERT_EQ(B.Tools.size(), kNumTools);
    for (size_t T = 0; T < kNumTools; ++T) {
      InstrumentedProgram IP = instrumentTool(*PR.Prog, kTools[T]);
      if (kTools[T].Placement == PlacementKind::BigFoot) {
        EXPECT_EQ(B.BigFootChecks, IP.Placement.ChecksInserted);
      }
      VmResult Run = runProgram(*IP.Prog, IP.Tool, VmOpts);
      ASSERT_TRUE(Run.Ok) << Run.Error;
      const Stats &C = Run.Counters;
      const ToolMetrics &M = B.Tools[T];
      std::string Tag = B.Workload + "/" + kTools[T].Name;
      EXPECT_EQ(M.Tool, kTools[T].Name) << Tag;
      EXPECT_EQ(M.ShadowOps, C.get("tool.shadowOps")) << Tag;
      EXPECT_EQ(M.Races, C.get("tool.races")) << Tag;
      EXPECT_EQ(M.PeakShadowBytes, C.get("tool.peakShadowBytes")) << Tag;
      EXPECT_EQ(M.PeakShadowLocations, C.get("tool.peakShadowLocations"))
          << Tag;
      auto Ratio = [&C](uint64_t Events) {
        return static_cast<double>(Events) /
               static_cast<double>(C.get("vm.accesses"));
      };
      uint64_t Field = C.get("tool.checkEvents.field");
      uint64_t Array = C.get("tool.checkEvents.array");
      EXPECT_DOUBLE_EQ(M.CheckRatio, Ratio(Field + Array)) << Tag;
      EXPECT_DOUBLE_EQ(M.FieldCheckRatio, Ratio(Field)) << Tag;
      EXPECT_DOUBLE_EQ(M.ArrayCheckRatio, Ratio(Array)) << Tag;
      EXPECT_EQ(M.FilterTableBytes, Run.FilterTableBytes) << Tag;
    }
  }
}

TEST(Harness, GeomeanOverheadBehaves) {
  EXPECT_NEAR(geomeanOverhead({2.0, 8.0}), 4.0, 1e-9);
  EXPECT_NEAR(geomeanOverhead({3.0}), 3.0, 1e-9);
  // Non-positive entries clamp instead of blowing up.
  EXPECT_GT(geomeanOverhead({-0.5, 1.0}), 0.0);
  EXPECT_EQ(geomeanOverhead({}), 0.0);
}

TEST(Harness, BenchArgsParsing) {
  const char *Argv[] = {"prog", "--small", "--iters=7", "--seed=42",
                        "--jobs=3"};
  BenchArgs Args = parseBenchArgs(5, const_cast<char **>(Argv));
  EXPECT_EQ(Args.Scale, SuiteScale::Test);
  EXPECT_EQ(Args.Opts.Iterations, 7);
  EXPECT_EQ(Args.Opts.Seed, 42u);
  EXPECT_EQ(Args.Opts.Jobs, 3u);
  BenchArgs Defaults = parseBenchArgs(1, const_cast<char **>(Argv));
  EXPECT_EQ(Defaults.Scale, SuiteScale::Bench);
  EXPECT_EQ(Defaults.Opts.Jobs, 0u);
  // --iters=0 is a legitimate counters-only request, not clamped.
  const char *Zero[] = {"prog", "--iters=0"};
  EXPECT_EQ(parseBenchArgs(2, const_cast<char **>(Zero)).Opts.Iterations, 0);
  // --record-dir= captures the trace directory.
  EXPECT_TRUE(Defaults.Opts.RecordDir.empty());
  const char *Record[] = {"prog", "--record-dir=/tmp/traces"};
  EXPECT_EQ(parseBenchArgs(2, const_cast<char **>(Record)).Opts.RecordDir,
            "/tmp/traces");
  // Async detection: off by default, --async-detect enables.
  EXPECT_FALSE(Defaults.Opts.AsyncDetect);
  const char *Async[] = {"prog", "--async-detect"};
  EXPECT_TRUE(parseBenchArgs(2, const_cast<char **>(Async)).Opts.AsyncDetect);
  // The other detection flags go through the same parser as the CLI's.
  EXPECT_EQ(Defaults.Opts.DetectShards, 0u);
  EXPECT_TRUE(Defaults.Opts.CheckFilter);
  const char *Detect[] = {"prog", "--detect-shards=64", "--no-check-filter"};
  BenchArgs D = parseBenchArgs(3, const_cast<char **>(Detect));
  EXPECT_EQ(D.Opts.DetectShards, 64u);
  EXPECT_FALSE(D.Opts.CheckFilter);
  EXPECT_FALSE(D.Opts.AsyncDetect);
}

// Bench flags are as strict as the CLI's: a shard count past the cap or
// a non-decimal number exits before any worker thread could start.
TEST(Harness, BenchArgsRejectMalformedNumbers) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const char *TooMany[] = {"prog", "--detect-shards=65"};
  EXPECT_EXIT(parseBenchArgs(2, const_cast<char **>(TooMany)),
              testing::ExitedWithCode(1), "expects an integer");
  const char *Negative[] = {"prog", "--detect-shards=-1"};
  EXPECT_EXIT(parseBenchArgs(2, const_cast<char **>(Negative)),
              testing::ExitedWithCode(1), "expects an integer");
  const char *NotANumber[] = {"prog", "--iters=abc"};
  EXPECT_EXIT(parseBenchArgs(2, const_cast<char **>(NotANumber)),
              testing::ExitedWithCode(1), "expects an integer");
}

// An unknown flag exits too, so a bench never runs with settings other
// than those asked for: --ast (the AST walker is a test-only reference),
// --no-replay and --replay (record-once/replay-many is the only counters
// phase) and a typo of a real flag.
TEST(Harness, BenchArgsRejectUnknownOptions) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const char *Ast[] = {"prog", "--small", "--ast"};
  EXPECT_EXIT(parseBenchArgs(3, const_cast<char **>(Ast)),
              testing::ExitedWithCode(1), "unknown option '--ast'");
  const char *NoReplay[] = {"prog", "--no-replay"};
  EXPECT_EXIT(parseBenchArgs(2, const_cast<char **>(NoReplay)),
              testing::ExitedWithCode(1), "unknown option '--no-replay'");
  const char *Replay[] = {"prog", "--replay"};
  EXPECT_EXIT(parseBenchArgs(2, const_cast<char **>(Replay)),
              testing::ExitedWithCode(1), "unknown option '--replay'");
  const char *Typo[] = {"prog", "--iter=3"};
  EXPECT_EXIT(parseBenchArgs(2, const_cast<char **>(Typo)),
              testing::ExitedWithCode(1), "unknown option '--iter=3'");
}

TEST(TablePrinterTest, AlignsColumnsAndHeaderRule) {
  TablePrinter T("demo");
  T.addRow({"Program", "X"});
  T.addRow({"longname", "1.00"});
  std::ostringstream OS;
  T.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("== demo =="), std::string::npos);
  EXPECT_NE(Out.find("-----"), std::string::npos);
  EXPECT_NE(Out.find("longname"), std::string::npos);
}

TEST(TablePrinterTest, NumberFormatting) {
  EXPECT_EQ(TablePrinter::num(1.2345, 2), "1.23");
  EXPECT_EQ(TablePrinter::num(-0.5, 1), "-0.5");
  EXPECT_EQ(TablePrinter::ratio(0.391), "(0.39)");
}

TEST(StatsTest, CountersAndGauges) {
  Stats S;
  S.bump("a");
  S.bump("a", 4);
  EXPECT_EQ(S.get("a"), 5u);
  EXPECT_EQ(S.get("missing"), 0u);
  S.gaugeMax("g", 10);
  S.gaugeMax("g", 3);
  EXPECT_EQ(S.get("g"), 10u);
  S.clear();
  EXPECT_EQ(S.get("a"), 0u);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer T;
  volatile uint64_t Sink = 0;
  for (int I = 0; I < 2000000; ++I)
    Sink = Sink + static_cast<uint64_t>(I);
  EXPECT_GT(T.seconds(), 0.0);
  T.reset();
  EXPECT_LT(T.seconds(), 1.0);
}
