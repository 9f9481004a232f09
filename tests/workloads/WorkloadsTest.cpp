//===- WorkloadsTest.cpp - Benchmark suite validation ------------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Every suite program must parse, run cleanly, self-validate, and be race
// free under the oracle; every tool must stay precise on it. The racy
// variants must be flagged by all six tools, with matching locations.
//
//===----------------------------------------------------------------------===//

#include "workloads/Workloads.h"

#include "bfj/Parser.h"
#include "instrument/Instrumenters.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

using namespace bigfoot;

namespace {

std::vector<std::string> suiteNames() {
  std::vector<std::string> Names;
  for (const Workload &W : standardSuite(SuiteScale::Test))
    Names.push_back(W.Name);
  return Names;
}

} // namespace

class WorkloadSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSuite, ParsesAndRunsCleanly) {
  Workload W = workloadByName(GetParam(), SuiteScale::Test);
  ParseResult R = parseProgram(W.Source);
  ASSERT_TRUE(R.ok()) << W.Name << ": " << R.Error;
  VmOptions Opts;
  Opts.EnableGroundTruth = true;
  VmResult Run = runProgramBase(*R.Prog, Opts);
  EXPECT_TRUE(Run.Ok) << W.Name << ": " << Run.Error;
  EXPECT_TRUE(Run.GroundTruthRaces.empty())
      << W.Name << " must be race free; first race: "
      << (Run.GroundTruthRaces.empty()
              ? ""
              : Run.GroundTruthRaces[0].str());
  EXPECT_GT(Run.Counters.get("vm.accesses"), 0u);
}

TEST_P(WorkloadSuite, AllToolsPreciseOnIt) {
  Workload W = workloadByName(GetParam(), SuiteScale::Test);
  auto Prog = parseProgramOrDie(W.Source.c_str());
  for (const ToolSpec &T : kTools) {
    InstrumentedProgram IP = instrumentTool(*Prog, T);
    VmOptions Opts;
    Opts.Seed = 5;
    Opts.EnableGroundTruth = true;
    VmResult Run = runProgram(*IP.Prog, IP.Tool, Opts);
    ASSERT_TRUE(Run.Ok) << W.Name << "/" << IP.Tool.Name << ": "
                        << Run.Error;
    EXPECT_TRUE(Run.GroundTruthRaces.empty())
        << W.Name << "/" << IP.Tool.Name;
    EXPECT_TRUE(Run.ToolRaces.empty())
        << W.Name << "/" << IP.Tool.Name << " false alarm: "
        << Run.ToolRaces[0].str();
  }
}

TEST_P(WorkloadSuite, DeterministicOutputAcrossTools) {
  // Instrumentation must not change program semantics: printed output and
  // access counts agree between base and every instrumented run under the
  // same seed... access counts can legitimately differ only by zero
  // (checks are not accesses).
  Workload W = workloadByName(GetParam(), SuiteScale::Test);
  auto Prog = parseProgramOrDie(W.Source.c_str());
  VmOptions Opts;
  Opts.Seed = 11;
  VmResult Base = runProgramBase(*Prog, Opts);
  ASSERT_TRUE(Base.Ok) << Base.Error;
  for (const ToolSpec &T : kTools) {
    InstrumentedProgram IP = instrumentTool(*Prog, T);
    VmResult Run = runProgram(*IP.Prog, IP.Tool, Opts);
    ASSERT_TRUE(Run.Ok) << W.Name << "/" << IP.Tool.Name << ": "
                        << Run.Error;
    EXPECT_EQ(Run.Output, Base.Output) << W.Name << "/" << IP.Tool.Name;
    EXPECT_EQ(Run.Counters.get("vm.accesses"),
              Base.Counters.get("vm.accesses"))
        << W.Name << "/" << IP.Tool.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, WorkloadSuite,
                         ::testing::ValuesIn(suiteNames()),
                         [](const auto &Info) { return Info.param; });

TEST(WorkloadRacy, AllToolsFlagRacyVariants) {
  for (const Workload &W : racyVariants()) {
    auto Prog = parseProgramOrDie(W.Source.c_str());
    for (const ToolSpec &T : kTools) {
      InstrumentedProgram IP = instrumentTool(*Prog, T);
      VmOptions Opts;
      Opts.Seed = 3;
      Opts.Quantum = 4;
      Opts.EnableGroundTruth = true;
      VmResult Run = runProgram(*IP.Prog, IP.Tool, Opts);
      ASSERT_TRUE(Run.Ok) << W.Name << "/" << IP.Tool.Name << ": "
                          << Run.Error;
      EXPECT_FALSE(Run.GroundTruthRaces.empty())
          << W.Name << " should race";
      EXPECT_FALSE(Run.ToolRaces.empty())
          << W.Name << "/" << IP.Tool.Name << " missed the race";
    }
  }
}

TEST(WorkloadSuiteMeta, NineteenProgramsMatchingThePaper) {
  auto Suite = standardSuite(SuiteScale::Test);
  EXPECT_EQ(Suite.size(), 19u);
  // Table 1 order.
  EXPECT_EQ(Suite.front().Name, "crypt");
  EXPECT_EQ(Suite.back().Name, "h2");
}

TEST(WorkloadSuiteMeta, BenchScaleIsLarger) {
  Workload Small = workloadByName("crypt", SuiteScale::Test);
  Workload Big = workloadByName("crypt", SuiteScale::Bench);
  EXPECT_NE(Small.Source, Big.Source);
}
