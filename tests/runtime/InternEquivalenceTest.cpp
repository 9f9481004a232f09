//===- InternEquivalenceTest.cpp - Differential golden test ------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Differential regression test for the symbol-interning / flat-shadow
// refactor: for every workload (standard suite at Test scale plus the racy
// variants), all six detector configurations, and three scheduler seeds,
// the externally visible behavior — run status, VM output, the sorted set
// of racy location keys, and every counter — must be byte-identical to a
// golden file captured from the string-keyed seed implementation.
//
// The single excluded counter is tool.peakShadowBytes: it measures the
// *size of the shadow representation itself*, which the interning refactor
// deliberately shrinks (Table 2's accounting follows the representation).
// tool.peakShadowLocations stays included — interning must not change how
// many shadow locations exist, only how they are keyed.
//
// Regenerate (only legitimate when intentionally changing detector
// semantics) with:
//   BIGFOOT_REGEN_GOLDEN=1 ./test_intern_equivalence
//
//===----------------------------------------------------------------------===//

#include "bfj/Parser.h"
#include "events/TraceCodec.h"
#include "instrument/Instrumenters.h"
#include "runtime/Detector.h"
#include "vm/Vm.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

using namespace bigfoot;

namespace {

#ifndef BIGFOOT_TEST_DIR
#error "BIGFOOT_TEST_DIR must be defined by the build"
#endif

std::string goldenPath() {
  return std::string(BIGFOOT_TEST_DIR) + "/runtime/golden/intern_equivalence.golden";
}

void renderRun(std::ostream &Out, const std::string &WorkloadName,
               const std::string &ToolName, uint64_t Seed,
               const VmResult &Run) {
  Out << "run workload=" << WorkloadName << " tool=" << ToolName
      << " seed=" << Seed << "\n";
  Out << "ok=" << (Run.Ok ? 1 : 0) << "\n";
  if (!Run.Ok)
    Out << "error=" << Run.Error << "\n";
  for (const std::string &Line : Run.Output)
    Out << "out=" << Line << "\n";
  // ToolRacyLocations is a std::set — already sorted and deduplicated.
  for (const std::string &Key : Run.ToolRacyLocations)
    Out << "race=" << Key << "\n";
  for (const auto &[Name, Value] : Run.Counters.all()) {
    if (Name == "tool.peakShadowBytes")
      continue; // Representation-dependent by design; see file comment.
    Out << "counter " << Name << "=" << Value << "\n";
  }
  Out << "end\n";
}

std::string renderAll() {
  std::ostringstream Out;
  std::vector<Workload> Suite = standardSuite(SuiteScale::Test);
  for (Workload &W : racyVariants())
    Suite.push_back(std::move(W));
  for (const Workload &W : Suite) {
    ParseResult PR = parseProgram(W.Source);
    if (!PR.ok()) {
      ADD_FAILURE() << "workload " << W.Name
                    << " failed to parse: " << PR.Error;
      continue;
    }
    for (const ToolSpec &T : kTools) {
      InstrumentedProgram IP = instrumentTool(*PR.Prog, T);
      for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
        VmOptions Opts;
        Opts.Seed = Seed;
        VmResult Run = runProgram(*IP.Prog, IP.Tool, Opts);
        renderRun(Out, W.Name, IP.Tool.Name, Seed, Run);
      }
    }
  }
  return Out.str();
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::string Cur;
  for (char C : Text) {
    if (C == '\n') {
      Lines.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Lines.push_back(Cur);
  return Lines;
}

TEST(InternEquivalence, BehaviorMatchesStringKeyedGolden) {
  std::string Text = renderAll();

  if (std::getenv("BIGFOOT_REGEN_GOLDEN")) {
    std::ofstream Out(goldenPath(), std::ios::binary);
    ASSERT_TRUE(Out.good()) << "cannot write " << goldenPath();
    Out << Text;
    GTEST_SKIP() << "regenerated golden at " << goldenPath();
  }

  std::ifstream In(goldenPath(), std::ios::binary);
  ASSERT_TRUE(In.good()) << "missing golden file " << goldenPath()
                         << "; run with BIGFOOT_REGEN_GOLDEN=1";
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Golden = Buf.str();

  // Compare line-by-line so a mismatch reports the first divergence
  // instead of dumping two multi-megabyte strings.
  std::vector<std::string> Got = splitLines(Text);
  std::vector<std::string> Want = splitLines(Golden);
  size_t N = std::min(Got.size(), Want.size());
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Got[I], Want[I]) << "first divergence at line " << (I + 1);
  ASSERT_EQ(Got.size(), Want.size())
      << "line counts differ (got " << Got.size() << ", golden "
      << Want.size() << ")";
}

//===----------------------------------------------------------------------===
// AST walker vs compiled bytecode: the two execution modes of the VM must
// agree on *everything* observable — status, output, scheduler step count,
// every counter, tool and oracle racy-location sets, race reports, and the
// bytes of the whole recorded event stream, oracle accesses included
// (which pins down the interleaving itself, not just its outcome). Same
// coverage grid as the golden test: every workload and racy variant ×
// six configs × three seeds.
//
// The bytecode loop runs a whole quantum per entry and cuts its batches
// at commit-interval boundaries and at the step limit, while the walker
// accounts step by step; the extra legs put those boundaries everywhere:
// one-step and long quanta, a commit every 7 steps, and a step limit at
// half the run (quanta average ~12 steps, so it falls inside one).
//===----------------------------------------------------------------------===

/// Runs \p IP under \p Opts with a TraceWriter on the stream; the
/// trace's bytes land in \p Trace.
VmResult runRecorded(const InstrumentedProgram &IP, VmOptions Opts,
                     std::vector<uint8_t> &Trace) {
  TraceWriter Writer(IP.Prog->symbols(), IP.Tool);
  Opts.RecordSink = &Writer;
  VmResult Run = runProgram(*IP.Prog, IP.Tool, Opts);
  Writer.finish(Run.traceSummary());
  Trace = Writer.buffer();
  return Run;
}

/// Runs \p IP in both modes under \p Opts and checks they agree; the
/// bytecode run lands in \p BcOut.
void expectModesAgree(const InstrumentedProgram &IP, VmOptions Opts,
                      const std::string &Tag, VmResult &BcOut) {
  Opts.EnableGroundTruth = true;
  Opts.UseBytecode = false;
  std::vector<uint8_t> AstTrace, BcTrace;
  VmResult Ast = runRecorded(IP, Opts, AstTrace);
  Opts.UseBytecode = true;
  VmResult Bc = runRecorded(IP, Opts, BcTrace);

  EXPECT_EQ(Ast.Ok, Bc.Ok) << Tag;
  EXPECT_EQ(Ast.Error, Bc.Error) << Tag;
  EXPECT_EQ(Ast.Output, Bc.Output) << Tag;
  EXPECT_EQ(Ast.StatementsExecuted, Bc.StatementsExecuted) << Tag;
  EXPECT_EQ(Ast.Counters.all(), Bc.Counters.all()) << Tag;
  EXPECT_EQ(Ast.ToolRacyLocations, Bc.ToolRacyLocations) << Tag;
  EXPECT_EQ(Ast.GroundTruthRacyLocations, Bc.GroundTruthRacyLocations)
      << Tag;
  ASSERT_EQ(Ast.ToolRaces.size(), Bc.ToolRaces.size()) << Tag;
  for (size_t I = 0; I < Ast.ToolRaces.size(); ++I)
    EXPECT_EQ(Ast.ToolRaces[I].str(), Bc.ToolRaces[I].str())
        << Tag << " race " << I;
  // The whole event stream, byte for byte: kinds, threads, locations,
  // ranges, payloads and targets, in order.
  ASSERT_EQ(AstTrace.size(), BcTrace.size()) << Tag;
  auto Diverge = std::mismatch(AstTrace.begin(), AstTrace.end(),
                               BcTrace.begin());
  ASSERT_TRUE(Diverge.first == AstTrace.end())
      << Tag << ": event streams differ at trace byte "
      << (Diverge.first - AstTrace.begin());
  BcOut = std::move(Bc);
}

TEST(BytecodeEquivalence, MatchesAstWalkerEverywhere) {
  std::vector<Workload> Suite = standardSuite(SuiteScale::Test);
  for (Workload &W : racyVariants())
    Suite.push_back(std::move(W));
  for (const Workload &W : Suite) {
    ParseResult PR = parseProgram(W.Source);
    ASSERT_TRUE(PR.ok()) << W.Name << ": " << PR.Error;
    for (const ToolSpec &T : kTools) {
      InstrumentedProgram IP = instrumentTool(*PR.Prog, T);
      for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
        std::string Tag =
            W.Name + "/" + IP.Tool.Name + "/seed" + std::to_string(Seed);
        VmOptions Opts;
        Opts.Seed = Seed;
        VmResult Full;
        expectModesAgree(IP, Opts, Tag, Full);
        if (HasFatalFailure())
          return;

        VmResult Bc;
        for (unsigned Quantum : {1u, 97u}) {
          VmOptions Q = Opts;
          Q.Quantum = Quantum;
          expectModesAgree(IP, Q, Tag + "/quantum" + std::to_string(Quantum),
                           Bc);
        }

        VmOptions Commit = Opts;
        Commit.CommitIntervalSteps = 7;
        expectModesAgree(IP, Commit, Tag + "/commit7", Bc);

        VmOptions Limited = Opts;
        Limited.MaxSteps = Full.StatementsExecuted / 2;
        expectModesAgree(
            IP, Limited, Tag + "/maxsteps" + std::to_string(Limited.MaxSteps),
            Bc);
        if (HasFatalFailure())
          return;
        EXPECT_EQ(Bc.StatementsExecuted, Limited.MaxSteps + 1) << Tag;
        EXPECT_NE(Bc.Error.find("step budget exhausted"), std::string::npos)
            << Tag << ": " << Bc.Error;
      }
    }
  }
}

//===----------------------------------------------------------------------===
// Incremental-census audit: shadowBytes()/shadowLocationCount() are O(1)
// counters maintained across every shadow mutation; the audit variants
// recompute by walking all state. They must agree at every point, for
// every configuration, across every kind of shadow transition (epoch
// promotion to read sets, coarse→grid→fine array refinement, footprint
// accumulation, commit, early commit).
//===----------------------------------------------------------------------===

void expectCensusAgreement(RaceDetector &D, const std::string &Where) {
  EXPECT_EQ(D.shadowBytes(), D.auditShadowBytes()) << Where;
  EXPECT_EQ(D.shadowLocationCount(), D.auditShadowLocationCount()) << Where;
}

TEST(ShadowCensus, IncrementalCountersMatchFullWalk) {
  std::map<std::string, std::string> Proxies = {
      {"x", "x"}, {"y", "x"}, {"z", "x"}};
  std::vector<DetectorConfig> Configs = {
      fastTrackConfig(),       djitConfig(),
      redCardConfig(Proxies),  slimStateConfig(),
      slimCardConfig(Proxies), bigFootConfig(Proxies)};

  for (const DetectorConfig &Cfg : Configs) {
    Stats Counters;
    RaceDetector D(Cfg, Counters);
    FieldId Group[3] = {D.internField("x"), D.internField("y"),
                        D.internField("z")};
    std::string Tag = "config=" + Cfg.Name;

    // Field shadows, including epoch → read-set promotion via a second
    // reader thread, and an unordered write (possible race + shrink back
    // to a write epoch).
    for (ObjectId Obj = 1; Obj <= 8; ++Obj) {
      D.checkFields(0, Obj, Group, 3, AccessKind::Read);
      D.checkFields(1, Obj, Group, 3, AccessKind::Read);
      D.checkFields(1, Obj, Group, 1, AccessKind::Write);
    }
    expectCensusAgreement(D, Tag + " after field checks");

    // Volatiles and locks grow the HB-state clock maps.
    D.onVolatileWrite(0, 5, Group[0]);
    D.onVolatileRead(1, 5, Group[0]);
    D.onAcquire(0, 77);
    D.onRelease(0, 77);
    expectCensusAgreement(D, Tag + " after sync ops");

    // Array shadows: whole-array, strided (coarse→grid), and scattered
    // singletons (grid→fine); deferred configs accumulate footprints and
    // the singleton loop crosses the early-commit fragment threshold.
    D.onArrayAlloc(1, 1024);
    D.checkArrayRange(0, 1, StridedRange(0, 1024), AccessKind::Write);
    D.checkArrayRange(0, 1, StridedRange(0, 512, 4), AccessKind::Read);
    for (int64_t I = 1; I < 512; I += 7)
      D.checkArrayRange(1, 1, StridedRange::singleton(I), AccessKind::Write);
    expectCensusAgreement(D, Tag + " after array checks");

    // Commit any pending footprints, then thread lifecycle events.
    D.onRelease(1, 78);
    D.onFork(0, 2);
    D.checkFields(2, 3, Group, 2, AccessKind::Write);
    D.onJoin(0, 2);
    D.onThreadExit(2);
    expectCensusAgreement(D, Tag + " after commit and join");
  }
}

} // namespace
