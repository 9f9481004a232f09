//===- bench_runtime_micro.cpp - Runtime primitive microbenchmarks -----------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// google-benchmark timings for the primitives whose relative costs drive
// the paper's overhead story: epoch-based FastTrack location ops, vector
// clock joins, adaptive array shadow operations (coarse vs fine),
// footprint construction/commit, entailment queries, and the parser.
//
//===----------------------------------------------------------------------===//

#include "BenchMeta.h"
#include "bfj/Parser.h"
#include "entail/ConstraintSystem.h"
#include "runtime/ArrayShadow.h"
#include "runtime/Detector.h"
#include "support/Timer.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>

using namespace bigfoot;

namespace {

VectorClock clockFor(ThreadId T) {
  VectorClock C;
  C.set(T, 1);
  return C;
}

void BM_EpochSameThreadWrite(benchmark::State &State) {
  ClockPool Pool;
  FastTrackState S;
  VectorClock C = clockFor(0);
  for (auto _ : State)
    benchmark::DoNotOptimize(S.onWrite(0, C, Pool));
}
BENCHMARK(BM_EpochSameThreadWrite);

void BM_EpochOrderedReadWrite(benchmark::State &State) {
  ClockPool Pool;
  FastTrackState S;
  VectorClock C = clockFor(0);
  for (auto _ : State) {
    benchmark::DoNotOptimize(S.onRead(0, C, Pool));
    benchmark::DoNotOptimize(S.onWrite(0, C, Pool));
  }
}
BENCHMARK(BM_EpochOrderedReadWrite);

void BM_VectorClockJoin(benchmark::State &State) {
  VectorClock A, B;
  for (ThreadId T = 0; T < 16; ++T) {
    A.set(T, T * 3);
    B.set(T, 50 - T);
  }
  for (auto _ : State) {
    VectorClock C = A;
    C.joinWith(B);
    benchmark::DoNotOptimize(C);
  }
}
BENCHMARK(BM_VectorClockJoin);

void BM_CoarseWholeArrayCheck(benchmark::State &State) {
  ClockPool Pool;
  VectorClock C = clockFor(0);
  ArrayShadow S(1 << 16, /*Adaptive=*/true, Pool);
  StridedRange Whole(0, 1 << 16);
  for (auto _ : State)
    benchmark::DoNotOptimize(S.apply(Whole, AccessKind::Write, 0, C));
}
BENCHMARK(BM_CoarseWholeArrayCheck);

void BM_FineWholeArrayCheck(benchmark::State &State) {
  ClockPool Pool;
  VectorClock C = clockFor(0);
  ArrayShadow S(1 << 10, /*Adaptive=*/false, Pool);
  StridedRange Whole(0, 1 << 10);
  for (auto _ : State)
    benchmark::DoNotOptimize(S.apply(Whole, AccessKind::Write, 0, C));
}
BENCHMARK(BM_FineWholeArrayCheck);

void BM_FootprintAddSequential(benchmark::State &State) {
  for (auto _ : State) {
    RangeSet FP;
    for (int64_t I = 0; I < 256; ++I)
      FP.add(StridedRange::singleton(I));
    benchmark::DoNotOptimize(FP);
  }
}
BENCHMARK(BM_FootprintAddSequential);

void BM_FootprintAddStrided(benchmark::State &State) {
  for (auto _ : State) {
    RangeSet FP;
    for (int64_t I = 0; I < 512; I += 2)
      FP.add(StridedRange::singleton(I));
    benchmark::DoNotOptimize(FP);
  }
}
BENCHMARK(BM_FootprintAddStrided);

void BM_DeferredCommitCycle(benchmark::State &State) {
  Stats Counters;
  RaceDetector D(slimStateConfig(), Counters);
  D.onArrayAlloc(1, 4096);
  for (auto _ : State) {
    for (int64_t I = 0; I < 128; ++I)
      D.checkArrayRange(0, 1, StridedRange::singleton(I),
                        AccessKind::Write);
    D.onRelease(0, 9);
  }
}
BENCHMARK(BM_DeferredCommitCycle);

// A cold query: a fresh system each time, since a system caches its
// verdicts and a repeated query would only time the cache lookup.
void BM_EntailmentProveLe(benchmark::State &State) {
  AffineExpr L = AffineExpr::variable("i'");
  AffineExpr R = AffineExpr::variable("n");
  for (auto _ : State) {
    ConstraintSystem CS;
    CS.addEquality(AffineExpr::variable("i"), AffineExpr::variable("i'") + 1);
    CS.addLe(AffineExpr::constant(0), AffineExpr::variable("i'"));
    CS.addLt(AffineExpr::variable("i"), AffineExpr::variable("n"));
    benchmark::DoNotOptimize(CS.proveLe(L, R));
  }
}
BENCHMARK(BM_EntailmentProveLe);

void BM_ParseSmallProgram(benchmark::State &State) {
  const char *Source = R"(
class Point {
  fields x, y, z;
  method move(dx) {
    t = this.x;
    this.x = t + dx;
  }
}
thread {
  p = new Point;
  i = 0;
  while (i < 10) {
    p.move(i);
    i = i + 1;
  }
}
)";
  for (auto _ : State) {
    ParseResult R = parseProgram(Source);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_ParseSmallProgram);

//===----------------------------------------------------------------------===
// Machine-readable shadow-op throughput (BENCH_runtime_micro.json).
//
// Drives each detector configuration's field- and array-check hot path
// directly (no VM, no tracing) and reports ns per shadow operation. Later
// PRs compare against this JSON line to track the perf trajectory of the
// detector-metadata layer.
//===----------------------------------------------------------------------===

/// Field-proxy table matching the workload-typical shape: y and z proxy
/// through x, so proxy-aware configs fuse the three-field group into one
/// shadow location.
std::map<std::string, std::string> benchProxies() {
  return {{"x", "x"}, {"y", "x"}, {"z", "x"}};
}

/// One deterministic mixed workload over the detector's check API:
/// coalesced field-group checks across a working set of objects, single
/// field checks, strided array checks, and a release every round so
/// deferred configs exercise their commit path too.
uint64_t driveDetector(RaceDetector &D, int Rounds) {
  // Intern once up front; the loop drives the id-based hot path exactly
  // the way the VM does (no strings per check).
  const FieldId Group[3] = {D.internField("x"), D.internField("y"),
                            D.internField("z")};
  const FieldId One[1] = {Group[0]};
  constexpr ObjectId NumObjects = 64;
  constexpr ObjectId ArrayId = 1000;
  D.onArrayAlloc(ArrayId, 4096);
  for (int Round = 0; Round < Rounds; ++Round) {
    for (ObjectId Obj = 1; Obj <= NumObjects; ++Obj) {
      D.checkFields(0, Obj, Group, 3, AccessKind::Write);
      D.checkFields(0, Obj, One, 1, AccessKind::Read);
    }
    for (int64_t I = 0; I < 64; ++I)
      D.checkArrayRange(0, ArrayId, StridedRange::singleton(I),
                        AccessKind::Write);
    D.onRelease(0, 9999);
  }
  return 0;
}

double nsPerShadowOp(const DetectorConfig &Cfg, int Rounds) {
  Stats Counters;
  RaceDetector D(Cfg, Counters);
  driveDetector(D, 50); // Warm up table sizes and epochs.
  uint64_t OpsBefore = Counters.get("tool.shadowOps") +
                       Counters.get("tool.footprintAdds");
  Timer T;
  driveDetector(D, Rounds);
  double Sec = T.seconds();
  uint64_t Ops = Counters.get("tool.shadowOps") +
                 Counters.get("tool.footprintAdds") - OpsBefore;
  return Ops ? Sec * 1e9 / static_cast<double>(Ops) : 0;
}

void emitShadowOpJson(int Rounds) {
  std::vector<std::pair<std::string, DetectorConfig>> Configs;
  Configs.emplace_back("fasttrack", fastTrackConfig());
  Configs.emplace_back("djit", djitConfig());
  Configs.emplace_back("redcard", redCardConfig(benchProxies()));
  Configs.emplace_back("slimstate", slimStateConfig());
  Configs.emplace_back("slimcard", slimCardConfig(benchProxies()));
  Configs.emplace_back("bigfoot", bigFootConfig(benchProxies()));

  std::string Json = "{\"bench\":\"runtime_micro\"," + benchMetaJson() +
                     ",\"unit\":\"ns_per_shadow_op\",\"configs\":{";
  bool First = true;
  for (auto &[Name, Cfg] : Configs) {
    double Ns = nsPerShadowOp(Cfg, Rounds);
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\":%.2f", First ? "" : ",",
                  Name.c_str(), Ns);
    Json += Buf;
    First = false;
  }
  Json += "}}";

  std::FILE *Out = std::fopen("BENCH_runtime_micro.json", "w");
  if (Out) {
    std::fprintf(Out, "%s\n", Json.c_str());
    std::fclose(Out);
  }
  std::printf("%s\n", Json.c_str());
}

} // namespace

int main(int argc, char **argv) {
  // --quick (CI smoke mode): a fraction of the measurement rounds, enough
  // to prove the harness runs and emits well-formed JSON. Stripped before
  // google-benchmark sees the arguments.
  int Rounds = 2000;
  for (int I = 1; I < argc; ++I)
    if (std::string(argv[I]) == "--quick") {
      Rounds = 100;
      for (int J = I; J + 1 < argc; ++J)
        argv[J] = argv[J + 1];
      --argc;
      break;
    }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emitShadowOpJson(Rounds);
  return 0;
}
