//===- bench_check_filter.cpp - Redundant-check filter on vs off -------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Measures what the epoch-stamped check filter (DESIGN.md Sec. 11) buys
// per detector configuration. Each suite workload records its three
// placement traces once (FastTrack, RedCard, BigFoot — the harness's
// record-once/replay-many shape), then every one of the six detector
// configs replays its placement's trace with the filter on and off.
// Replay is pure detector work — no program execution to dilute the
// signal — so the on/off ratio is the filter's true effect on the check
// pipeline, and dividing by the replayed event count gives ns/event.
// Each side is measured as an alternating min-of-N of batched samples:
// an untimed warmup pass absorbs one-time costs (page faults, allocator
// growth), sub-millisecond replays are batched until a timed sample
// spans ~5ms, and the on/off samples interleave so machine drift cannot
// bias one side. End-to-end instrumented execution is measured with the
// same discipline.
//
// Every replay pair is differentially checked on the spot: counters and
// race reports must be byte-identical on/off, so a speedup can never be
// bought with a dropped report.
//
// Emits BENCH_check_filter.json (BenchMeta-stamped). The headline
// per-config "geomean_speedup" is detector wall-clock (replay) on-vs-off
// across the workload suite; "geomean_exec_speedup" is the end-to-end
// view of the same runs.
//
//===----------------------------------------------------------------------===//

#include "BenchMeta.h"
#include "bfj/Parser.h"
#include "events/Replay.h"
#include "events/TraceCodec.h"
#include "harness/Experiment.h"
#include "instrument/Instrumenters.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"
#include "vm/Vm.h"
#include "workloads/Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

using namespace bigfoot;

namespace {

/// Below this many replayed events a timed sample measures per-replay
/// fixed costs (TraceReader setup, detector construction) rather than
/// per-event filter cost — the old ~7us replay rows — so the cell is
/// reported but excluded from timing.
constexpr uint64_t kMinTimedEvents = 5000;

struct ConfigCell {
  bool Skipped = false;  ///< Under kMinTimedEvents; no timing columns.
  double ReplayOnS = 0;  ///< Min-of-N pure-detector replay, filter on.
  double ReplayOffS = 0; ///< Same trace, filter off.
  double ExecOnS = 0;    ///< Min-of-N end-to-end instrumented run, on.
  double ExecOffS = 0;   ///< Same program, filter off.
  uint64_t Events = 0;   ///< Events replayed (the ns/event denominator).
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t FieldHits = 0; ///< Per-leg split of Hits/Misses.
  uint64_t FieldMisses = 0;
  uint64_t ArrayHits = 0;
  uint64_t ArrayMisses = 0;

  double speedup() const { return ReplayOnS > 0 ? ReplayOffS / ReplayOnS : 0; }
  double execSpeedup() const { return ExecOnS > 0 ? ExecOffS / ExecOnS : 0; }
  double nsPerEventOn() const {
    return Events ? ReplayOnS * 1e9 / static_cast<double>(Events) : 0;
  }
  double nsPerEventOff() const {
    return Events ? ReplayOffS * 1e9 / static_cast<double>(Events) : 0;
  }
  double hitRate() const {
    uint64_t Total = Hits + Misses;
    return Total ? static_cast<double>(Hits) / static_cast<double>(Total) : 0;
  }
  static double rate(uint64_t H, uint64_t M) {
    return H + M ? static_cast<double>(H) / static_cast<double>(H + M) : 0;
  }
};

struct WorkloadRow {
  std::string Workload;
  ConfigCell Cells[kNumTools];
};

/// The two sides of an on/off pair must be indistinguishable in every
/// observable; a bench that quietly dropped a race would otherwise still
/// "win".
void expectIdentical(const std::string &Tag, const ReplayResult &On,
                     const ReplayResult &Off) {
  bool Same = On.Ok == Off.Ok && On.Counters.all() == Off.Counters.all() &&
              On.ToolRacyLocations == Off.ToolRacyLocations &&
              On.ToolRaces.size() == Off.ToolRaces.size();
  for (size_t I = 0; Same && I < On.ToolRaces.size(); ++I)
    Same = On.ToolRaces[I].str() == Off.ToolRaces[I].str();
  if (!Same) {
    std::fprintf(stderr, "%s: filter on/off runs diverged\n", Tag.c_str());
    std::abort();
  }
}

WorkloadRow measureWorkload(const Workload &W, const BenchArgs &Args) {
  ParseResult PR = parseProgram(W.Source);
  if (!PR.ok()) {
    std::fprintf(stderr, "workload %s failed to parse: %s\n", W.Name.c_str(),
                 PR.Error.c_str());
    std::abort();
  }
  WorkloadRow Row;
  Row.Workload = W.Name;
  // Min-of-5 by default: single-core VM steal time makes individual
  // samples swing tens of percent, and alternating on/off rounds with a
  // min reducer is the cheapest defense. --iters overrides (CI passes 1).
  int Iters = Args.Opts.Iterations > 0 ? Args.Opts.Iterations : 5;

  // Record each placement's event stream once, detector-free (the VM
  // still executes the placed checks, so the stream equals an attached
  // run's).
  std::vector<uint8_t> Traces[kNumPlacements];
  InstrumentedProgram Programs[kNumPlacements];
  for (size_t P = 0; P < kNumPlacements; ++P) {
    Programs[P] = instrumentPlacement(*PR.Prog, static_cast<PlacementKind>(P));
    Programs[P].Prog->internSymbols();
    TraceWriter Writer(Programs[P].Prog->symbols(), Programs[P].Tool);
    VmOptions Rec;
    Rec.Seed = Args.Opts.Seed;
    Rec.RecordSink = &Writer;
    VmResult Run = runProgramBase(*Programs[P].Prog, Rec);
    if (!Run.Ok) {
      std::fprintf(stderr, "workload %s recording failed: %s\n",
                   W.Name.c_str(), Run.Error.c_str());
      std::abort();
    }
    Writer.finish(Run.traceSummary());
    Traces[P] = Writer.buffer();
  }

  for (size_t C = 0; C < kNumTools; ++C) {
    const ToolSpec &Tool = kTools[C];
    ConfigCell &Cell = Row.Cells[C];
    const auto Placement = static_cast<size_t>(Tool.Placement);
    const std::vector<uint8_t> &Trace = Traces[Placement];
    std::string Tag = W.Name + "/" + Tool.Name;

    auto replayOnce = [&](bool Filter, ReplayResult *Sample) {
      ReplayOptions RO;
      RO.CheckFilter = Filter;
      TraceReader Reader;
      if (!Reader.open(Trace.data(), Trace.size())) {
        std::fprintf(stderr, "%s: bad trace: %s\n", Tag.c_str(),
                     Reader.error().c_str());
        std::abort();
      }
      DetectorConfig Cfg = Tool.Config(Reader.config().FieldProxy);
      ReplayResult R = replayTrace(Reader, Cfg, RO);
      if (!R.Ok) {
        std::fprintf(stderr, "%s: replay failed: %s\n", Tag.c_str(),
                     R.Error.c_str());
        std::abort();
      }
      if (Sample)
        *Sample = std::move(R);
    };

    // Warmup pass, untimed: faults in the trace pages and warms the
    // allocator so neither side of the pair pays one-time costs — and
    // doubles as the differential check (counters and reports must be
    // byte-identical on/off before any timing is trusted).
    ReplayResult On, Off;
    Timer Warm;
    replayOnce(true, &On);
    double WarmS = Warm.seconds();
    replayOnce(false, &Off);
    expectIdentical(Tag, On, Off);
    Cell.Events = On.EventsReplayed;
    Cell.Hits = On.Filter.hits();
    Cell.Misses = On.Filter.misses();
    Cell.FieldHits = On.Filter.FieldHits;
    Cell.FieldMisses = On.Filter.FieldMisses;
    Cell.ArrayHits = On.Filter.ArrayHits;
    Cell.ArrayMisses = On.Filter.ArrayMisses;

    // The differential check above still ran; only the timing is
    // meaningless below the event floor.
    if (Cell.Events < kMinTimedEvents) {
      Cell.Skipped = true;
      continue;
    }

    // Sub-millisecond replays are timer noise one at a time; batch each
    // timed sample up to ~5ms and report the per-replay mean of the
    // batch. Both sides use the same batch so the ratio is exact.
    int Batch = 1;
    if (WarmS < 0.005)
      Batch = static_cast<int>(
          std::min(2000.0, std::ceil(0.005 / std::max(WarmS, 1e-7))));
    auto timedSample = [&](bool Filter) {
      Timer T;
      for (int B = 0; B < Batch; ++B)
        replayOnce(Filter, nullptr);
      return T.seconds() / Batch;
    };
    // Alternating min-of-N: interleaving the sides keeps machine drift
    // (frequency steps, background noise on the 1-core runners) from
    // biasing one of them.
    for (int I = 0; I < Iters; ++I) {
      double OnS = timedSample(true);
      double OffS = timedSample(false);
      if (Cell.ReplayOnS == 0 || OnS < Cell.ReplayOnS)
        Cell.ReplayOnS = OnS;
      if (Cell.ReplayOffS == 0 || OffS < Cell.ReplayOffS)
        Cell.ReplayOffS = OffS;
    }

    // End-to-end: the same config driven by live execution, same
    // warmup/batch/alternation discipline (batches are smaller — the VM
    // dominates, so single runs already sit at the millisecond scale).
    const InstrumentedProgram &IP = Programs[Placement];
    DetectorConfig ExecCfg = Tool.Config(IP.Tool.FieldProxy);
    auto execOnce = [&](bool Filter) {
      VmOptions Opts;
      Opts.Seed = Args.Opts.Seed;
      Opts.CheckFilter = Filter;
      VmResult R = runProgram(*IP.Prog, ExecCfg, Opts);
      if (!R.Ok) {
        std::fprintf(stderr, "%s: run failed: %s\n", Tag.c_str(),
                     R.Error.c_str());
        std::abort();
      }
    };
    Timer ExecWarm;
    execOnce(true);
    double ExecWarmS = ExecWarm.seconds();
    int ExecBatch = 1;
    if (ExecWarmS < 0.005)
      ExecBatch = static_cast<int>(
          std::min(50.0, std::ceil(0.005 / std::max(ExecWarmS, 1e-7))));
    auto execSample = [&](bool Filter) {
      Timer T;
      for (int B = 0; B < ExecBatch; ++B)
        execOnce(Filter);
      return T.seconds() / ExecBatch;
    };
    for (int I = 0; I < Iters; ++I) {
      double OnS = execSample(true);
      double OffS = execSample(false);
      if (Cell.ExecOnS == 0 || OnS < Cell.ExecOnS)
        Cell.ExecOnS = OnS;
      if (Cell.ExecOffS == 0 || OffS < Cell.ExecOffS)
        Cell.ExecOffS = OffS;
    }
  }
  return Row;
}

double geomeanOf(const std::vector<double> &Vals) {
  if (Vals.empty())
    return 0;
  double LogSum = 0;
  for (double V : Vals)
    LogSum += std::log(V > 1e-9 ? V : 1e-9);
  return std::exp(LogSum / static_cast<double>(Vals.size()));
}

} // namespace

int main(int Argc, char **Argv) {
  constexpr std::string_view Takes[] = {"--small", "--iters", "--seed",
                                        "--workload"};
  BenchArgs Args = parseBenchArgs(Argc, Argv, Takes);

  std::vector<WorkloadRow> Rows;
  for (const Workload &W : standardSuite(Args.Scale))
    if (Args.Workload.empty() || W.Name == Args.Workload)
      Rows.push_back(measureWorkload(W, Args));

  TablePrinter Table("Check filter: detector ns/event, filter off -> on");
  Table.addRow(
      {"Program", "Config", "Off", "On", "Speedup", "FHit", "AHit"});
  std::vector<double> Speedups[kNumTools], ExecSpeedups[kNumTools];
  for (const WorkloadRow &R : Rows)
    for (size_t C = 0; C < kNumTools; ++C) {
      const ConfigCell &Cell = R.Cells[C];
      if (Cell.Skipped) {
        Table.addRow({R.Workload, kTools[C].Name, "-", "-", "skip",
                      TablePrinter::num(
                          ConfigCell::rate(Cell.FieldHits, Cell.FieldMisses),
                          2),
                      TablePrinter::num(
                          ConfigCell::rate(Cell.ArrayHits, Cell.ArrayMisses),
                          2)});
        continue;
      }
      Table.addRow(
          {R.Workload, kTools[C].Name,
           TablePrinter::num(Cell.nsPerEventOff(), 1),
           TablePrinter::num(Cell.nsPerEventOn(), 1),
           TablePrinter::num(Cell.speedup(), 2),
           TablePrinter::num(ConfigCell::rate(Cell.FieldHits, Cell.FieldMisses),
                             2),
           TablePrinter::num(ConfigCell::rate(Cell.ArrayHits, Cell.ArrayMisses),
                             2)});
      if (Cell.speedup() > 0)
        Speedups[C].push_back(Cell.speedup());
      if (Cell.execSpeedup() > 0)
        ExecSpeedups[C].push_back(Cell.execSpeedup());
    }
  for (size_t C = 0; C < kNumTools; ++C)
    Table.addRow({"GeoMean", kTools[C].Name, "", "",
                  TablePrinter::num(geomeanOf(Speedups[C]), 2), ""});
  Table.print(std::cout);
  std::cout << "(skip = trace under " << kMinTimedEvents
            << " events: a timed sample would measure per-replay setup, "
               "not the filter; excluded from the geomeans)\n";

  std::string Json = "{\"bench\":\"check_filter\"," + benchMetaJson() +
                     ",\"unit\":\"seconds\",\"workloads\":{";
  bool FirstW = true;
  for (const WorkloadRow &R : Rows) {
    Json += (FirstW ? "\"" : ",\"") + R.Workload + "\":{";
    FirstW = false;
    for (size_t C = 0; C < kNumTools; ++C) {
      const ConfigCell &Cell = R.Cells[C];
      char Buf[512];
      std::snprintf(
          Buf, sizeof(Buf),
          "%s\"%s\":{\"skipped\":%s,\"replay_on_s\":%.6f,\"replay_off_s\":%.6f,"
          "\"exec_on_s\":%.6f,\"exec_off_s\":%.6f,\"events\":%llu,"
          "\"ns_per_event_on\":%.2f,\"ns_per_event_off\":%.2f,"
          "\"hits\":%llu,\"misses\":%llu,\"field_hits\":%llu,"
          "\"field_misses\":%llu,\"array_hits\":%llu,"
          "\"array_misses\":%llu,\"speedup\":%.3f,"
          "\"exec_speedup\":%.3f}",
          C ? "," : "", kTools[C].Name, Cell.Skipped ? "true" : "false",
          Cell.ReplayOnS, Cell.ReplayOffS, Cell.ExecOnS, Cell.ExecOffS,
          static_cast<unsigned long long>(Cell.Events),
          Cell.nsPerEventOn(), Cell.nsPerEventOff(),
          static_cast<unsigned long long>(Cell.Hits),
          static_cast<unsigned long long>(Cell.Misses),
          static_cast<unsigned long long>(Cell.FieldHits),
          static_cast<unsigned long long>(Cell.FieldMisses),
          static_cast<unsigned long long>(Cell.ArrayHits),
          static_cast<unsigned long long>(Cell.ArrayMisses), Cell.speedup(),
          Cell.execSpeedup());
      Json += Buf;
    }
    Json += "}";
  }
  Json += "},\"configs\":{";
  for (size_t C = 0; C < kNumTools; ++C) {
    char Buf[192];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\"%s\":{\"geomean_speedup\":%.3f,"
                  "\"geomean_exec_speedup\":%.3f}",
                  C ? "," : "", kTools[C].Name, geomeanOf(Speedups[C]),
                  geomeanOf(ExecSpeedups[C]));
    Json += Buf;
  }
  Json += "}}";

  std::FILE *Out = std::fopen("BENCH_check_filter.json", "w");
  if (Out) {
    std::fprintf(Out, "%s\n", Json.c_str());
    std::fclose(Out);
  }
  std::cout << "\n" << Json << "\n";
  return 0;
}
