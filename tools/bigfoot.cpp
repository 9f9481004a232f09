//===- bigfoot.cpp - The bigfoot command-line driver --------------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// The StaticBF + DynamicBF pipeline as a command-line tool:
//
//   bigfoot program.bfj                      # instrument + run + report
//   bigfoot --tool=fasttrack program.bfj     # pick a detector
//   bigfoot --print program.bfj              # show instrumented source
//   bigfoot --contexts program.bfj           # show analysis contexts
//   bigfoot --seed=N --quantum=N ...         # schedule control
//   bigfoot trace record --out=t.bft p.bfj   # record the event stream
//   bigfoot trace replay t.bft               # re-analyze it offline
//   bigfoot trace info t.bft                 # describe a trace file
//
//===----------------------------------------------------------------------===//

#include "analysis/CheckPlacement.h"
#include "bfj/Parser.h"
#include "bfj/Printer.h"
#include "events/Replay.h"
#include "events/TraceCodec.h"
#include "instrument/Instrumenters.h"
#include "support/Flags.h"
#include "vm/Vm.h"

#include <climits>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace bigfoot;

namespace {

void usage() {
  std::cerr <<
      R"(usage: bigfoot [options] program.bfj

options:
  --tool=NAME     detector: bigfoot (default), fasttrack, redcard,
                  slimstate, slimcard, djit, none (base run)
  --print         print the instrumented program and exit
  --contexts      print per-statement analysis contexts (H • A) and exit
  --seed=N        scheduler seed (default 1)
  --quantum=N     max statements per scheduling quantum (default 24,
                  at least 1)
  --commit-interval=N
                  commit deferred footprints every N statements (the
                  Section 3.3 extension; 0 = only at synchronization)
  --async-detect  run the detector on its own thread behind a bounded
                  batch ring (reports stay identical to sync mode; an
                  [async] line shows the vm/detector time split). Also
                  accepted by trace record and trace replay.
  --detect-shards=N
                  fan detection out to N (at most 64) location-
                  partitioned detector workers (implies the async
                  pipeline, takes precedence over --async-detect;
                  reports stay byte-identical for every N; a [shards]
                  line shows the per-lane split).
                  N may be "auto": derive the count from the machine's
                  core count (sharding stays off on one core). Also
                  accepted by trace record and trace replay.
  --no-check-filter
                  disable the epoch-stamped redundant-check filter in
                  front of the detector; reports and counters are
                  byte-identical either way, only the [filter] line
                  and the speed change
  --oracle        also run the per-access ground-truth detector
  --stats         dump all counters after the run

trace subcommands (record once, re-analyze offline):
  bigfoot trace record --out=FILE [--tool=NAME] [run options] program.bfj
                  run with a detector attached, recording the event
                  stream to FILE; the report is identical to a plain run
  bigfoot trace replay [--tool=NAME] [detection options] FILE
                  replay FILE into a fresh detector (default: the
                  recorded config) and print the same report the
                  recording run printed; NAME must share the recorded
                  tool's placement (fasttrack, slimstate and djit share
                  one, redcard and slimcard another, bigfoot has its own).
                  Detection options: --async-detect, --detect-shards=N,
                  --no-check-filter, --oracle, --stats; the schedule
                  options (--seed, --quantum, --commit-interval) belong
                  to the recording run and are rejected
  bigfoot trace info FILE
                  describe a trace: config, symbols, events, summary
                  (takes no options)
)";
}

std::string readFile(const char *Path);

/// Applies one of the scheduler and detection flags shared by direct runs
/// and `trace record`; false if \p Arg is not one of them.
bool parseVmFlag(const char *Arg, VmOptions &VmOpts) {
  if (std::strncmp(Arg, "--seed=", 7) == 0)
    VmOpts.Seed = parseNumericFlag(Arg, 0, UINT64_MAX);
  else if (std::strncmp(Arg, "--quantum=", 10) == 0)
    VmOpts.Quantum =
        static_cast<unsigned>(parseNumericFlag(Arg, 1, UINT_MAX));
  else if (std::strncmp(Arg, "--commit-interval=", 18) == 0)
    VmOpts.CommitIntervalSteps = parseNumericFlag(Arg, 0, UINT64_MAX);
  else
    return parseDetectFlag(Arg, VmOpts);
  return true;
}

/// The post-run report shared verbatim by execution and replay — the
/// record/replay smoke test diffs the two outputs byte for byte.
int reportRun(const std::string &ToolName, const DetectResult &Run,
              const DetectOptions &Opts, bool DumpStats) {
  for (const std::string &Line : Run.Output)
    std::cout << Line << "\n";
  if (!Run.Ok) {
    std::cerr << "bigfoot: runtime error: " << Run.Error << "\n";
    return 1;
  }
  uint64_t Events = Run.Counters.get("tool.checkEvents.field") +
                    Run.Counters.get("tool.checkEvents.array");
  uint64_t Accesses = Run.Counters.get("vm.accesses");
  std::cerr << "[" << ToolName << "] " << Accesses << " accesses, "
            << Events << " check events ("
            << (Accesses ? static_cast<double>(Events) / Accesses : 0.0)
            << " ratio), " << Run.Counters.get("tool.shadowOps")
            << " shadow ops\n";
  // Deterministic per event stream and config, so replaying a recorded
  // run reprints it byte for byte — the record/replay smokes depend on
  // that. Filter-on vs. filter-off diffs must grep it away.
  if (Run.FilterEnabled)
    std::cerr << "[filter] " << Run.Filter.hits() << " hit(s), "
              << Run.Filter.misses() << " miss(es), "
              << Run.Filter.Invalidations << " invalidation(s), "
              << Run.Filter.RangeExtends << " range extend(s)\n";
  if (Run.ToolRaces.empty()) {
    std::cerr << "[" << ToolName << "] no races detected\n";
  } else {
    for (const ReportedRace &R : Run.ToolRaces)
      std::cerr << "[" << ToolName << "] " << R.str() << "\n";
  }
  if (Opts.EnableGroundTruth) {
    std::cerr << "[oracle] " << Run.GroundTruthRaces.size()
              << " race(s) at per-access granularity\n";
  }
  if (DumpStats)
    for (const auto &[Name, Value] : Run.Counters.all())
      std::cerr << "  " << Name << " = " << Value << "\n";
  return Run.ToolRaces.empty() ? 0 : 2;
}

/// Sharded-mode lane summary on stderr, for online runs and replays
/// alike; prefixed like the [async] line so byte-diff consumers can
/// filter it.
void reportShards(size_t Shards, const DetectResult &Run) {
  if (Shards == 0)
    return;
  std::cerr << "[shards] " << Run.ShardLanes.size() << " lane(s), "
            << Run.ShardRoutedEvents << " routed + "
            << Run.ShardBroadcastEvents << " broadcast event(s)\n";
  if (Run.ShardSyncPublishes || Run.ShardHorizonAdvances)
    std::cerr << "[shards] sync table: " << Run.ShardSyncPublishes
              << " publish(es), " << Run.ShardTableReads
              << " table read(s), " << Run.ShardHorizonAdvances
              << " horizon advance(s), " << Run.ShardSyncTableBytes
              << " table byte(s)\n";
  for (size_t I = 0; I < Run.ShardLanes.size(); ++I) {
    const ShardLaneStats &L = Run.ShardLanes[I];
    std::cerr << "[shards]   lane " << I << ": " << L.Events
              << " event(s), " << static_cast<double>(L.BusyNs) * 1e-9
              << "s busy, " << L.Stalls << " stall(s)\n";
  }
  if (Run.ShardOrderViolations)
    std::cerr << "[shards] WARNING: " << Run.ShardOrderViolations
              << " ordering violation(s)\n";
}

/// Pipelined-mode detector stats on stderr, for runs and replays alike,
/// prefixed so byte-diff consumers can filter it exactly like the [trace]
/// line. A run also gives its producer (vm) seconds; a replay has no VM.
/// Sharded mode pipelines too, so it gets the same line plus its [shards]
/// lane summary.
void reportAsync(const DetectOptions &Opts, const DetectResult &Run,
                 const VmResult *Vm = nullptr) {
  if (!Opts.AsyncDetect && Opts.DetectShards == 0)
    return;
  std::cerr << "[async] ";
  if (Vm)
    std::cerr << "vm " << Vm->VmSeconds << "s, ";
  std::cerr << "detector " << Run.DetectorSeconds << "s, "
            << Run.DetectorBatches << " batch(es), " << Run.DetectorStalls
            << " stall(s)\n";
  reportShards(Opts.DetectShards, Run);
}

/// The tool called \p Name, or null after an "unknown tool" error.
const ToolSpec *toolNamed(const std::string &Name) {
  const ToolSpec *Tool = findTool(Name);
  if (!Tool)
    std::cerr << "bigfoot: error: unknown tool '" << Name << "'\n";
  return Tool;
}

int traceMain(int Argc, char **Argv) {
  if (Argc < 3) {
    usage();
    return 1;
  }
  std::string Sub = Argv[2];
  bool Record = Sub == "record", Replay = Sub == "replay";
  if (!Record && !Replay && Sub != "info") {
    std::cerr << "bigfoot: error: unknown trace subcommand '" << Sub
              << "'\n";
    return 1;
  }
  std::string ToolName, OutPath;
  bool DumpStats = false;
  const char *File = nullptr;
  VmOptions VmOpts;
  // Each subcommand takes only the options it uses: a replay's schedule is
  // the recorded one, and info only describes the file.
  bool Detects = Record || Replay;
  for (int I = 3; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (Arg[0] != '-')
      File = Arg;
    else if (Detects && std::strncmp(Arg, "--tool=", 7) == 0)
      ToolName = Arg + 7;
    else if (Record && std::strncmp(Arg, "--out=", 6) == 0)
      OutPath = Arg + 6;
    else if (Detects && std::strcmp(Arg, "--oracle") == 0)
      VmOpts.EnableGroundTruth = true;
    else if (Detects && std::strcmp(Arg, "--stats") == 0)
      DumpStats = true;
    else if (Record ? parseVmFlag(Arg, VmOpts)
                    : Replay && parseDetectFlag(Arg, VmOpts))
      continue;
    else {
      std::cerr << "bigfoot: error: trace " << Sub
                << " does not take option '" << Arg << "'\n";
      return 1;
    }
  }
  if (!File) {
    std::cerr << "bigfoot: error: trace " << Sub << " needs a file\n";
    return 1;
  }

  if (Record) {
    if (OutPath.empty()) {
      std::cerr << "bigfoot: error: trace record needs --out=FILE\n";
      return 1;
    }
    ParseResult PR = parseProgram(readFile(File));
    if (!PR.ok()) {
      std::cerr << "bigfoot: " << File << ": " << PR.Error << "\n";
      return 1;
    }
    if (ToolName.empty())
      ToolName = "bigfoot";
    const ToolSpec *Tool = toolNamed(ToolName);
    if (!Tool)
      return 1;
    InstrumentedProgram IP = instrumentTool(*PR.Prog, *Tool);
    IP.Prog->internSymbols(); // The trace header serializes the table.
    TraceWriter Writer(IP.Prog->symbols(), IP.Tool);
    VmOpts.RecordSink = &Writer;
    VmResult Run = runProgram(*IP.Prog, IP.Tool, VmOpts);
    Writer.finish(Run.traceSummary());
    if (!Writer.writeFile(OutPath)) {
      std::cerr << "bigfoot: error: cannot write trace '" << OutPath
                << "'\n";
      return 1;
    }
    std::cerr << "[trace] wrote " << Writer.buffer().size() << " bytes to "
              << OutPath << "\n";
    reportAsync(VmOpts, Run, &Run);
    return reportRun(ToolName, Run, VmOpts, DumpStats);
  }

  if (Replay) {
    TraceReader Reader;
    if (!Reader.openFile(File)) {
      std::cerr << "bigfoot: " << File << ": " << Reader.error() << "\n";
      return 1;
    }
    DetectorConfig Cfg = Reader.config();
    if (!ToolName.empty()) {
      // Proxy maps are placement properties, so a tool replays a trace
      // only when it shares the recorded config's placement.
      const ToolSpec *Tool = toolNamed(ToolName);
      if (!Tool)
        return 1;
      const ToolSpec *Recorded = findTool(Cfg.Name);
      if (!Recorded || Recorded->Placement != Tool->Placement) {
        std::cerr << "bigfoot: error: tool '" << ToolName
                  << "' cannot replay a trace recorded under '" << Cfg.Name
                  << "': a tool replays only traces of its own placement\n";
        return 1;
      }
      Cfg = Tool->Config(Cfg.FieldProxy);
    }
    ReplayResult Run = replayTrace(Reader, Cfg, VmOpts);
    reportAsync(VmOpts, Run);
    return reportRun(Cfg.Name, Run, VmOpts, DumpStats);
  }

  // trace info
  TraceReader Reader;
  if (!Reader.openFile(File)) {
    std::cerr << "bigfoot: " << File << ": " << Reader.error() << "\n";
    return 1;
  }
  // Drain the stream to count events and reach the summary.
  std::vector<Event> Buf(kDefaultEventBatch);
  std::vector<uint32_t> Payload;
  while (Reader.nextBatch(Buf.data(), Buf.size(), Payload) > 0)
    ;
  if (!Reader.ok()) {
    std::cerr << "bigfoot: " << File << ": " << Reader.error() << "\n";
    return 1;
  }
  const DetectorConfig &C = Reader.config();
  std::cout << "trace: " << File << "\n"
            << "  config: " << C.Name
            << (C.DeferArrayChecks ? " +defer" : "")
            << (C.AdaptiveArrayShadow ? " +adaptive" : "")
            << (C.VectorClocksOnly ? " +vconly" : "") << ", "
            << C.FieldProxy.size() << " proxied field(s)\n"
            << "  symbols: " << Reader.symbols().size() << "\n"
            << "  events: " << Reader.eventsDecoded() << "\n";
  if (Reader.summaryReady()) {
    const TraceSummary &S = Reader.summary();
    std::cout << "  run: " << (S.Ok ? "ok" : ("error: " + S.Error)) << ", "
              << S.StatementsExecuted << " statements, "
              << S.Output.size() << " output line(s), "
              << S.Counters.size() << " counter(s)\n";
  }
  return 0;
}

std::string readFile(const char *Path) {
  std::ifstream In(Path);
  if (!In) {
    std::cerr << "bigfoot: error: cannot open '" << Path << "'\n";
    std::exit(1);
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc >= 2 && std::strcmp(Argv[1], "trace") == 0)
    return traceMain(Argc, Argv);

  std::string ToolName = "bigfoot";
  bool PrintOnly = false, Contexts = false, DumpStats = false;
  const char *File = nullptr;
  VmOptions VmOpts;

  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--tool=", 7) == 0)
      ToolName = Arg + 7;
    else if (std::strcmp(Arg, "--print") == 0)
      PrintOnly = true;
    else if (std::strcmp(Arg, "--contexts") == 0)
      Contexts = true;
    else if (std::strcmp(Arg, "--oracle") == 0)
      VmOpts.EnableGroundTruth = true;
    else if (std::strcmp(Arg, "--stats") == 0)
      DumpStats = true;
    else if (parseVmFlag(Arg, VmOpts))
      continue;
    else if (std::strcmp(Arg, "--help") == 0 || std::strcmp(Arg, "-h") == 0) {
      usage();
      return 0;
    } else if (Arg[0] == '-') {
      std::cerr << "bigfoot: error: unknown option '" << Arg << "'\n";
      usage();
      return 1;
    } else {
      File = Arg;
    }
  }
  if (!File) {
    usage();
    return 1;
  }

  ParseResult PR = parseProgram(readFile(File));
  if (!PR.ok()) {
    std::cerr << "bigfoot: " << File << ": " << PR.Error << "\n";
    return 1;
  }

  if (Contexts) {
    PlacementOptions Opts;
    Opts.TraceContexts = true;
    PlacementStats Stats = placeBigFootChecks(*PR.Prog, Opts);
    std::cout << printProgram(*PR.Prog);
    std::cout << "\n--- contexts after each statement ---\n";
    for (const auto &[Id, Ctx] : Stats.ContextAfter)
      std::cout << "#" << Id << ": " << Ctx << "\n";
    return 0;
  }

  if (ToolName == "none") {
    VmResult Run = runProgramBase(*PR.Prog, VmOpts);
    for (const std::string &Line : Run.Output)
      std::cout << Line << "\n";
    if (!Run.Ok) {
      std::cerr << "bigfoot: runtime error: " << Run.Error << "\n";
      return 1;
    }
    return 0;
  }

  const ToolSpec *Tool = toolNamed(ToolName);
  if (!Tool)
    return 1;
  InstrumentedProgram IP = instrumentTool(*PR.Prog, *Tool);

  if (PrintOnly) {
    std::cout << printProgram(*IP.Prog);
    return 0;
  }

  VmResult Run = runProgram(*IP.Prog, IP.Tool, VmOpts);
  reportAsync(VmOpts, Run, &Run);
  return reportRun(ToolName, Run, VmOpts, DumpStats);
}
