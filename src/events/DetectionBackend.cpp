//===- DetectionBackend.cpp - The one place detection is wired ------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "events/DetectionBackend.h"

#include "events/AsyncSink.h"
#include "events/ShardedSink.h"
#include "support/Flags.h"

#include <algorithm>
#include <cstring>
#include <thread>

using namespace bigfoot;

namespace {
/// Upper bound on `--detect-shards=`: each shard is a worker thread.
constexpr uint64_t MaxDetectShards = 64;
} // namespace

size_t bigfoot::autoShardCount() {
  unsigned HW = std::thread::hardware_concurrency();
  if (HW <= 1)
    return 0; // Unknown or single core: sharding would only add overhead.
  return std::min<size_t>(8, HW - 1); // Leave a core for the producer.
}

bool bigfoot::parseDetectFlag(const char *Arg, DetectOptions &Opts) {
  if (std::strcmp(Arg, "--async-detect") == 0)
    Opts.AsyncDetect = true;
  else if (std::strcmp(Arg, "--detect-shards=auto") == 0)
    Opts.DetectShards = autoShardCount();
  else if (std::strncmp(Arg, "--detect-shards=", 16) == 0)
    Opts.DetectShards =
        static_cast<size_t>(parseNumericFlag(Arg, 0, MaxDetectShards));
  else if (std::strcmp(Arg, "--no-check-filter") == 0)
    Opts.CheckFilter = false;
  else
    return false;
  return true;
}

DetectionBackend::DetectionBackend(const DetectorConfig *ToolCfg,
                                   const DetectOptions &Opts,
                                   const SymbolTable *Symbols,
                                   DetectResult &Result)
    : Result(Result) {
  // Sharding partitions the tool's locations, so a run without a tool
  // detector falls back to the unsharded paths.
  if (Opts.DetectShards > 0 && ToolCfg) {
    ShardedSink::Options SO;
    static_cast<DetectOptions &>(SO) = Opts;
    SO.Tool = *ToolCfg;
    SO.Symbols = Symbols;
    Sharded = std::make_unique<ShardedSink>(std::move(SO));
  } else if (ToolCfg) {
    DetectorConfig Cfg = *ToolCfg;
    Cfg.CheckFilter = Opts.CheckFilter;
    // In async mode the tool runs on its own thread while the producer
    // keeps bumping vm.* counters, and Stats is a plain map: the tool gets
    // a private Stats that finish() merges (the name sets are disjoint and
    // the map is sorted, so the merge is byte-identical to sync mode's).
    Tool = std::make_unique<RaceDetector>(
        Cfg, Opts.AsyncDetect ? AsyncToolCounters : Result.Counters, Symbols);
  }
  if (Opts.EnableGroundTruth) {
    DetectorConfig OracleCfg = fastTrackConfig();
    OracleCfg.CheckFilter = Opts.CheckFilter;
    Oracle = std::make_unique<RaceDetector>(OracleCfg, OracleCounters,
                                            Symbols);
  }
  Detectors.bind(Tool.get(), Oracle.get());
  // A sharded run pipelines the oracle on its own thread beside the lanes.
  if (!Detectors.empty() && (Opts.AsyncDetect || Sharded))
    Async = std::make_unique<AsyncSink>(Detectors, Opts.RingBatches);
  Fanout.add(Sharded.get());
  if (Async)
    Fanout.add(Async.get());
  else if (!Detectors.empty())
    Fanout.add(&Detectors);
  Sink = Fanout.size() > 1 ? &Fanout : Fanout.sole();
}

DetectionBackend::~DetectionBackend() = default;

void DetectionBackend::finish() {
  if (Async) {
    Async->drain();
    Result.DetectorSeconds = Async->busySeconds();
    Result.DetectorBatches = Async->batchesConsumed();
    Result.DetectorStalls = Async->producerStalls();
  }
  if (Sharded) {
    Sharded->drain();
    Sharded->finish(Result); // Adds the lanes' pipeline stats.
  }
  if (Tool) {
    Tool->sampleMemoryNow();
    Result.ToolRaces = Tool->races();
    Result.ToolRacyLocations = Tool->racyLocationKeys();
    Result.FilterEnabled = Tool->filterEnabled();
    Result.Filter = Tool->filterStats();
    Result.FilterTableBytes = Tool->filterTableBytes();
  }
  if (Oracle) {
    Result.GroundTruthRaces = Oracle->races();
    Result.GroundTruthRacyLocations = Oracle->racyLocationKeys();
  }
  // Final values only (empty in sync mode), so gauges merge exactly too.
  for (const auto &[Name, Value] : AsyncToolCounters.all())
    Result.Counters.bump(Name, Value);
}
