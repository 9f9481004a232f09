//===- DetectionBackend.h - The one place detection is wired ----*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A BigFoot run attaches exactly one RoadRunner tool; here a run attaches
/// exactly one DetectionBackend. It is the only code that turns the tool
/// config (or none) and the detection knobs (DetectOptions: filter,
/// oracle, async, shards, ring depth) into the EventSink a stream feeds —
/// the inline DetectorSink, the
/// single-thread AsyncSink (DESIGN.md Sec. 10), or the location-partitioned
/// ShardedSink (Sec. 12) teed with the oracle behind its own AsyncSink —
/// and the only code that, once the stream is flushed, drains that sink
/// and fills the run's result. Online runs (the VM) and offline trace
/// replays share it, together with the knobs (DetectOptions) and the
/// result fields (DetectResult) it reads and writes.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_EVENTS_DETECTIONBACKEND_H
#define BIGFOOT_EVENTS_DETECTIONBACKEND_H

#include "events/DetectorSink.h"
#include "events/SpscBatchRing.h"
#include "runtime/Detector.h"
#include "support/Stats.h"

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace bigfoot {

class AsyncSink;
class ShardedSink;

/// The detection knobs an online run, a replay and the experiment harness
/// all take, declared here once. None of them is a trace property: a
/// replay applies its own values, whatever the recording run used.
/// Reports and counters are byte-identical for every setting.
struct DetectOptions {
  /// Epoch-stamped redundant-check elision in front of the detectors
  /// (DESIGN.md Sec. 11). Off = every check runs the full state machine.
  bool CheckFilter = true;
  /// Sharded parallel detection (DESIGN.md Sec. 12): fan the event stream
  /// out to N detector worker threads partitioned by location. 0 = off.
  /// Online, > 0 implies the async pipeline and takes precedence over
  /// AsyncDetect; a run without a tool detector does not shard.
  size_t DetectShards = 0;
  /// Run the attached detectors on a dedicated thread fed by a bounded
  /// SPSC batch ring (DESIGN.md Sec. 10). Batches are applied in
  /// publication order, so reports are byte-identical to inline detection.
  bool AsyncDetect = false;
  /// Ring depth in batches for AsyncDetect and for each sharded lane
  /// (clamped to >= 2).
  size_t RingBatches = kDefaultRingBatches;
  /// Attach the per-access ground-truth FastTrack oracle, whose counters
  /// are discarded. Online, the VM then emits every heap access; a replay
  /// rebuilds it from the trace's oracle-targeted events, which only a
  /// run recorded with the oracle attached has.
  bool EnableGroundTruth = false;
  /// Events per batch: the VM's ring flush size, and a replay's decode
  /// size (1 = per-event dispatch, the differential reference mode).
  size_t EventBatch = kDefaultEventBatch;
};

/// Shard count for `--detect-shards=auto`: derived from
/// hardware_concurrency() with one core reserved for the producer,
/// clamped to 8 lanes. On a single-core box (or when concurrency is
/// unknown) sharding stays off entirely — returns 0.
size_t autoShardCount();

/// Applies \p Arg if it is one of the detection flags `--async-detect`,
/// `--detect-shards=N|auto` (N in [0, 64]: each shard is a thread) or
/// `--no-check-filter`; false if it is none of them.
/// A malformed shard count exits with an error.
bool parseDetectFlag(const char *Arg, DetectOptions &Opts);

/// Post-drain statistics for one sharded worker lane.
struct ShardLaneStats {
  uint64_t Events = 0;  ///< Events applied by this lane.
  uint64_t Markers = 0; ///< Sync markers applied.
  uint64_t Batches = 0; ///< Slots published to this lane's ring.
  uint64_t Stalls = 0;  ///< Producer blocked on this lane's full ring.
  uint64_t BusyNs = 0;  ///< Lane thread busy time (waits excluded).
};

/// Everything a detection run produces, whether executed or replayed:
/// the shared base of VmResult and ReplayResult.
struct DetectResult {
  bool Ok = false;
  std::string Error;
  std::vector<std::string> Output; ///< print statements, in order.
  Stats Counters;                  ///< vm.* and tool.* counters.
  std::vector<ReportedRace> ToolRaces;
  std::vector<ReportedRace> GroundTruthRaces;
  std::set<std::string> ToolRacyLocations;
  std::set<std::string> GroundTruthRacyLocations;
  /// Scheduler steps executed (identical across execution modes).
  uint64_t StatementsExecuted = 0;

  // The filter, pipeline and shard stats below are kept beside — never
  // inside — Counters, which must not differ between filter-on and
  // filter-off runs or across dispatch modes.

  /// Check-filter effectiveness for the tool detector (zeros when off).
  bool FilterEnabled = false;
  CheckFilterStats Filter;
  /// Filter metadata footprint; summed over lanes when sharded.
  uint64_t FilterTableBytes = 0;
  /// Pipelined modes only (AsyncDetect or DetectShards > 0; zero inline):
  /// busy seconds of the busiest detector thread (waits excluded; a shard
  /// lane or the oracle's thread beside the lanes), and batches handed
  /// through the rings and producer backpressure stalls, summed over
  /// every ring.
  double DetectorSeconds = 0.0;
  uint64_t DetectorBatches = 0;
  uint64_t DetectorStalls = 0;
  /// Sharded mode only (DetectShards > 0); empty/zero otherwise. Lanes in
  /// shard order.
  std::vector<ShardLaneStats> ShardLanes;
  /// Fan-out accounting: routed events go to one lane; each broadcast
  /// event is a sync edge applied once to the shared table, which stages
  /// a marker on every lane.
  uint64_t ShardRoutedEvents = 0;
  uint64_t ShardBroadcastEvents = 0;
  /// Horizon stamps applied across lanes, shared-table snapshot
  /// resolutions on check paths, snapshots published, and the table's
  /// storage footprint.
  uint64_t ShardHorizonAdvances = 0;
  uint64_t ShardTableReads = 0;
  uint64_t ShardSyncPublishes = 0;
  uint64_t ShardSyncTableBytes = 0;
  /// Sync-horizon ordering-check failures (must be zero).
  uint64_t ShardOrderViolations = 0;
};

/// The detectors of one run and the sink that feeds them. Sync mode
/// applies batches inline and the tool bumps the result's Counters
/// directly; async and sharded modes detect on worker threads into
/// private Stats that finish() merges. A sharded run with the oracle tees
/// the stream to the ShardedSink and to an AsyncSink over the oracle.
class DetectionBackend {
public:
  /// \p ToolCfg null attaches no tool detector (a base or recording-only
  /// run). \p Symbols seeds the detectors' field-id namespace and must
  /// outlive the backend, as must \p Result, which finish() fills.
  DetectionBackend(const DetectorConfig *ToolCfg, const DetectOptions &Opts,
                   const SymbolTable *Symbols, DetectResult &Result);

  /// Drains, stops and joins any detector threads.
  ~DetectionBackend();

  DetectionBackend(const DetectionBackend &) = delete;
  DetectionBackend &operator=(const DetectionBackend &) = delete;

  /// The sink the event stream feeds; null when no detector is attached.
  EventSink *sink() const { return Sink; }

  /// Call once, after the stream's last batch was delivered: drains any
  /// detector threads, merges their counters into Result.Counters, and
  /// fills Result's race, filter, pipeline and shard fields.
  void finish();

private:
  DetectResult &Result;
  /// The async tool's private Stats; the oracle's are discarded.
  Stats AsyncToolCounters;
  Stats OracleCounters;
  std::unique_ptr<RaceDetector> Tool;
  std::unique_ptr<RaceDetector> Oracle;
  DetectorSink Detectors;
  /// Declared after the detectors they feed, so destruction joins the
  /// worker threads before anything they reference dies.
  std::unique_ptr<AsyncSink> Async;
  std::unique_ptr<ShardedSink> Sharded;
  /// Sharded lanes plus the oracle's sink, when both are attached.
  TeeSink Fanout;
  EventSink *Sink = nullptr;
};

} // namespace bigfoot

#endif // BIGFOOT_EVENTS_DETECTIONBACKEND_H
