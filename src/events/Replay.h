//===- Replay.h - Re-running a recorded event stream ------------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline analysis of a recorded trace: rebuild a detector from the
/// trace's symbol table, drain the stream through the same batch sink the
/// online path uses, and reconstitute a full run result from the trace
/// summary plus the fresh detector state. Because detectors are passive
/// consumers (they never feed back into execution), replaying a trace
/// under any config sharing its placement is behaviorally identical to
/// having attached that detector during the recording run — byte for
/// byte, which the event-stream differential test enforces.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_EVENTS_REPLAY_H
#define BIGFOOT_EVENTS_REPLAY_H

#include "events/DetectionBackend.h"
#include "events/TraceCodec.h"

#include <functional>
#include <string>
#include <vector>

namespace bigfoot {

/// Everything a replay produces: the DetectResult fields a recorded run
/// can reconstruct (the events library stays independent of the VM, so
/// this is not a VmResult). Counters hold the recorded vm.* values plus
/// the replayed tool.* ones.
struct ReplayResult : DetectResult {
  std::string Tool; ///< Name of the config the trace was replayed under.
  uint64_t EventsReplayed = 0;
};

/// A replay takes exactly the detection knobs a run does, and pipelines,
/// shards and batches with them exactly as a run would.
using ReplayOptions = DetectOptions;

/// Replays \p Reader (already open()ed) into a fresh detector built from
/// \p Tool. \p Tool may be any config sharing the recording placement —
/// the record-once/replay-many harness replays one FastTrack-placement
/// trace under fasttrack, slimstate, and djit, for example.
ReplayResult replayTrace(TraceReader &Reader, const DetectorConfig &Tool,
                         const ReplayOptions &Opts = ReplayOptions());

/// One unit of work for replayTracesParallel: an encoded trace plus the
/// config to replay it under. MakeConfig receives the trace's recorded
/// config (so callers can derive per-trace variants — the harness maps
/// one recorded placement to several detector configs); if empty, the
/// recorded config is used as-is.
struct ReplayJob {
  const std::vector<uint8_t> *Trace = nullptr; ///< Encoded BFT1 bytes.
  std::function<DetectorConfig(const DetectorConfig &Recorded)> MakeConfig;
  ReplayOptions Opts;
};

/// Replays independent recorded traces across a thread pool. Each job is
/// self-contained (own TraceReader, own detector), so jobs shard freely;
/// results land at their job's index, making the output deterministic
/// regardless of \p Threads (0 = hardware concurrency). A job with a
/// null Trace yields a default ReplayResult with an error set.
std::vector<ReplayResult>
replayTracesParallel(const std::vector<ReplayJob> &Jobs, unsigned Threads = 0);

} // namespace bigfoot

#endif // BIGFOOT_EVENTS_REPLAY_H
