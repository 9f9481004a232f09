//===- DetectionBackendTest.cpp - The one detection wiring point ----------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// DetectionBackend decides between inline, async and sharded detection
// for both online runs and replays. These tests drive it directly with a
// small racy event stream: every mode must fill the same result, the sync
// mode must count straight into the result (no per-run copy), and the
// fallbacks for runs without a tool detector must hold. The async and
// sharded legs run worker threads, so this suite is part of the TSan job.
//
//===----------------------------------------------------------------------===//

#include "events/DetectionBackend.h"

#include <gtest/gtest.h>

#include <vector>

using namespace bigfoot;

namespace {

Event event(EventKind K, ThreadId Tid, ObjectId Obj = 0, uint64_t Aux = 0) {
  Event E;
  E.Kind = K;
  E.Target = kTargetBoth;
  E.Tid = Tid;
  E.Obj = Obj;
  E.Aux = Aux;
  return E;
}

/// Thread 0 forks thread 1; both then check fields of objects 1..6, with
/// one unsynchronized write-write pair on obj#1 and lock-protected
/// accesses in between, so routed checks spread over several shards.
struct RacyStream {
  SymbolTable Symbols;
  std::vector<Event> Events;
  std::vector<uint32_t> Payload;

  void check(ThreadId Tid, ObjectId Obj, const char *Field, AccessKind A) {
    Event E = event(EventKind::FieldCheck, Tid, Obj);
    E.Access = A;
    E.PayloadIndex = static_cast<uint32_t>(Payload.size());
    E.PayloadCount = 1;
    Payload.push_back(Symbols.intern(Field));
    Events.push_back(E);
  }

  RacyStream() {
    Events.push_back(event(EventKind::ThreadBegin, 0));
    check(0, 1, "f", AccessKind::Write);
    Events.push_back(event(EventKind::Fork, 0, 0, 1));
    Events.push_back(event(EventKind::ThreadBegin, 1));
    for (ObjectId Obj = 1; Obj <= 6; ++Obj) {
      for (ThreadId Tid = 0; Tid < 2; ++Tid) {
        Events.push_back(event(EventKind::Acquire, Tid, 100));
        check(Tid, Obj, "g", AccessKind::Write);
        check(Tid, Obj, "g", AccessKind::Read);
        Events.push_back(event(EventKind::Release, Tid, 100));
      }
    }
    check(0, 1, "f", AccessKind::Write);
    check(1, 1, "f", AccessKind::Write); // Races with thread 0's write.
  }
};

/// Feeds the stream in batches of \p BatchSize.
void feed(EventSink &Sink, const RacyStream &S, size_t BatchSize) {
  for (size_t I = 0; I < S.Events.size(); I += BatchSize) {
    // The payload arena is shared by the whole stream; indices stay valid.
    size_t N = std::min(BatchSize, S.Events.size() - I);
    Sink.consumeBatch(S.Events.data() + I, N, S.Payload.data());
  }
}

/// Runs the stream through a backend under \p Opts, with shallow rings so
/// that backpressure fires in the pipelined modes.
DetectResult detect(const DetectorConfig *Tool, DetectOptions Opts) {
  RacyStream S;
  DetectResult R;
  Opts.RingBatches = 2;
  DetectionBackend Backend(Tool, Opts, &S.Symbols, R);
  if (EventSink *Sink = Backend.sink())
    feed(*Sink, S, 5);
  Backend.finish();
  return R;
}

DetectOptions withOracle(bool Async = false, size_t Shards = 0) {
  DetectOptions Opts;
  Opts.EnableGroundTruth = true;
  Opts.AsyncDetect = Async;
  Opts.DetectShards = Shards;
  return Opts;
}

void expectSameReport(const std::string &Tag, const DetectResult &A,
                      const DetectResult &B) {
  EXPECT_EQ(A.Counters.all(), B.Counters.all()) << Tag;
  EXPECT_EQ(A.ToolRacyLocations, B.ToolRacyLocations) << Tag;
  EXPECT_EQ(A.GroundTruthRacyLocations, B.GroundTruthRacyLocations) << Tag;
  ASSERT_EQ(A.ToolRaces.size(), B.ToolRaces.size()) << Tag;
  for (size_t I = 0; I < A.ToolRaces.size(); ++I)
    EXPECT_EQ(A.ToolRaces[I].str(), B.ToolRaces[I].str()) << Tag;
  ASSERT_EQ(A.GroundTruthRaces.size(), B.GroundTruthRaces.size()) << Tag;
  for (size_t I = 0; I < A.GroundTruthRaces.size(); ++I)
    EXPECT_EQ(A.GroundTruthRaces[I].str(), B.GroundTruthRaces[I].str())
        << Tag;
}

TEST(DetectionBackend, EveryModeFillsTheSameResult) {
  DetectorConfig Tool = fastTrackConfig();
  DetectResult Sync = detect(&Tool, withOracle());
  ASSERT_EQ(Sync.ToolRaces.size(), 1u);
  EXPECT_FALSE(Sync.GroundTruthRaces.empty());
  EXPECT_TRUE(Sync.FilterEnabled);
  EXPECT_TRUE(Sync.ShardLanes.empty());
  // Nothing pipelined.
  EXPECT_EQ(Sync.DetectorBatches, 0u);
  EXPECT_EQ(Sync.DetectorStalls, 0u);
  EXPECT_EQ(Sync.DetectorSeconds, 0.0);

  DetectResult Async = detect(&Tool, withOracle(/*Async=*/true));
  expectSameReport("async", Sync, Async);
  EXPECT_TRUE(Async.ShardLanes.empty());
  EXPECT_GT(Async.DetectorBatches, 0u);
  EXPECT_GT(Async.DetectorSeconds, 0.0);

  for (size_t Shards : {size_t(1), size_t(3)}) {
    std::string Tag = "shards" + std::to_string(Shards);
    // Sharding takes precedence over the async flag.
    for (bool AsyncFlag : {false, true}) {
      DetectResult Sharded = detect(&Tool, withOracle(AsyncFlag, Shards));
      expectSameReport(Tag, Sync, Sharded);
      EXPECT_EQ(Sharded.ShardLanes.size(), Shards) << Tag;
      EXPECT_EQ(Sharded.ShardOrderViolations, 0u) << Tag;
      EXPECT_GT(Sharded.DetectorBatches, 0u) << Tag;
      EXPECT_GT(Sharded.DetectorSeconds, 0.0) << Tag;
    }
  }

  DetectOptions Unfiltered = withOracle();
  Unfiltered.CheckFilter = false;
  DetectResult Off = detect(&Tool, Unfiltered);
  expectSameReport("filter-off", Sync, Off);
  EXPECT_FALSE(Off.FilterEnabled);
}

// The sync path is the hot one: the tool must bump the result's own
// Counters as events arrive, not a private map copied at the end.
TEST(DetectionBackend, SyncToolCountsStraightIntoTheResult) {
  DetectorConfig Tool = fastTrackConfig();
  RacyStream S;
  DetectResult R;
  DetectionBackend Backend(&Tool, DetectOptions(), &S.Symbols, R);
  ASSERT_NE(Backend.sink(), nullptr);
  feed(*Backend.sink(), S, 8);
  uint64_t Before = R.Counters.get("tool.checkEvents.field");
  EXPECT_GT(Before, 0u);
  Backend.finish();
  EXPECT_EQ(R.Counters.get("tool.checkEvents.field"), Before);
  EXPECT_EQ(R.DetectorSeconds, 0.0);
}

// A base run attaches nothing: no sink for the ring, and finish() leaves
// the result as it was.
TEST(DetectionBackend, NoDetectorsMeansNoSink) {
  for (bool Async : {false, true}) {
    DetectOptions Opts;
    Opts.DetectShards = 2;
    Opts.AsyncDetect = Async;
    DetectResult R;
    R.Counters.bump("vm.accesses", 7);
    DetectionBackend Backend(nullptr, Opts, nullptr, R);
    EXPECT_EQ(Backend.sink(), nullptr);
    Backend.finish();
    EXPECT_EQ(R.Counters.all().size(), 1u);
    EXPECT_TRUE(R.ToolRaces.empty());
    EXPECT_FALSE(R.FilterEnabled);
    EXPECT_EQ(R.DetectorBatches, 0u);
  }
}

// Sharding partitions the tool's locations, so an oracle-only run ignores
// the shard count and runs the oracle unsharded (its counters discarded).
TEST(DetectionBackend, OracleOnlyRunDoesNotShard) {
  DetectResult R = detect(nullptr, withOracle(/*Async=*/false, /*Shards=*/3));
  EXPECT_FALSE(R.GroundTruthRaces.empty());
  EXPECT_TRUE(R.ToolRaces.empty());
  EXPECT_TRUE(R.ShardLanes.empty());
  EXPECT_TRUE(R.Counters.all().empty());
  EXPECT_EQ(R.DetectorBatches, 0u);
}

// A sharded run with the oracle attached, destroyed mid-stream without
// finish(): the shard lanes and the oracle's own detector thread are
// joined with events still in flight. Shallow rings make teardown overlap
// busy workers, and every shard count runs several rounds so the
// sanitizer jobs see each shutdown interleaving.
TEST(DetectionBackend, ShardedOracleTeardownWithoutFinish) {
  DetectorConfig Tool = fastTrackConfig();
  RacyStream S;
  for (int Round = 0; Round < 12; ++Round) {
    DetectOptions Opts = withOracle(/*Async=*/false, 1 + size_t(Round) % 4);
    Opts.RingBatches = 2;
    DetectResult R;
    DetectionBackend Backend(&Tool, Opts, &S.Symbols, R);
    ASSERT_NE(Backend.sink(), nullptr);
    for (int Pass = 0; Pass < 4; ++Pass)
      feed(*Backend.sink(), S, 3);
  } // Destructor: drain + stop + join every thread, no finish().
}

TEST(DetectionBackend, ParsesTheDetectionFlags) {
  DetectOptions Opts;
  EXPECT_TRUE(parseDetectFlag("--async-detect", Opts));
  EXPECT_TRUE(Opts.AsyncDetect);
  EXPECT_TRUE(parseDetectFlag("--detect-shards=5", Opts));
  EXPECT_EQ(Opts.DetectShards, 5u);
  EXPECT_TRUE(parseDetectFlag("--detect-shards=auto", Opts));
  EXPECT_EQ(Opts.DetectShards, autoShardCount());
  EXPECT_TRUE(parseDetectFlag("--no-check-filter", Opts));
  EXPECT_FALSE(Opts.CheckFilter);
  // Anything else is left to the caller.
  EXPECT_FALSE(parseDetectFlag("--seed=3", Opts));
  EXPECT_FALSE(parseDetectFlag("--detect-shard=2", Opts));
}

} // namespace
