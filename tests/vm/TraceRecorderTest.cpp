//===- TraceRecorderTest.cpp - Event order on the recorded stream ---------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// What the VM puts on the typed event stream a VmOptions::RecordSink
// receives, and in which order, seen through each thread's projection
// (tests/common/ThreadEvents.h): accesses (the ground-truth oracle's
// events), checks, and synchronization as acquires and releases.
//
//===----------------------------------------------------------------------===//

#include "common/ThreadEvents.h"

#include "bfj/Parser.h"
#include "instrument/Instrumenters.h"

#include <gtest/gtest.h>

using namespace bigfoot;

namespace {

using Kind = ThreadEvent::Kind;

/// Runs \p Source under \p Tool's placement with the stream collected.
ThreadEventCollector runCollected(const char *Source,
                                  const char *Tool = "fasttrack") {
  auto Prog = parseProgramOrDie(Source);
  InstrumentedProgram IP = instrumentTool(*Prog, *findTool(Tool));
  return collectThreadEvents(*IP.Prog, IP.Tool);
}

} // namespace

TEST(TraceRecorder, RecordsAccessesChecksAndSync) {
  ThreadEventCollector R = runCollected(R"(
class C { fields f; }
thread {
  o = new C;
  acq(o);
  o.f = 1;
  t = o.f;
  rel(o);
}
)");
  EXPECT_EQ(R.count(Kind::Access), 2u);
  EXPECT_EQ(R.count(Kind::Check), 2u);
  EXPECT_EQ(R.count(Kind::Acquire), 1u);
  EXPECT_EQ(R.count(Kind::Release), 1u);
}

TEST(TraceRecorder, ChecksPrecedeAccessesUnderFastTrack) {
  ThreadEventCollector R = runCollected(R"(
class C { fields f; }
thread {
  o = new C;
  o.f = 7;
}
)");
  // Exactly one check immediately before the access.
  ASSERT_EQ(R.threads().size(), 1u);
  const std::vector<ThreadEvent> &T = R.threads()[0];
  ASSERT_EQ(T.size(), 2u);
  EXPECT_EQ(T[0].K, Kind::Check);
  EXPECT_EQ(T[1].K, Kind::Access);
  EXPECT_TRUE(T[0].sameLoc(T[1]));
  EXPECT_EQ(T[0].Access, AccessKind::Write);
}

TEST(TraceRecorder, LocationKeysAreConcrete) {
  ThreadEventCollector R = runCollected(R"(
thread {
  a = new_array(4);
  a[2] = 9;
}
)");
  bool SawElem = false;
  for (const ThreadEvent &E : R.threads()[0])
    if (E.K == Kind::Access)
      SawElem = E.OnArray && E.Elem == 2;
  EXPECT_TRUE(SawElem);
}

TEST(TraceRecorder, VolatileAccessesBecomeSyncEvents) {
  ThreadEventCollector R = runCollected(R"(
class C {
  fields d;
  volatile fields v;
}
thread {
  o = new C;
  o.v = 1;
  t = o.v;
}
)");
  ASSERT_EQ(R.threads().size(), 1u);
  const std::vector<ThreadEvent> &T = R.threads()[0];
  ASSERT_EQ(T.size(), 2u);
  EXPECT_EQ(T[0].K, Kind::Release); // Volatile write.
  EXPECT_EQ(T[1].K, Kind::Acquire); // Volatile read.
}

TEST(TraceRecorder, BarrierEmitsReleaseThenAcquirePerParty) {
  ThreadEventCollector R = runCollected(R"(
class W {
  fields dummy;
  method run(b) {
    await b;
  }
}
thread {
  b = new_barrier(2);
  w1 = new W;
  w2 = new W;
  fork t1 = w1.run(b);
  fork t2 = w2.run(b);
  join t1;
  join t2;
}
)",
                                        "bigfoot");
  // Releases: 2 forks (main) + 2 barrier arrivals. Acquires: 2 barrier
  // passes + 2 joins (main).
  EXPECT_EQ(R.count(Kind::Release), 4u);
  EXPECT_EQ(R.count(Kind::Acquire), 4u);
  ASSERT_EQ(R.threads().size(), 3u);
  for (ThreadId Party : {1u, 2u}) {
    const std::vector<ThreadEvent> &T = R.threads()[Party];
    ASSERT_EQ(T.size(), 2u) << "thread " << Party;
    EXPECT_EQ(T[0].K, Kind::Release) << "thread " << Party;
    EXPECT_EQ(T[1].K, Kind::Acquire) << "thread " << Party;
  }
}

TEST(TraceRecorder, RangeChecksExpandPerElement) {
  ThreadEventCollector R = runCollected(R"(
thread {
  n = 6;
  a = new_array(n);
  i = 0;
  while (i < n) {
    a[i] = i;
    i = i + 1;
  }
}
)",
                                        "bigfoot");
  // The single coalesced range check covers one element per access, so
  // the oracle can match accesses exactly.
  EXPECT_EQ(R.count(Kind::Check), 6u);
  EXPECT_EQ(R.count(Kind::Access), 6u);
  EXPECT_TRUE(checksArePrecise(R));
}
