//===- ThreadEvents.h - Per-thread view of the event stream -----*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test-side view of a run's typed event stream (VmOptions::RecordSink,
/// with EnableGroundTruth on so that every heap access is on it), split
/// by thread into the four kinds Section 2 reasons about:
///
///  * an oracle-targeted check is an access, a tool-targeted check is a
///    check (one per field of a coalesced field check, one per element
///    of an array range);
///  * Acquire, Join and VolatileRead are acquires;
///  * Release, Fork and VolatileWrite are releases;
///  * a Barrier is a release followed by an acquire for each party.
///
/// Section 2's precision oracle runs over that projection: every access
/// needs a covering check and every check must be legitimate for some
/// access.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_TESTS_COMMON_THREADEVENTS_H
#define BIGFOOT_TESTS_COMMON_THREADEVENTS_H

#include "events/EventSink.h"
#include "support/LocKey.h"
#include "support/Symbol.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace bigfoot {

/// One entry of a thread's projection. An access or check names one
/// concrete location: a field of object Obj, or element Elem of array
/// Obj.
struct ThreadEvent {
  enum class Kind { Access, Check, Acquire, Release };
  Kind K = Kind::Access;
  AccessKind Access = AccessKind::Read;
  bool OnArray = false;
  ObjectId Obj = 0;
  FieldId Field = kNoSym;
  int64_t Elem = 0;

  bool sameLoc(const ThreadEvent &O) const {
    return OnArray == O.OnArray && Obj == O.Obj &&
           (OnArray ? Elem == O.Elem : Field == O.Field);
  }
};

/// Collects the per-thread projection of every batch it is fed.
class ThreadEventCollector final : public EventSink {
public:
  /// \p Symbols (the run's program table) renders field names.
  explicit ThreadEventCollector(SymbolTable Symbols)
      : Syms(std::move(Symbols)) {}

  void consumeBatch(const Event *Events, size_t N,
                    const uint32_t *Payload) override {
    for (size_t I = 0; I < N; ++I) {
      const Event &E = Events[I];
      const uint32_t *Words = Payload + E.PayloadIndex;
      switch (E.Kind) {
      case EventKind::FieldCheck:
        for (uint32_t W = 0; W < E.PayloadCount; ++W) {
          ThreadEvent T = located(E);
          T.Field = Words[W];
          add(E.Tid, T);
        }
        break;
      case EventKind::ArrayCheck:
        for (int64_t Elem = E.Begin; Elem < E.End; Elem += E.Stride) {
          ThreadEvent T = located(E);
          T.OnArray = true;
          T.Elem = Elem;
          add(E.Tid, T);
        }
        break;
      case EventKind::Acquire:
      case EventKind::Join:
      case EventKind::VolatileRead:
        sync(E.Tid, ThreadEvent::Kind::Acquire);
        break;
      case EventKind::Release:
      case EventKind::Fork:
      case EventKind::VolatileWrite:
        sync(E.Tid, ThreadEvent::Kind::Release);
        break;
      case EventKind::Barrier:
        for (uint32_t W = 0; W < E.PayloadCount; ++W) {
          sync(Words[W], ThreadEvent::Kind::Release);
          sync(Words[W], ThreadEvent::Kind::Acquire);
        }
        break;
      default:
        break;
      }
    }
  }

  /// Each thread's events, indexed by thread id (empty for a thread that
  /// did nothing visible).
  const std::vector<std::vector<ThreadEvent>> &threads() const {
    return ByThread;
  }

  size_t count(ThreadEvent::Kind K) const {
    size_t N = 0;
    for (const auto &T : ByThread)
      for (const ThreadEvent &E : T)
        N += E.K == K ? 1 : 0;
    return N;
  }

  /// "obj#4.f" or "arr#7[3]".
  std::string loc(const ThreadEvent &E) const {
    return E.OnArray ? lockey::arrayElem(E.Obj, E.Elem)
                     : lockey::objField(E.Obj, Syms.name(E.Field));
  }

private:
  SymbolTable Syms;
  std::vector<std::vector<ThreadEvent>> ByThread;

  static ThreadEvent located(const Event &E) {
    ThreadEvent T;
    T.K = E.Target & kTargetOracle ? ThreadEvent::Kind::Access
                                   : ThreadEvent::Kind::Check;
    T.Access = E.Access;
    T.Obj = E.Obj;
    return T;
  }

  void add(ThreadId Tid, const ThreadEvent &E) {
    if (Tid >= ByThread.size())
      ByThread.resize(Tid + 1);
    ByThread[Tid].push_back(E);
  }

  void sync(ThreadId Tid, ThreadEvent::Kind K) {
    ThreadEvent E;
    E.K = K;
    add(Tid, E);
  }
};

/// Runs \p Prog under \p Tool with the ground-truth events on (without
/// them the stream carries no accesses) and returns each thread's
/// projection of the stream.
inline ThreadEventCollector collectThreadEvents(const Program &Prog,
                                                const DetectorConfig &Tool,
                                                VmOptions Opts = VmOptions()) {
  Prog.ensureInterned();
  ThreadEventCollector Events(Prog.symbols());
  Opts.EnableGroundTruth = true;
  Opts.RecordSink = &Events;
  VmResult Run = runProgram(Prog, Tool, Opts);
  EXPECT_TRUE(Run.Ok) << Run.Error;
  return Events;
}

/// Section 2, checked literally over each thread's projection. A check
/// COVERS an access to the same location if it precedes it with no
/// intervening release or succeeds it with no intervening acquire; a
/// check is LEGITIMATE for an access if it precedes it with no
/// intervening acquire or succeeds it with no intervening release. Write
/// checks cover reads and writes but are legitimate only for writes;
/// read checks cover only reads but are legitimate for both (Section 5).
/// Fails on the first uncovered access or, when \p Legitimacy is set,
/// the first illegitimate check.
inline ::testing::AssertionResult
checksArePrecise(const ThreadEventCollector &Events, bool Legitimacy = true) {
  using Kind = ThreadEvent::Kind;
  auto Covers = [](const ThreadEvent &Check, const ThreadEvent &Access) {
    return Check.K == Kind::Check && Check.sameLoc(Access) &&
           (Check.Access == AccessKind::Write ||
            Access.Access == AccessKind::Read);
  };
  auto LegitFor = [](const ThreadEvent &Check, const ThreadEvent &Access) {
    return Access.K == Kind::Access && Check.sameLoc(Access) &&
           (Check.Access == AccessKind::Read ||
            Access.Access == AccessKind::Write);
  };
  // Whether some event before I (up to a \p Before fence) or after it (up
  // to an \p After fence) matches \p Match.
  auto Window = [](const std::vector<ThreadEvent> &T, size_t I, Kind Before,
                   Kind After, auto Match) {
    for (size_t J = I; J-- > 0 && T[J].K != Before;)
      if (Match(T[J]))
        return true;
    for (size_t J = I + 1; J < T.size() && T[J].K != After; ++J)
      if (Match(T[J]))
        return true;
    return false;
  };
  const auto &Threads = Events.threads();
  for (size_t Tid = 0; Tid < Threads.size(); ++Tid) {
    const std::vector<ThreadEvent> &T = Threads[Tid];
    for (size_t I = 0; I < T.size(); ++I) {
      const ThreadEvent &E = T[I];
      const char *What = E.Access == AccessKind::Read ? "read" : "write";
      if (E.K == Kind::Access &&
          !Window(T, I, Kind::Release, Kind::Acquire,
                  [&](const ThreadEvent &C) { return Covers(C, E); }))
        return ::testing::AssertionFailure()
               << "uncovered " << What << " of " << Events.loc(E)
               << " by thread " << Tid;
      if (Legitimacy && E.K == Kind::Check &&
          !Window(T, I, Kind::Release, Kind::Acquire,
                  [&](const ThreadEvent &A) { return LegitFor(E, A); }))
        return ::testing::AssertionFailure()
               << "illegitimate " << What << " check of " << Events.loc(E)
               << " by thread " << Tid;
    }
  }
  return ::testing::AssertionSuccess();
}

} // namespace bigfoot

#endif // BIGFOOT_TESTS_COMMON_THREADEVENTS_H
