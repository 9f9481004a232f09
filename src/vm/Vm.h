//===- Vm.h - The BFJ virtual machine ---------------------------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic multithreaded interpreter for (instrumented) BFJ
/// programs — the stand-in for RoadRunner + the JVM. Threads are
/// interleaved by a seeded round-robin scheduler with randomized quanta;
/// the same seed always yields the same schedule, which the differential
/// and oracle tests rely on.
///
/// Execution is decoupled from detection by a typed event stream
/// (src/events): every detector-visible action becomes a POD Event
/// appended to a ring buffer and dispatched to sinks in batches. Two
/// consumers ride the stream:
///  * the attached RaceDetector (optional) receives synchronization events
///    and the check(C) statements the instrumenter placed — this models a
///    detector seeing only its own instrumentation;
///  * an optional ground-truth detector receives *every* heap access,
///    providing the oracle that precision tests compare against.
/// A VmOptions::RecordSink (e.g. a TraceWriter) taps the same stream for
/// record/replay; detectors never feed back into execution, so a replayed
/// stream is behaviorally identical to the online run.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_VM_VM_H
#define BIGFOOT_VM_VM_H

#include "bfj/Program.h"
#include "events/DetectionBackend.h"
#include "events/EventSink.h"
#include "runtime/Detector.h"
#include "support/Rng.h"

#include <memory>
#include <string>
#include <vector>

namespace bigfoot {

struct TraceSummary;

/// Scheduler and feature knobs for one run; the detection knobs are the
/// DetectOptions base.
struct VmOptions : DetectOptions {
  uint64_t Seed = 1;
  /// Maximum statements per scheduling quantum (actual quantum is
  /// 1 + seeded-random % Quantum).
  unsigned Quantum = 24;
  /// Abort runaway programs.
  uint64_t MaxSteps = 200u * 1000 * 1000;
  /// Commit each thread's deferred footprints every N statements
  /// (0 = only at synchronization). The Section 3.3 extension for loops
  /// that might not terminate.
  uint64_t CommitIntervalSteps = 0;
  /// Extra event-stream consumer (e.g. a TraceWriter) receiving the same
  /// batches as the attached detectors. With a sink but no detector the
  /// VM still executes placed checks (evaluating their bounds) so that a
  /// recording run is behaviorally identical to a detector-attached run.
  EventSink *RecordSink = nullptr;
  /// Execute compiled register bytecode (the default) instead of walking
  /// the statement tree. Both modes are schedule- and result-identical;
  /// the AST walker remains as a differential reference and escape hatch.
  bool UseBytecode = true;
};

/// Everything a run produces: the shared DetectResult fields plus what
/// only execution has.
struct VmResult : DetectResult {
  /// Wall-clock seconds for execution (always set): in async mode the
  /// producer's time — setup through drain start — including any
  /// backpressure stalls; in sync mode execution and detection combined.
  double VmSeconds = 0.0;

  /// The run as a trace's SUMMARY section stores it: status, output,
  /// statement count, and every counter except the detector's tool.*
  /// ones (a replay recomputes those).
  TraceSummary traceSummary() const;
};

/// Runs \p Prog to completion under \p Opts, with \p Tool attached (may be
/// a null config name "none" via runProgramBase).
VmResult runProgram(const Program &Prog, const DetectorConfig &Tool,
                    const VmOptions &Opts = VmOptions());

/// Runs without any detector attached (the "base time" configuration).
VmResult runProgramBase(const Program &Prog,
                        const VmOptions &Opts = VmOptions());

} // namespace bigfoot

#endif // BIGFOOT_VM_VM_H
