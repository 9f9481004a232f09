//===- HostSpeed.h - Host-speed calibration of the benchmark ----*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// On a shared cloud host the same binary runs up to a third slower for
// minutes at a time, longer than one benchmark run, so per-op minima alone
// cannot steady the end-to-end times across runs. Two measures do:
//
//  - CpuTimer times the calling thread's CPU time, so time the thread
//    spends descheduled (other processes, or steal time while the
//    hypervisor runs other guests) does not count. Wall-clock minima miss
//    this for ops longer than a scheduler slice.
//  - HostSpeed times a fixed calibration kernel, interleaved with the
//    benchmark's work, and scales its times by kReferenceSeconds / (the
//    kernel's fastest pass in the run): seconds at the reference host
//    speed. This cancels slower clocks and busy sibling hyperthreads. The
//    kernel shares no code with the library, so a change to the library
//    moves the scaled times exactly as much as the raw ones.
//
// The kernel is shaped like the bytecode VM's hot loop: switch dispatch
// over a fixed opcode stream with dependent loads from an L2-sized heap.
// Its work is the same on every pass. It lives in its own translation
// unit, 64-byte aligned, because the speed of so tight a loop depends on
// its code alignment, which edits to surrounding code would otherwise move.
//
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_PERFBENCH_HOSTSPEED_H
#define BIGFOOT_PERFBENCH_HOSTSPEED_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <time.h>

namespace perfbench {

/// A stopwatch over the calling thread's CPU time, in seconds.
class CpuTimer {
public:
  CpuTimer() : Start(now()) {}
  void reset() { Start = now(); }
  double seconds() const { return now() - Start; }

  static double now() {
    timespec T;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
    return static_cast<double>(T.tv_sec) + 1e-9 * static_cast<double>(T.tv_nsec);
  }

private:
  double Start;
};

class HostSpeed {
public:
  /// The kernel's fastest pass on the reference host (4-vCPU KVM guest,
  /// Xeon model 207, quiet), so that scaled times read as its seconds.
  static constexpr double kReferenceSeconds = 1.01e-3;

  HostSpeed();

  /// Runs one pass and returns its CPU seconds; keeps the fastest.
  double pass();

  /// Runs bursts of back-to-back passes, so that the later passes of a
  /// burst find the kernel's heap and branch history warm, until
  /// calibration has taken \p Share of \p Elapsed seconds (at least one
  /// burst).
  void keepShare(double Share, double Elapsed) {
    while (Spent == 0 || Spent < Share * Elapsed)
      for (int I = 0; I < kPassesPerBurst; ++I)
        pass();
  }

  double fastest() const { return Fastest; }
  /// Raw seconds scaled to the reference host speed.
  double scale(double Seconds) const {
    return Seconds * kReferenceSeconds / Fastest;
  }

private:
  static constexpr int kItersPerPass = 40;
  static constexpr int kPassesPerBurst = 4;
  static constexpr size_t kOutWords = 1024;
  std::vector<uint8_t> Code;
  std::vector<uint64_t> Heap;
  uint64_t Out[kOutWords] = {};
  volatile uint64_t Sink = 0; ///< Keeps the kernel's work observable.
  double Fastest = std::numeric_limits<double>::infinity();
  double Spent = 0;
};

} // namespace perfbench

#endif // BIGFOOT_PERFBENCH_HOSTSPEED_H
