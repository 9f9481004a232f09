//===- HostSpeed.cpp - Host-speed calibration kernel ----------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "HostSpeed.h"

namespace perfbench {

HostSpeed::HostSpeed() : Code(4096), Heap(1u << 15) {
  uint64_t X = 88172645463325252ULL;
  auto Next = [&X] {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };
  for (uint8_t &C : Code)
    C = static_cast<uint8_t>(Next() % 8);
  for (uint64_t &H : Heap)
    H = Next();
}

__attribute__((noinline, aligned(64))) double HostSpeed::pass() {
  CpuTimer Tm;
  uint64_t A = 1, B = 2;
  const uint64_t Mask = Heap.size() - 1;
  for (int It = 0; It < kItersPerPass; ++It)
    for (uint8_t C : Code) {
      switch (C) {
      case 0: A += B; break;
      case 1: B ^= A >> 3; break;
      case 2: A = Heap[(A ^ B) & Mask]; break;
      case 3: Out[B & (kOutWords - 1)] = A; break;
      case 4:
        if (A & 1)
          B += 7;
        else
          A -= 3;
        break;
      case 5: A *= 0x9E3779B97F4A7C15ULL; break;
      case 6: B += Heap[A & Mask]; break;
      default: A = (A << 1) | (B >> 63); break;
      }
    }
  Sink = Sink + A + B + Out[A & (kOutWords - 1)];
  double Seconds = Tm.seconds();
  Fastest = std::min(Fastest, Seconds);
  Spent += Seconds;
  return Seconds;
}

} // namespace perfbench
