//===- Rng.h - Deterministic pseudo-random numbers --------------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small SplitMix64 generator. Used for seeded scheduler preemption,
/// workload data, and property-test program generation, so that every run
/// with the same seed is bit-identical.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_SUPPORT_RNG_H
#define BIGFOOT_SUPPORT_RNG_H

#include <cassert>
#include <cstdint>

namespace bigfoot {

/// Deterministic 64-bit generator (SplitMix64).
class Rng {
public:
  explicit Rng(uint64_t Seed = 0x9e3779b97f4a7c15ULL) : State(Seed) {}

  uint64_t next() {
    State += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

  /// Uniform value in [0, Bound). \p Bound must be positive.
  uint64_t nextBelow(uint64_t Bound) {
    assert(Bound > 0 && "nextBelow requires a positive bound");
    return next() % Bound;
  }

  /// Uniform value in [Lo, Hi] inclusive.
  int64_t nextInRange(int64_t Lo, int64_t Hi) {
    assert(Lo <= Hi && "empty range");
    return Lo + static_cast<int64_t>(
                    nextBelow(static_cast<uint64_t>(Hi - Lo + 1)));
  }

  /// True with probability Num/Den.
  bool chance(uint64_t Num, uint64_t Den) { return nextBelow(Den) < Num; }

private:
  uint64_t State;
};

} // namespace bigfoot

#endif // BIGFOOT_SUPPORT_RNG_H
