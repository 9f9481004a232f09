//===- Parallel.cpp - Slot-indexed work over a thread pool ----------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

using namespace bigfoot;

void bigfoot::forEachParallel(size_t Count, unsigned Threads,
                              const std::function<void(size_t)> &Fn) {
  size_t Workers = Threads ? Threads : std::thread::hardware_concurrency();
  Workers = std::min(std::max<size_t>(Workers, 1), Count);
  if (Workers <= 1) {
    for (size_t I = 0; I < Count; ++I)
      Fn(I);
    return;
  }
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  Pool.reserve(Workers);
  for (size_t W = 0; W < Workers; ++W)
    Pool.emplace_back([&] {
      for (size_t I = Next.fetch_add(1, std::memory_order_relaxed); I < Count;
           I = Next.fetch_add(1, std::memory_order_relaxed))
        Fn(I);
    });
  for (std::thread &T : Pool)
    T.join();
}
