//===- Parallel.h - Slot-indexed work over a thread pool --------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one thread pool of the harness and of parallel trace replay: an
/// atomic-index pool over independent, slot-indexed work items.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_SUPPORT_PARALLEL_H
#define BIGFOOT_SUPPORT_PARALLEL_H

#include <cstddef>
#include <functional>

namespace bigfoot {

/// Runs Fn(0..Count) over a fixed pool of \p Threads threads (0 = one per
/// hardware thread; never more than Count). Each worker claims the next
/// unstarted index, so a slow item never serializes the rest behind a
/// static partition. Items must be independent and write disjoint state,
/// such as a pre-sized slot per index; then completion order never
/// affects the results.
void forEachParallel(size_t Count, unsigned Threads,
                     const std::function<void(size_t)> &Fn);

} // namespace bigfoot

#endif // BIGFOOT_SUPPORT_PARALLEL_H
