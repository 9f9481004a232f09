//===- Flags.h - Strict command-line flag values ----------------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Numeric flag parsing shared by the `bigfoot` CLI and the bench
/// binaries. A flag value is never silently coerced: anything but a
/// decimal integer in range ends the program with an error, before any
/// work (or worker thread) starts.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_SUPPORT_FLAGS_H
#define BIGFOOT_SUPPORT_FLAGS_H

#include <cstdint>

namespace bigfoot {

/// The value of numeric flag \p Arg (e.g. "--quantum=8"), which must be a
/// decimal integer in [Min, Max] and nothing else. Anything else prints
/// "bigfoot: error: --X expects an integer in [Min, Max], got '...'" and
/// exits with status 1 instead of running with a garbage value.
uint64_t parseNumericFlag(const char *Arg, uint64_t Min, uint64_t Max);

} // namespace bigfoot

#endif // BIGFOOT_SUPPORT_FLAGS_H
