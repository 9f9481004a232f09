//===- Flags.cpp - Strict command-line flag values ------------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "support/Flags.h"

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

using namespace bigfoot;

uint64_t bigfoot::parseNumericFlag(const char *Arg, uint64_t Min,
                                   uint64_t Max) {
  const char *Value = std::strchr(Arg, '=') + 1;
  uint64_t N = 0;
  bool Ok = *Value != '\0';
  for (const char *C = Value; Ok && *C; ++C) {
    unsigned Digit = static_cast<unsigned>(*C - '0');
    if (Digit > 9 || N > (UINT64_MAX - Digit) / 10)
      Ok = false;
    else
      N = N * 10 + Digit;
  }
  if (!Ok || N < Min || N > Max) {
    std::cerr << "bigfoot: error: " << std::string(Arg, Value - 1)
              << " expects an integer in [" << Min << ", " << Max
              << "], got '" << Value << "'\n";
    std::exit(1);
  }
  return N;
}
