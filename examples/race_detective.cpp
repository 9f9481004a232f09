//===- race_detective.cpp - Finding a real bug with BigFoot -------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// A small "application" scenario: a work-sharing image filter whose
// first version forgets a barrier between the blur and sharpen phases.
// BigFoot (and every other detector) pinpoints the race; adding the
// barrier makes all of them go quiet. Demonstrates the user-facing API:
// instrument -> run -> inspect races.
//
//===----------------------------------------------------------------------===//

#include "bfj/Parser.h"
#include "instrument/Instrumenters.h"
#include "vm/Vm.h"

#include <iostream>

using namespace bigfoot;

namespace {

std::string pipeline(bool WithBarrier) {
  std::string Sync = WithBarrier ? "await bar;" : "skip;";
  return R"(
class Filter {
  fields dummy;
  method run(img, tmp, lo, hi, n, bar) {
    i = lo;
    while (i < hi) {
      left = i - 1;
      right = i + 1;
      if (left < 0) { left = 0; }
      if (right >= n) { right = n - 1; }
      a = img[left];
      b = img[i];
      c = img[right];
      tmp[i] = (a + b + c) / 3;
      i = i + 1;
    }
    )" + Sync + R"(
    i = lo;
    while (i < hi) {
      left = i - 1;
      right = i + 1;
      if (left < 0) { left = 0; }
      if (right >= n) { right = n - 1; }
      a = tmp[left];
      b = tmp[i];
      c = tmp[right];
      img[i] = 2 * b - (a + c) / 2;
      i = i + 1;
    }
  }
}
thread {
  n = 256;
  img = new_array(n);
  tmp = new_array(n);
  i = 0;
  while (i < n) {
    img[i] = (i * 31) % 200;
    i = i + 1;
  }
  bar = new_barrier(2);
  f1 = new Filter;
  f2 = new Filter;
  mid = n / 2;
  fork t1 = f1.run(img, tmp, 0, mid, n, bar);
  fork t2 = f2.run(img, tmp, mid, n, n, bar);
  join t1;
  join t2;
}
)";
}

int report(const char *Title, const std::string &Source) {
  std::cout << "=== " << Title << " ===\n";
  auto Prog = parseProgramOrDie(Source.c_str());
  int TotalRaces = 0;
  for (const ToolSpec &T : kTools) {
    InstrumentedProgram IP = instrumentTool(*Prog, T);
    VmOptions Opts;
    Opts.Seed = 7;
    VmResult Run = runProgram(*IP.Prog, IP.Tool, Opts);
    if (!Run.Ok) {
      std::cerr << IP.Tool.Name << " failed: " << Run.Error << "\n";
      return -1;
    }
    std::cout << "  " << IP.Tool.Name << ": " << Run.ToolRaces.size()
              << " race(s)";
    if (!Run.ToolRaces.empty())
      std::cout << " — e.g. " << Run.ToolRaces.front().str();
    std::cout << "\n";
    TotalRaces += static_cast<int>(Run.ToolRaces.size());
  }
  std::cout << "\n";
  return TotalRaces;
}

} // namespace

int main() {
  int Buggy = report("v1: blur/sharpen with NO barrier (buggy)",
                     pipeline(false));
  int Fixed = report("v2: with the barrier (fixed)", pipeline(true));
  if (Buggy <= 0 || Fixed != 0) {
    std::cerr << "unexpected detector results\n";
    return 1;
  }
  std::cout << "Every detector flags v1 (the halo reads cross the "
               "partition boundary before the\nother thread finished "
               "writing tmp) and certifies v2 clean.\n";
  return 0;
}
