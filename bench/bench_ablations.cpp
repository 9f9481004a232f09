//===- bench_ablations.cpp - BigFoot design-choice ablations ------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Isolates each BigFoot ingredient the paper credits (Sections 3-6):
// anticipation (check motion past releases and out of loops), loop-check
// hoisting, the Section 4 coalescing step, static field proxies, and the
// dynamic footprint/compression runtime. Each row disables exactly one.
//
//===----------------------------------------------------------------------===//

#include "analysis/FieldProxy.h"
#include "bfj/Parser.h"
#include "harness/Experiment.h"
#include "instrument/Instrumenters.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"
#include "vm/Vm.h"

#include <iostream>

using namespace bigfoot;

namespace {

struct Variant {
  std::string Name;
  PlacementOptions Placement;
  bool UseProxies = true;
  bool DeferAndCompress = true;
};

std::vector<Variant> variants() {
  std::vector<Variant> Out;
  Out.push_back({"bigfoot(full)", PlacementOptions(), true, true});
  Variant NoAnt{"no-anticipation", PlacementOptions(), true, true};
  NoAnt.Placement.UseAnticipation = false;
  Out.push_back(NoAnt);
  Variant NoHoist{"no-loop-hoist", PlacementOptions(), true, true};
  NoHoist.Placement.HoistLoopChecks = false;
  Out.push_back(NoHoist);
  Variant NoCoalesce{"no-coalescing", PlacementOptions(), true, true};
  NoCoalesce.Placement.CoalesceChecks = false;
  Out.push_back(NoCoalesce);
  Out.push_back({"no-field-proxies", PlacementOptions(), false, true});
  Out.push_back({"no-dyn-compression", PlacementOptions(), true, false});
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  constexpr std::string_view Takes[] = {"--small", "--iters", "--seed"};
  BenchArgs Args = parseBenchArgs(Argc, Argv, Takes);
  // Representative workloads: structured arrays, field groups, triangular,
  // sync-heavy, irregular.
  const char *Names[] = {"crypt", "raytracer", "lufact", "tomcat",
                         "jython"};

  TablePrinter Table("BigFoot ablations (check ratio / overhead x)");
  std::vector<std::string> Header = {"Variant"};
  for (const char *N : Names)
    Header.push_back(N);
  Table.addRow(Header);

  for (const Variant &V : variants()) {
    std::vector<std::string> Row = {V.Name};
    for (const char *N : Names) {
      Workload W = workloadByName(N, Args.Scale);
      auto Prog = parseProgramOrDie(W.Source.c_str());

      VmOptions VmOpts;
      VmOpts.Seed = Args.Opts.Seed;
      double BaseSec = 1e100;
      for (int I = 0; I < Args.Opts.Iterations; ++I) {
        Timer T;
        VmResult R = runProgramBase(*Prog, VmOpts);
        if (!R.Ok) {
          std::cerr << N << " base failed: " << R.Error << "\n";
          return 1;
        }
        BaseSec = std::min(BaseSec, T.seconds());
      }

      InstrumentedProgram IP = instrumentBigFoot(*Prog, V.Placement);
      DetectorConfig Tool = IP.Tool;
      if (!V.UseProxies)
        Tool.FieldProxy.clear();
      if (!V.DeferAndCompress) {
        Tool.DeferArrayChecks = false;
        Tool.AdaptiveArrayShadow = false;
      }
      double ToolSec = 1e100;
      VmResult Run;
      for (int I = 0; I < Args.Opts.Iterations; ++I) {
        Timer T;
        Run = runProgram(*IP.Prog, Tool, VmOpts);
        if (!Run.Ok) {
          std::cerr << N << "/" << V.Name << " failed: " << Run.Error
                    << "\n";
          return 1;
        }
        ToolSec = std::min(ToolSec, T.seconds());
      }
      uint64_t Events = Run.Counters.get("tool.checkEvents.field") +
                        Run.Counters.get("tool.checkEvents.array");
      uint64_t Accesses = Run.Counters.get("vm.accesses");
      double Ratio =
          Accesses ? static_cast<double>(Events) / Accesses : 0;
      double Overhead =
          BaseSec > 0 ? (ToolSec - BaseSec) / BaseSec : 0;
      Row.push_back(TablePrinter::num(Ratio, 2) + "/" +
                    TablePrinter::num(Overhead, 2));
    }
    Table.addRow(Row);
  }
  Table.print(std::cout);
  std::cout << "\nExpected: every ablation raises the check ratio and/or "
               "overhead somewhere —\nanticipation & hoisting matter for "
               "array kernels (crypt, lufact), proxies for\nfield-group "
               "programs (raytracer), dynamic compression for everything "
               "array-shaped.\n";
  return 0;
}
