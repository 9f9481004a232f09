//===- bench_staticbf_scaling.cpp - StaticBF scalability (Section 6.1) -------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Section 6.1: StaticBF takes on average <0.2s per method, with about 10%
// of analysis time spent in Z3. Here we time the placement analysis per
// workload and per method, measure the share of placement time spent in
// the entailment engine, and time cold entailment queries.
//
//===----------------------------------------------------------------------===//

#include "analysis/CheckPlacement.h"
#include "bfj/Parser.h"
#include "entail/ConstraintSystem.h"
#include "harness/Experiment.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"

#include <iostream>

using namespace bigfoot;

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);

  TablePrinter Table("StaticBF analysis time");
  Table.addRow({"Program", "Methods", "Checks", "Renames", "Total(s)",
                "s/method"});
  double TotalSec = 0;
  unsigned TotalMethods = 0;
  for (const Workload &W : standardSuite(Args.Scale)) {
    auto Prog = parseProgramOrDie(W.Source.c_str());
    PlacementStats Stats;
    // Take the best of N to smooth noise.
    double Best = 1e100;
    for (int I = 0; I < Args.Opts.Iterations; ++I) {
      auto Copy = Prog->clone();
      PlacementStats S = placeBigFootChecks(*Copy);
      if (S.AnalysisSeconds < Best) {
        Best = S.AnalysisSeconds;
        Stats = S;
      }
    }
    Table.addRow({W.Name, std::to_string(Stats.MethodsProcessed),
                  std::to_string(Stats.ChecksInserted),
                  std::to_string(Stats.RenamesInserted),
                  TablePrinter::num(Best, 4),
                  TablePrinter::num(Best / Stats.MethodsProcessed, 4)});
    TotalSec += Best;
    TotalMethods += Stats.MethodsProcessed;
  }
  Table.addRow({"Total", std::to_string(TotalMethods), "", "",
                TablePrinter::num(TotalSec, 4),
                TablePrinter::num(TotalSec / TotalMethods, 4)});
  Table.print(std::cout);

  // Share of placement time spent in entailment queries (the paper's
  // "~10% in Z3" datum). A separate pass, since the profile reads the
  // clock around every query.
  double ProfiledSec = 0;
  EntailmentProfile Profile;
  for (const Workload &W : standardSuite(Args.Scale)) {
    auto Copy = parseProgramOrDie(W.Source.c_str());
    ProfiledSec += placeBigFootChecks(*Copy).AnalysisSeconds;
  }
  std::cout << "\nEntailment share of placement: "
            << TablePrinter::num(100 * Profile.seconds() / ProfiledSec, 1)
            << "% (" << TablePrinter::num(Profile.seconds(), 4) << " of "
            << TablePrinter::num(ProfiledSec, 4) << " s, "
            << Profile.queries() << " queries)\n";

  // Cold entailment queries: a fresh system per query, so no cached rows
  // or verdicts are reused.
  Timer T;
  int Queries = 20000;
  int Proven = 0;
  for (int I = 0; I < Queries; ++I) {
    ConstraintSystem CS;
    CS.addEquality(AffineExpr::variable("i"), AffineExpr::variable("i'") + 1);
    CS.addLe(AffineExpr::constant(0), AffineExpr::variable("i'"));
    CS.addLt(AffineExpr::variable("i"), AffineExpr::variable("n"));
    Proven += CS.proveLe(AffineExpr::variable("i'"),
                         AffineExpr::variable("n"))
                  ? 1
                  : 0;
  }
  double Sec = T.seconds();
  std::cout << "Entailment engine: " << Queries << " cold queries in "
            << TablePrinter::num(Sec * 1000, 1) << " ms ("
            << TablePrinter::num(Sec / Queries * 1e6, 2)
            << " us/query, all " << (Proven == Queries ? "proven" : "??")
            << ")\n";
  std::cout << "Paper shape: analysis well under 0.2 s/method, about 10% "
               "of it in the solver.\n";
  return 0;
}
