//===- bench_table1_overhead.cpp - Reproduces Table 1 ------------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Table 1 of the paper: per program — methods optimized, StaticBF time,
// BigFoot check ratio, base time, the absolute overhead of each checker,
// and each checker's overhead relative to FastTrack. Means follow the
// paper: arithmetic for StaticBF time and check ratios, geometric for
// overheads.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "support/TablePrinter.h"

#include <iostream>

using namespace bigfoot;

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv, kSuiteBenchOptions);
  std::vector<ExperimentResult> Results = runSuite(Args.Scale, Args.Opts);

  TablePrinter Table("Table 1: checker performance");
  Table.addRow({"Program", "Methods", "Static(s)", "BF CheckRatio",
                "Base(s)", "FT(x)", "RC(x)", "SS(x)", "SC(x)", "BF(x)",
                "BF/FT"});

  std::vector<double> FtOv, RcOv, SsOv, ScOv, BfOv, Ratios, Statics;
  for (const ExperimentResult &R : Results) {
    const ToolMetrics &Ft = R.tool("fasttrack");
    const ToolMetrics &Rc = R.tool("redcard");
    const ToolMetrics &Ss = R.tool("slimstate");
    const ToolMetrics &Sc = R.tool("slimcard");
    const ToolMetrics &Bf = R.tool("bigfoot");
    double Rel = Ft.OverheadX > 1e-9 ? Bf.OverheadX / Ft.OverheadX : 1.0;
    Table.addRow({R.Workload, std::to_string(R.MethodsProcessed),
                  TablePrinter::num(R.StaticSeconds, 3),
                  TablePrinter::num(Bf.CheckRatio, 2),
                  TablePrinter::num(R.BaseSeconds, 3),
                  TablePrinter::num(Ft.OverheadX, 2),
                  TablePrinter::num(Rc.OverheadX, 2),
                  TablePrinter::num(Ss.OverheadX, 2),
                  TablePrinter::num(Sc.OverheadX, 2),
                  TablePrinter::num(Bf.OverheadX, 2),
                  TablePrinter::ratio(Rel)});
    FtOv.push_back(Ft.OverheadX);
    RcOv.push_back(Rc.OverheadX);
    SsOv.push_back(Ss.OverheadX);
    ScOv.push_back(Sc.OverheadX);
    BfOv.push_back(Bf.OverheadX);
    Ratios.push_back(Bf.CheckRatio);
    Statics.push_back(R.StaticSeconds);
  }
  double MeanRatio = 0, MeanStatic = 0;
  for (double V : Ratios)
    MeanRatio += V;
  for (double V : Statics)
    MeanStatic += V;
  MeanRatio /= static_cast<double>(Ratios.size());
  MeanStatic /= static_cast<double>(Statics.size());
  double GFt = geomeanOverhead(FtOv);
  double GBf = geomeanOverhead(BfOv);
  Table.addRow({"Mean", "", TablePrinter::num(MeanStatic, 3),
                TablePrinter::num(MeanRatio, 2), "",
                TablePrinter::num(GFt, 2),
                TablePrinter::num(geomeanOverhead(RcOv), 2),
                TablePrinter::num(geomeanOverhead(SsOv), 2),
                TablePrinter::num(geomeanOverhead(ScOv), 2),
                TablePrinter::num(GBf, 2),
                TablePrinter::ratio(GFt > 1e-9 ? GBf / GFt : 1.0)});
  Table.print(std::cout);

  std::cout << "\nPaper shape: mean BF check ratio ~0.43; overhead order "
               "FT >= RC ~ SS >= SC > BF;\nBF at a fraction of FT's "
               "overhead (paper: 0.39 of FT).\n";
  return 0;
}
