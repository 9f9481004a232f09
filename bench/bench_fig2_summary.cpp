//===- bench_fig2_summary.cpp - Reproduces Figure 2 ---------------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Figure 2: the feature matrix of the five detectors and their mean
// run-time overheads (paper: FT 7.3x, RC 6.0x, SS 6.0x, SC 5.1x, BF
// 2.5x on the authors' testbed; here the shape — strict ordering with BF
// well ahead — is the reproduced claim).
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "support/TablePrinter.h"

#include <iostream>

using namespace bigfoot;

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv, kSuiteBenchOptions);
  std::vector<ExperimentResult> Results = runSuite(Args.Scale, Args.Opts);

  // The paper's five tools plus DJIT+ as an extra historical baseline
  // (Figure 2 lists FastTrack as the starting point; DJIT+ is what
  // FastTrack's epochs optimized).
  const char *Tools[] = {"djit",      "fasttrack", "redcard",
                         "slimstate", "slimcard",  "bigfoot"};
  const char *Motion[] = {"no",
                          "no",
                          "no",
                          "dynamic(arrays)",
                          "dynamic(arrays)",
                          "static+dynamic"};
  const char *Redundant[] = {"no", "no",     "static",
                             "no", "static", "static, better"};
  const char *Compression[] = {"no (full VCs)", "no",
                               "field proxies", "dynamic arrays",
                               "proxies+dynamic", "proxies+dynamic"};

  TablePrinter Table("Figure 2: detector comparison");
  Table.addRow({"Detector", "Check motion/coalescing", "Red. elim.",
                "Metadata compression", "Mean overhead", "vs FT"});
  double FtMean = 0;
  {
    std::vector<double> Ov;
    for (const ExperimentResult &R : Results)
      Ov.push_back(R.tool("fasttrack").OverheadX);
    FtMean = geomeanOverhead(Ov);
  }
  for (int T = 0; T < 6; ++T) {
    std::vector<double> Ov;
    for (const ExperimentResult &R : Results)
      Ov.push_back(R.tool(Tools[T]).OverheadX);
    double Mean = geomeanOverhead(Ov);
    Table.addRow({Tools[T], Motion[T], Redundant[T], Compression[T],
                  TablePrinter::num(Mean, 2) + "x",
                  TablePrinter::ratio(FtMean > 1e-9 ? Mean / FtMean : 1)});
  }
  Table.print(std::cout);
  std::cout << "\nPaper values on the authors' JVM testbed: 7.3x / 6.0x / "
               "6.0x / 5.1x / 2.5x.\nThe reproduced claim is the ordering "
               "and BigFoot's large relative advantage.\n";
  return 0;
}
