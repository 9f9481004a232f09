//===- PlacementGoldenTest.cpp - StaticBF output golden test ----------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Pins the exact output of StaticBF placement: for every input program
// (the standard suite at Test and Bench scale, the racy variants, and
// examples/bfj/*.bfj) under each of the 8 combinations of the
// UseAnticipation / CoalesceChecks / HoistLoopChecks ablations, the three
// PlacementStats counts and a 64-bit FNV-1a hash of the printed
// instrumented program must match the committed golden file. Any change
// to an entailment verdict that moves a check, a path or a rename shows
// up here.
//
// Regenerate (only legitimate when intentionally changing placement) with:
//   BIGFOOT_REGEN_GOLDEN=1 ./test_placement_golden --gtest_filter='*/0'
//
//===----------------------------------------------------------------------===//

#include "analysis/CheckPlacement.h"
#include "bfj/Parser.h"
#include "bfj/Printer.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace bigfoot;

namespace {

#ifndef BIGFOOT_SOURCE_DIR
#error "BIGFOOT_SOURCE_DIR must be defined by the build"
#endif

std::string goldenPath() {
  return std::string(BIGFOOT_SOURCE_DIR) +
         "/tests/analysis/golden/placement.golden";
}

struct Input {
  std::string Name;
  std::string Source;
};

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::vector<Input> allInputs() {
  std::vector<Input> Out;
  for (const Workload &W : standardSuite(SuiteScale::Test))
    Out.push_back({"test/" + W.Name, W.Source});
  for (const Workload &W : standardSuite(SuiteScale::Bench))
    Out.push_back({"bench/" + W.Name, W.Source});
  for (const Workload &W : racyVariants())
    Out.push_back({"racy/" + W.Name, W.Source});
  std::vector<std::filesystem::path> Examples;
  for (const auto &Entry : std::filesystem::directory_iterator(
           std::string(BIGFOOT_SOURCE_DIR) + "/examples/bfj"))
    if (Entry.path().extension() == ".bfj")
      Examples.push_back(Entry.path());
  std::sort(Examples.begin(), Examples.end());
  for (const auto &Path : Examples)
    Out.push_back({"example/" + Path.filename().string(), readFile(Path)});
  return Out;
}

uint64_t fnv1a64(const std::string &Text) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Options for ablation combination \p Combo: bit 2 = UseAnticipation,
/// bit 1 = CoalesceChecks, bit 0 = HoistLoopChecks.
PlacementOptions optionsFor(unsigned Combo) {
  PlacementOptions Opts;
  Opts.UseAnticipation = (Combo & 4) != 0;
  Opts.CoalesceChecks = (Combo & 2) != 0;
  Opts.HoistLoopChecks = (Combo & 1) != 0;
  return Opts;
}

std::string comboTag(unsigned Combo) {
  PlacementOptions Opts = optionsFor(Combo);
  return std::string("ant=") + (Opts.UseAnticipation ? "1" : "0") +
         " coal=" + (Opts.CoalesceChecks ? "1" : "0") +
         " hoist=" + (Opts.HoistLoopChecks ? "1" : "0");
}

/// One golden line per input for ablation combination \p Combo.
std::vector<std::string> renderCombo(const std::vector<Input> &Inputs,
                                     unsigned Combo) {
  std::vector<std::string> Lines;
  for (const Input &In : Inputs) {
    ParseResult PR = parseProgram(In.Source);
    if (!PR.ok()) {
      ADD_FAILURE() << In.Name << " failed to parse: " << PR.Error;
      continue;
    }
    auto Copy = PR.Prog->clone();
    PlacementStats Stats = placeBigFootChecks(*Copy, optionsFor(Combo));
    char Hash[17];
    std::snprintf(Hash, sizeof(Hash), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(printProgram(*Copy))));
    Lines.push_back(comboTag(Combo) + " " + In.Name +
                    " checks=" + std::to_string(Stats.ChecksInserted) +
                    " paths=" + std::to_string(Stats.PathsInserted) +
                    " renames=" + std::to_string(Stats.RenamesInserted) +
                    " hash=" + Hash);
  }
  return Lines;
}

std::vector<std::string> goldenLinesFor(unsigned Combo) {
  std::ifstream In(goldenPath(), std::ios::binary);
  EXPECT_TRUE(In.good()) << "missing golden file " << goldenPath()
                         << "; run with BIGFOOT_REGEN_GOLDEN=1";
  std::string Prefix = comboTag(Combo) + " ";
  std::vector<std::string> Lines;
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind(Prefix, 0) == 0)
      Lines.push_back(Line);
  return Lines;
}

class PlacementGolden : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(PlacementGolden, MatchesCommittedGolden) {
  if (std::getenv("BIGFOOT_REGEN_GOLDEN")) {
    // One instance writes the whole file so concurrent runs cannot race.
    if (GetParam() != 0)
      GTEST_SKIP() << "regenerating";
    std::vector<Input> Inputs = allInputs();
    std::ofstream Out(goldenPath(), std::ios::binary);
    ASSERT_TRUE(Out.good()) << "cannot write " << goldenPath();
    for (unsigned Combo = 0; Combo < 8; ++Combo)
      for (const std::string &Line : renderCombo(Inputs, Combo))
        Out << Line << "\n";
    GTEST_SKIP() << "regenerated golden at " << goldenPath();
  }
  std::vector<std::string> Want = goldenLinesFor(GetParam());
  std::vector<std::string> Got = renderCombo(allInputs(), GetParam());
  ASSERT_FALSE(Want.empty()) << "no golden lines for " << comboTag(GetParam());
  size_t N = std::min(Got.size(), Want.size());
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Got[I], Want[I]);
  EXPECT_EQ(Got.size(), Want.size());
}

INSTANTIATE_TEST_SUITE_P(AllAblations, PlacementGolden,
                         ::testing::Range(0u, 8u));
