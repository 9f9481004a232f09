//===- ReferenceRefute.h - Map-based Fourier-Motzkin oracle -----*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The first ConstraintSystem's Fourier-Motzkin refutation, kept as a
/// test-only oracle. It works over rows keyed by variable name, exactly
/// as the engine did before it moved to interned ids: the same
/// elimination choice (cheapest pos x neg, ties to the smallest name),
/// the same row order, the same MaxRows bail-out and the same per-term
/// MaxCoeff drop. The differential tests compare the engine's verdicts
/// with it, including on systems built to hit both caps.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_TESTS_ENTAIL_REFERENCEREFUTE_H
#define BIGFOOT_TESTS_ENTAIL_REFERENCEREFUTE_H

#include "support/AffineExpr.h"

#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <vector>

namespace bigfoot::reference {

constexpr size_t MaxRows = 4096;
constexpr int64_t MaxCoeff = int64_t(1) << 48;

/// Terms + Constant <= 0.
struct Row {
  std::map<std::string, int64_t> Terms;
  int64_t Constant = 0;
};

/// The row L - R <= 0.
inline Row rowFromLe(const AffineExpr &L, const AffineExpr &R) {
  AffineExpr Diff = L - R;
  return {Diff.terms(), Diff.constantPart()};
}

/// What one refutation ran into, so a test can show its inputs reach
/// each cap and each tie.
struct Outcome {
  bool Refuted = false;
  bool HitMaxRows = false;
  unsigned CoeffDrops = 0;
  /// Eliminations whose cheapest cost was shared by several variables.
  unsigned Ties = 0;
};

inline Outcome refute(std::vector<Row> Rows) {
  Outcome Out;
  auto Tighten = [](Row &R) {
    int64_t G = 0;
    for (const auto &[Name, Coeff] : R.Terms)
      G = std::gcd(G, Coeff < 0 ? -Coeff : Coeff);
    if (G > 1) {
      for (auto &[Name, Coeff] : R.Terms)
        Coeff /= G;
      // Terms + C <= 0 ⇔ Terms/G <= -C/G ⇒ Terms/G <= floor(-C/G).
      int64_t NegC = -R.Constant;
      int64_t Floored = NegC >= 0 ? NegC / G : -((-NegC + G - 1) / G);
      R.Constant = -Floored;
    }
  };
  for (Row &R : Rows)
    Tighten(R);

  while (true) {
    // Contradiction: a row with no variables and positive constant.
    for (const Row &R : Rows)
      if (R.Terms.empty() && R.Constant > 0) {
        Out.Refuted = true;
        return Out;
      }

    // Pick the variable with the cheapest elimination.
    std::map<std::string, std::pair<size_t, size_t>> Counts;
    for (const Row &R : Rows)
      for (const auto &[Name, Coeff] : R.Terms) {
        if (Coeff > 0)
          Counts[Name].first++;
        else
          Counts[Name].second++;
      }
    if (Counts.empty())
      return Out;
    std::string Best;
    size_t BestCost = SIZE_MAX;
    unsigned AtBest = 0;
    for (const auto &[Name, PN] : Counts) {
      size_t Cost = PN.first * PN.second;
      if (Cost < BestCost) {
        BestCost = Cost;
        Best = Name;
        AtBest = 1;
      } else if (Cost == BestCost) {
        ++AtBest;
      }
    }
    if (AtBest > 1)
      ++Out.Ties;

    std::vector<Row> Pos, Neg, Rest;
    for (Row &R : Rows) {
      auto It = R.Terms.find(Best);
      if (It == R.Terms.end())
        Rest.push_back(std::move(R));
      else if (It->second > 0)
        Pos.push_back(std::move(R));
      else
        Neg.push_back(std::move(R));
    }

    std::vector<Row> Next = std::move(Rest);
    bool Overflow = false;
    for (const Row &P : Pos) {
      for (const Row &N : Neg) {
        int64_t CP = P.Terms.at(Best);  // > 0
        int64_t CN = -N.Terms.at(Best); // > 0
        Row Combined;
        auto Accumulate = [&](const Row &Src, int64_t Scale) {
          for (const auto &[Name, Coeff] : Src.Terms) {
            if (Name == Best)
              continue;
            __int128 V = static_cast<__int128>(Combined.Terms[Name]) +
                         static_cast<__int128>(Coeff) * Scale;
            if (V > MaxCoeff || V < -MaxCoeff) {
              Overflow = true;
              return;
            }
            int64_t NV = static_cast<int64_t>(V);
            if (NV == 0)
              Combined.Terms.erase(Name);
            else
              Combined.Terms[Name] = NV;
          }
          __int128 C = static_cast<__int128>(Combined.Constant) +
                       static_cast<__int128>(Src.Constant) * Scale;
          if (C > MaxCoeff || C < -MaxCoeff) {
            Overflow = true;
            return;
          }
          Combined.Constant = static_cast<int64_t>(C);
        };
        Accumulate(P, CN);
        if (!Overflow)
          Accumulate(N, CP);
        if (Overflow) {
          Overflow = false;
          ++Out.CoeffDrops;
          continue; // Dropping a derived row only weakens the refutation.
        }
        Tighten(Combined);
        if (Combined.Terms.empty()) {
          if (Combined.Constant > 0) {
            Out.Refuted = true;
            return Out;
          }
          continue; // Satisfied constant row carries no information.
        }
        Next.push_back(std::move(Combined));
        if (Next.size() > MaxRows) {
          Out.HitMaxRows = true;
          return Out; // Bail out: unproven.
        }
      }
    }
    Rows = std::move(Next);
  }
}

} // namespace bigfoot::reference

#endif // BIGFOOT_TESTS_ENTAIL_REFERENCEREFUTE_H
