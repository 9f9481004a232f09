//===- ConstraintSystemTest.cpp - Entailment engine tests -------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "entail/ConstraintSystem.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

using namespace bigfoot;

namespace {
AffineExpr v(const char *Name) { return AffineExpr::variable(Name); }
AffineExpr c(int64_t Value) { return AffineExpr::constant(Value); }
} // namespace

TEST(ConstraintSystem, ProvesTautologies) {
  ConstraintSystem CS;
  EXPECT_TRUE(CS.proveLe(c(1), c(2)));
  EXPECT_TRUE(CS.proveEq(v("i"), v("i")));
  EXPECT_FALSE(CS.proveLe(c(2), c(1)));
  EXPECT_FALSE(CS.proveEq(v("i"), v("j")));
}

TEST(ConstraintSystem, EqualityPropagates) {
  // The paper's example: {z[i] accessed, i = j} |- z[j] accessed needs
  // i == j.
  ConstraintSystem CS;
  CS.addEquality(v("i"), v("j"));
  EXPECT_TRUE(CS.proveEq(v("i"), v("j")));
  EXPECT_TRUE(CS.proveEq(v("i") + 3, v("j") + 3));
  EXPECT_FALSE(CS.proveEq(v("i"), v("j") + 1));
}

TEST(ConstraintSystem, EqualityChains) {
  ConstraintSystem CS;
  CS.addEquality(v("a"), v("b"));
  CS.addEquality(v("b"), v("c"));
  EXPECT_TRUE(CS.equivVars("a", "c"));
}

TEST(ConstraintSystem, OffsetEqualities) {
  // The loop back-edge fact i = i' + 1 (Figure 6b).
  ConstraintSystem CS;
  CS.addEquality(v("i"), v("i'") + 1);
  EXPECT_TRUE(CS.proveEq(v("i") - 1, v("i'")));
  EXPECT_TRUE(CS.proveLe(v("i'"), v("i")));
  EXPECT_TRUE(CS.proveLt(v("i'"), v("i")));
  EXPECT_FALSE(CS.proveLe(v("i"), v("i'")));
}

TEST(ConstraintSystem, TransitiveBounds) {
  ConstraintSystem CS;
  CS.addLe(v("i"), v("j"));
  CS.addLe(v("j"), v("k"));
  EXPECT_TRUE(CS.proveLe(v("i"), v("k")));
  EXPECT_FALSE(CS.proveLe(v("k"), v("i")));
}

TEST(ConstraintSystem, StrictBoundArithmetic) {
  ConstraintSystem CS;
  CS.addLt(v("i"), v("n"));
  EXPECT_TRUE(CS.proveLe(v("i") + 1, v("n")));
  EXPECT_TRUE(CS.proveLt(v("i") - 2, v("n")));
}

TEST(ConstraintSystem, CombinesScaledFacts) {
  ConstraintSystem CS;
  CS.addLe(v("x") * 2, v("y"));
  CS.addLe(v("y"), c(10));
  EXPECT_TRUE(CS.proveLe(v("x"), c(5)));
}

TEST(ConstraintSystem, DetectsInconsistency) {
  ConstraintSystem CS;
  CS.addLt(v("i"), c(0));
  CS.addLe(c(0), v("i"));
  EXPECT_TRUE(CS.inconsistent());
}

TEST(ConstraintSystem, ConsistentSystemNotFlagged) {
  ConstraintSystem CS;
  CS.addLe(c(0), v("i"));
  CS.addLt(v("i"), v("n"));
  EXPECT_FALSE(CS.inconsistent());
}

TEST(ConstraintSystem, FieldAliasCongruence) {
  // x = a.f, y = a.f  |-  x = y (Section 5's alias-expression example).
  ConstraintSystem CS;
  CS.addFieldAlias("x", "a", "f");
  CS.addFieldAlias("y", "a", "f");
  EXPECT_TRUE(CS.equivVars("x", "y"));
  EXPECT_FALSE(CS.equivVars("x", "a"));
}

TEST(ConstraintSystem, FieldAliasDifferentFieldsDistinct) {
  ConstraintSystem CS;
  CS.addFieldAlias("x", "a", "f");
  CS.addFieldAlias("y", "a", "g");
  EXPECT_FALSE(CS.equivVars("x", "y"));
}

TEST(ConstraintSystem, AliasThroughEqualBases) {
  // a = b, x = a.f, y = b.f  |-  x = y (needs congruence).
  ConstraintSystem CS;
  CS.addEquality(v("a"), v("b"));
  CS.addFieldAlias("x", "a", "f");
  CS.addFieldAlias("y", "b", "f");
  EXPECT_TRUE(CS.equivVars("x", "y"));
}

TEST(ConstraintSystem, NestedAliasCongruence) {
  // x = a.f, y = a.f, s = x.g, t = y.g  |-  s = t (two-level chain, the
  // extended-path case RedCard and StaticBF track).
  ConstraintSystem CS;
  CS.addFieldAlias("x", "a", "f");
  CS.addFieldAlias("y", "a", "f");
  CS.addFieldAlias("s", "x", "g");
  CS.addFieldAlias("t", "y", "g");
  EXPECT_TRUE(CS.equivVars("s", "t"));
}

TEST(ConstraintSystem, ArrayAliasCongruence) {
  ConstraintSystem CS;
  CS.addArrayAlias("x", "arr", v("i"));
  CS.addArrayAlias("y", "arr", v("j"));
  EXPECT_FALSE(CS.equivVars("x", "y"));
  CS.addEquality(v("i"), v("j"));
  EXPECT_TRUE(CS.equivVars("x", "y"));
}

TEST(ConstraintSystem, DisequalityFromConstants) {
  ConstraintSystem CS;
  CS.addEquality(v("i"), c(3));
  CS.addEquality(v("j"), c(5));
  EXPECT_TRUE(CS.proveNe(v("i"), v("j")));
  EXPECT_FALSE(CS.proveEq(v("i"), v("j")));
}

TEST(ConstraintSystem, DisequalityFromRecordedFact) {
  ConstraintSystem CS;
  CS.addNe(v("i"), v("j"));
  EXPECT_TRUE(CS.proveNe(v("i"), v("j")));
  EXPECT_TRUE(CS.proveNe(v("j"), v("i")));
  EXPECT_FALSE(CS.proveNe(v("i"), v("k")));
}

TEST(ConstraintSystem, RangeSubsetBasicBounds) {
  // {i < n, 0 <= i}: [0..i] subset of [0..n].
  ConstraintSystem CS;
  CS.addLt(v("i"), v("n"));
  CS.addLe(c(0), v("i"));
  SymbolicRange Sub(c(0), v("i"));
  SymbolicRange Sup(c(0), v("n"));
  EXPECT_TRUE(CS.proveRangeSubset(Sub, Sup));
  EXPECT_FALSE(CS.proveRangeSubset(Sup, Sub));
}

TEST(ConstraintSystem, RangeSubsetPaperAnticipation) {
  // {i < 10} • {x[0..10]} |- x[0..i] (Section 3.4's example).
  ConstraintSystem CS;
  CS.addLt(v("i"), c(10));
  EXPECT_TRUE(
      CS.proveRangeSubset(SymbolicRange(c(0), v("i")),
                          SymbolicRange(c(0), c(10))));
}

TEST(ConstraintSystem, RangeSubsetEmptySubAlwaysHolds) {
  ConstraintSystem CS;
  CS.addEquality(v("i"), c(0));
  // [i..i) is empty, subset of anything, even a disjoint range.
  EXPECT_TRUE(CS.proveRangeSubset(SymbolicRange(v("i"), v("i")),
                                  SymbolicRange(c(100), c(200))));
}

TEST(ConstraintSystem, RangeSubsetStrideDivisibility) {
  ConstraintSystem CS;
  // Stride 4 range within stride 2 range: OK when aligned.
  EXPECT_TRUE(CS.proveRangeSubset(SymbolicRange(c(0), c(100), 4),
                                  SymbolicRange(c(0), c(100), 2)));
  // Stride 2 within stride 4: not a subset.
  EXPECT_FALSE(CS.proveRangeSubset(SymbolicRange(c(0), c(100), 2),
                                   SymbolicRange(c(0), c(100), 4)));
  // Misaligned same-stride: offset 1 not divisible by 2.
  EXPECT_FALSE(CS.proveRangeSubset(SymbolicRange(c(1), c(100), 2),
                                   SymbolicRange(c(0), c(100), 2)));
  // Aligned offset: offset 4 divisible by 2.
  EXPECT_TRUE(CS.proveRangeSubset(SymbolicRange(c(4), c(50), 2),
                                  SymbolicRange(c(0), c(100), 2)));
}

TEST(ConstraintSystem, RangeSubsetSymbolicStride1) {
  ConstraintSystem CS;
  CS.addLe(v("lo2"), v("lo1"));
  CS.addLe(v("hi1"), v("hi2"));
  EXPECT_TRUE(CS.proveRangeSubset(SymbolicRange(v("lo1"), v("hi1")),
                                  SymbolicRange(v("lo2"), v("hi2"))));
}

TEST(ConstraintSystem, UnprovableWithoutFacts) {
  ConstraintSystem CS;
  EXPECT_FALSE(CS.proveRangeSubset(SymbolicRange(c(0), v("i")),
                                   SymbolicRange(c(0), v("n"))));
  EXPECT_FALSE(CS.proveLe(v("i"), v("n")));
}

TEST(ConstraintSystem, LoopInvariantEntailmentScenario) {
  // The Figure 6(b) situation after the back edge: facts
  // {i = i' + 1}; query: [0..i) subset of [0..i') union [i'..i'+1).
  // The union piece is exercised at the history level; here we verify the
  // two bound queries the history layer issues.
  ConstraintSystem CS;
  CS.addEquality(v("i"), v("i'") + 1);
  // Chain condition: second range starts exactly where the first ends.
  EXPECT_TRUE(CS.proveLe(v("i'"), v("i'")));
  // Final bound: i <= i' + 1.
  EXPECT_TRUE(CS.proveLe(v("i"), v("i'") + 1));
}

TEST(ConstraintSystem, ScalesToManyFacts) {
  ConstraintSystem CS;
  for (int I = 0; I < 60; ++I)
    CS.addLe(v(("x" + std::to_string(I)).c_str()),
             v(("x" + std::to_string(I + 1)).c_str()));
  EXPECT_TRUE(CS.proveLe(v("x0"), v("x60")));
  EXPECT_FALSE(CS.proveLe(v("x60"), v("x0")));
}

//===----------------------------------------------------------------------===
// Cache invalidation: a system caches its base rows, its inconsistent()
// verdict and its proveLe verdicts; every add* must drop them.
//===----------------------------------------------------------------------===

TEST(ConstraintSystemCache, AddLeTurnsFailedProofIntoSuccess) {
  ConstraintSystem CS;
  CS.addLe(v("i"), v("j"));
  EXPECT_FALSE(CS.proveLe(v("i"), v("k")));
  CS.addLe(v("j"), v("k"));
  EXPECT_TRUE(CS.proveLe(v("i"), v("k")));
  // proveLt goes through the same memo with a shifted constant.
  EXPECT_FALSE(CS.proveLt(v("i"), v("k")));
  CS.addLt(v("j"), v("k"));
  EXPECT_TRUE(CS.proveLt(v("i"), v("k")));
}

TEST(ConstraintSystemCache, InconsistentFlipsAfterContradiction) {
  ConstraintSystem CS;
  CS.addLe(v("i"), v("n"));
  EXPECT_FALSE(CS.inconsistent());
  EXPECT_FALSE(CS.inconsistent()); // Cached verdict.
  CS.addLe(v("n") + 1, v("i"));
  EXPECT_TRUE(CS.inconsistent());
}

TEST(ConstraintSystemCache, EquivVarsChangesAfterFieldAlias) {
  ConstraintSystem CS;
  CS.addLe(v("w"), v("y"));
  CS.addFieldAlias("x", "p", "f");
  EXPECT_FALSE(CS.equivVars("x", "y"));
  EXPECT_FALSE(CS.proveLe(v("w"), v("x")));
  CS.addFieldAlias("y", "p", "f");
  EXPECT_TRUE(CS.equivVars("x", "y"));
  // The base rows must be re-canonicalized: w <= y now reads w <= x.
  EXPECT_TRUE(CS.proveLe(v("w"), v("x")));
}

TEST(ConstraintSystemCache, EquivVarsChangesAfterEquality) {
  ConstraintSystem CS;
  CS.addLe(v("a"), v("b"));
  EXPECT_FALSE(CS.equivVars("a", "c"));
  EXPECT_FALSE(CS.proveEq(v("a"), v("c")));
  CS.addEquality(v("a"), v("c"));
  EXPECT_TRUE(CS.equivVars("a", "c"));
  // The new equality also reaches facts that were canonicalized before
  // it: c <= b now follows from a <= b.
  EXPECT_TRUE(CS.proveLe(v("c"), v("b")));
}

TEST(EntailmentProfile, CountsTopLevelQueriesOnce) {
  ConstraintSystem CS;
  CS.addEquality(v("i"), v("j"));
  CS.proveLe(v("i"), v("j")); // Not profiled: no profile alive yet.
  EntailmentProfile Outer;
  {
    EntailmentProfile Inner;
    // proveEq calls proveLe twice; the nested calls count as one query.
    EXPECT_TRUE(CS.proveEq(v("i") + 1, v("j") + 1));
    EXPECT_TRUE(CS.proveRangeSubset(SymbolicRange(v("i"), v("i") + 4),
                                    SymbolicRange(v("j"), v("j") + 8)));
    EXPECT_EQ(Inner.queries(), 2u);
    EXPECT_GE(Inner.seconds(), 0.0);
  }
  EXPECT_EQ(Outer.queries(), 0u); // The innermost profile collected.
  CS.inconsistent();
  EXPECT_EQ(Outer.queries(), 1u);
}

namespace {

/// A random affine expression over a small variable pool.
AffineExpr randomExpr(Rng &R) {
  static const char *const Vars[] = {"a", "b", "c", "d", "e"};
  AffineExpr E = c(R.nextInRange(-3, 3));
  unsigned Terms = static_cast<unsigned>(R.nextInRange(0, 2));
  for (unsigned I = 0; I < Terms; ++I)
    E = E + v(Vars[R.nextBelow(5)]) * R.nextInRange(-2, 2);
  return E;
}

std::string randomVar(Rng &R) {
  static const char *const Vars[] = {"a", "b", "c", "d", "e"};
  return Vars[R.nextBelow(5)];
}

/// Alias bases come from a two-name pool so that aliases often share a
/// base (and index) and merge variables in the congruence closure.
std::string randomBase(Rng &R) { return R.chance(1, 2) ? "p" : "q"; }

} // namespace

TEST(ConstraintSystemCache, RandomDifferentialAgainstFreshSystem) {
  // One long-lived system receives interleaved facts and queries. After
  // every query, a fresh system built from the same facts must give the
  // same answer: the caches may only ever return what a rebuild would.
  using Fact = std::function<void(ConstraintSystem &)>;
  using Query = std::function<bool(ConstraintSystem &)>;
  unsigned Checked = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    Rng R(Seed);
    ConstraintSystem Live;
    std::vector<Fact> Facts;
    for (int Step = 0; Step < 40; ++Step) {
      if (R.chance(1, 4) && Facts.size() < 10) {
        Fact F;
        AffineExpr L = randomExpr(R), Rhs = randomExpr(R);
        std::string X = randomVar(R), Y = randomBase(R);
        AffineExpr Index = R.chance(1, 2) ? c(0) : v("a");
        switch (R.nextBelow(6)) {
        case 0:
          F = [L, Rhs](ConstraintSystem &CS) { CS.addEquality(L, Rhs); };
          break;
        case 1:
          F = [L, Rhs](ConstraintSystem &CS) { CS.addLe(L, Rhs); };
          break;
        case 2:
          F = [L, Rhs](ConstraintSystem &CS) { CS.addNe(L, Rhs); };
          break;
        case 3: {
          int64_t M = R.nextInRange(2, 4), Rem = R.nextInRange(0, 3);
          F = [L, M, Rem](ConstraintSystem &CS) {
            CS.addCongruence(L, M, Rem);
          };
          break;
        }
        case 4:
          F = [X, Y](ConstraintSystem &CS) { CS.addFieldAlias(X, Y, "f"); };
          break;
        default:
          F = [X, Y, Index](ConstraintSystem &CS) {
            CS.addArrayAlias(X, Y, Index);
          };
          break;
        }
        F(Live);
        Facts.push_back(std::move(F));
        continue;
      }
      Query Q;
      AffineExpr L = randomExpr(R), Rhs = randomExpr(R);
      std::string X = randomVar(R), Y = randomVar(R);
      switch (R.nextBelow(7)) {
      case 0:
        Q = [L, Rhs](ConstraintSystem &CS) { return CS.proveLe(L, Rhs); };
        break;
      case 1:
        Q = [L, Rhs](ConstraintSystem &CS) { return CS.proveEq(L, Rhs); };
        break;
      case 2:
        Q = [L, Rhs](ConstraintSystem &CS) { return CS.proveNe(L, Rhs); };
        break;
      case 3: {
        int64_t M = R.nextInRange(1, 4);
        Q = [L, M](ConstraintSystem &CS) {
          return CS.proveCongruent(L, M, 0);
        };
        break;
      }
      case 4:
        Q = [X, Y](ConstraintSystem &CS) { return CS.equivVars(X, Y); };
        break;
      case 5: {
        SymbolicRange Sub(L, L + R.nextInRange(0, 4), R.nextInRange(1, 2));
        SymbolicRange Sup(Rhs, Rhs + R.nextInRange(0, 8),
                          R.nextInRange(1, 2));
        Q = [Sub, Sup](ConstraintSystem &CS) {
          return CS.proveRangeSubset(Sub, Sup);
        };
        break;
      }
      default:
        Q = [](ConstraintSystem &CS) { return CS.inconsistent(); };
        break;
      }
      // Ask twice so the second answer comes from the caches.
      bool First = Q(Live);
      bool Second = Q(Live);
      ConstraintSystem Fresh;
      for (const Fact &F : Facts)
        F(Fresh);
      bool Expected = Q(Fresh);
      ASSERT_EQ(First, Expected) << "seed " << Seed << " step " << Step;
      ASSERT_EQ(Second, Expected) << "seed " << Seed << " step " << Step;
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 1000u);
}
