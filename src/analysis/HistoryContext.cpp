//===- HistoryContext.cpp - Analysis contexts H • A ------------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "analysis/HistoryContext.h"

#include "bfj/Expr.h"

#include <algorithm>

using namespace bigfoot;

std::string BoolFact::str() const {
  if (Op == RelOp::Cong)
    return L.str() + " ≡ " + R.str() + " (mod " + std::to_string(Mod) + ")";
  const char *OpText = "?";
  switch (Op) {
  case RelOp::Eq:
    OpText = "=";
    break;
  case RelOp::Ne:
    OpText = "!=";
    break;
  case RelOp::Lt:
    OpText = "<";
    break;
  case RelOp::Le:
    OpText = "<=";
    break;
  case RelOp::Cong:
    break;
  }
  return L.str() + " " + OpText + " " + R.str();
}

std::string AliasFact::str() const {
  if (IsArray)
    return X + " = " + Base + "[" + Index.str() + "]";
  return X + " = " + Base + "." + Field;
}

//===----------------------------------------------------------------------===
// Fact insertion.
//===----------------------------------------------------------------------===

void History::addBool(BoolFact Fact) {
  for (const BoolFact &Existing : Bools)
    if (Existing == Fact)
      return;
  Bools.push_back(std::move(Fact));
}

void History::addCondition(const Expr *Cond, bool Negated) {
  switch (Cond->kind()) {
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(Cond);
    if (U->op() == UnaryOp::Not)
      addCondition(U->operand(), !Negated);
    return;
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(Cond);
    // Conjunctions decompose positively; negated disjunctions decompose by
    // De Morgan. The dual cases would need disjunctive facts — dropped.
    if (B->op() == BinaryOp::And && !Negated) {
      addCondition(B->lhs(), false);
      addCondition(B->rhs(), false);
      return;
    }
    if (B->op() == BinaryOp::Or && Negated) {
      addCondition(B->lhs(), true);
      addCondition(B->rhs(), true);
      return;
    }
    if (!isComparison(B->op()))
      return;
    std::optional<AffineExpr> L = toAffine(B->lhs());
    std::optional<AffineExpr> R = toAffine(B->rhs());
    if (!L || !R)
      return;
    BinaryOp Op = B->op();
    // Normalize Gt/Ge by swapping operands.
    if (Op == BinaryOp::Gt || Op == BinaryOp::Ge) {
      std::swap(*L, *R);
      Op = Op == BinaryOp::Gt ? BinaryOp::Lt : BinaryOp::Le;
    }
    if (Negated) {
      // !(L < R) == R <= L,  !(L <= R) == R < L,  !(L == R) == L != R.
      switch (Op) {
      case BinaryOp::Lt:
        addBool({RelOp::Le, *R, *L});
        return;
      case BinaryOp::Le:
        addBool({RelOp::Lt, *R, *L});
        return;
      case BinaryOp::Eq:
        addBool({RelOp::Ne, *L, *R});
        return;
      case BinaryOp::Ne:
        addBool({RelOp::Eq, *L, *R});
        return;
      default:
        return;
      }
    }
    switch (Op) {
    case BinaryOp::Lt:
      addBool({RelOp::Lt, *L, *R});
      return;
    case BinaryOp::Le:
      addBool({RelOp::Le, *L, *R});
      return;
    case BinaryOp::Eq:
      addBool({RelOp::Eq, *L, *R});
      return;
    case BinaryOp::Ne:
      addBool({RelOp::Ne, *L, *R});
      return;
    default:
      return;
    }
  }
  default:
    return;
  }
}

void History::addAlias(AliasFact Fact) {
  for (const AliasFact &Existing : Aliases)
    if (Existing == Fact)
      return;
  Aliases.push_back(std::move(Fact));
}

void History::addAccess(const Path &P) {
  for (const Path &Existing : Accesses)
    if (Existing == P)
      return;
  Accesses.push_back(P);
}

void History::addCheck(const Path &P) {
  for (const Path &Existing : Checks)
    if (Existing == P)
      return;
  Checks.push_back(P);
}

//===----------------------------------------------------------------------===
// Entailment.
//===----------------------------------------------------------------------===

namespace {
/// The innermost live EntailmentBudget of this thread, if any.
thread_local EntailmentBudget *ActiveBudget = nullptr;
} // namespace

EntailmentBudget::EntailmentBudget(uint64_t Limit)
    : Outer(ActiveBudget), Limit(Limit) {
  ActiveBudget = this;
}

EntailmentBudget::~EntailmentBudget() { ActiveBudget = Outer; }

void EntailmentBudget::charge() {
  if (!ActiveBudget)
    return;
  if (ActiveBudget->Queries >= ActiveBudget->Limit)
    throw Exhausted{};
  ++ActiveBudget->Queries;
}

ConstraintSystem History::constraints() const {
  ConstraintSystem CS;
  for (const BoolFact &Fact : Bools) {
    switch (Fact.Op) {
    case RelOp::Eq:
      CS.addEquality(Fact.L, Fact.R);
      break;
    case RelOp::Ne:
      CS.addNe(Fact.L, Fact.R);
      break;
    case RelOp::Lt:
      CS.addLt(Fact.L, Fact.R);
      break;
    case RelOp::Le:
      CS.addLe(Fact.L, Fact.R);
      break;
    case RelOp::Cong:
      CS.addCongruence(Fact.L - Fact.R, Fact.Mod, 0);
      break;
    }
  }
  for (const AliasFact &Fact : Aliases) {
    if (Fact.IsArray)
      CS.addArrayAlias(Fact.X, Fact.Base, Fact.Index);
    else
      CS.addFieldAlias(Fact.X, Fact.Base, Fact.Field);
  }
  return CS;
}

bool History::entailsBool(const BoolFact &Fact, ConstraintSystem &CS) const {
  EntailmentBudget::charge();
  for (const BoolFact &Existing : Bools)
    if (Existing == Fact)
      return true;
  switch (Fact.Op) {
  case RelOp::Eq:
    return CS.proveEq(Fact.L, Fact.R);
  case RelOp::Ne:
    return CS.proveNe(Fact.L, Fact.R);
  case RelOp::Lt:
    return CS.proveLt(Fact.L, Fact.R);
  case RelOp::Le:
    return CS.proveLe(Fact.L, Fact.R);
  case RelOp::Cong:
    return CS.proveCongruent(Fact.L - Fact.R, Fact.Mod, 0);
  }
  return false;
}

bool History::entailsAlias(const AliasFact &Fact, ConstraintSystem &CS) const {
  EntailmentBudget::charge();
  for (const AliasFact &Existing : Aliases)
    if (Existing == Fact)
      return true;
  // Query "x = y.f" holds iff x is congruent to a fresh variable aliased
  // to y.f under the existing facts.
  ConstraintSystem::Scope ProbeScope(CS);
  const std::string Probe = "$probe";
  if (Fact.IsArray)
    CS.addArrayAlias(Probe, Fact.Base, Fact.Index);
  else
    CS.addFieldAlias(Probe, Fact.Base, Fact.Field);
  return CS.equivVars(Fact.X, Probe);
}

bool History::entailsPathIn(const std::vector<Path> &Facts, const Path &P,
                            ConstraintSystem &CS) {
  // Inconsistent facts mark dead code, which entails everything; this is
  // what lets the rotated-loop's infeasible else arm drop out of merges.
  if (CS.inconsistent())
    return true;

  if (P.isField()) {
    // Every queried field must be covered by some fact on an equivalent
    // designator with sufficient kind.
    for (const std::string &F : P.Fields) {
      bool Covered = false;
      for (const Path &Fact : Facts) {
        if (!Fact.isField() || !kindSatisfies(Fact.Access, P.Access))
          continue;
        if (std::find(Fact.Fields.begin(), Fact.Fields.end(), F) ==
            Fact.Fields.end())
          continue;
        if (CS.equivVars(Fact.Designator, P.Designator)) {
          Covered = true;
          break;
        }
      }
      if (!Covered)
        return false;
    }
    return true;
  }

  // Array query. Provably empty ranges are trivially entailed.
  if (CS.proveLe(P.Range.End, P.Range.Begin))
    return true;

  std::vector<const Path *> Candidates;
  for (const Path &Fact : Facts) {
    if (!Fact.isArray() || !kindSatisfies(Fact.Access, P.Access))
      continue;
    if (CS.equivVars(Fact.Designator, P.Designator))
      Candidates.push_back(&Fact);
  }
  // Single-fact coverage.
  for (const Path *Fact : Candidates)
    if (CS.proveRangeSubset(P.Range, Fact->Range))
      return true;
  // Chaining: tile the aligned elements of [Begin..End):k left to right.
  // A same-stride aligned fact [b..e:k] with b <= F <= e advances the
  // frontier to e (aligned elements in [F, e) lie in [b, e)); an aligned
  // singleton [s] with s <= F <= s+k advances it to s+k (any aligned
  // element in [F, s+k) lies in [s, s+k), whose only aligned member is
  // s). Each fact is consumed once, bounding the walk.
  const int64_t K = P.Range.Stride;
  AffineExpr Frontier = P.Range.Begin;
  std::vector<bool> Used(Candidates.size(), false);
  for (size_t Step = 0; Step <= Candidates.size(); ++Step) {
    if (CS.proveLe(P.Range.End, Frontier))
      return true;
    bool Extended = false;
    for (size_t CI = 0; CI < Candidates.size(); ++CI) {
      if (Used[CI])
        continue;
      const SymbolicRange &FR = Candidates[CI]->Range;
      if (FR.isSingleton()) {
        if (K > 1 && !CS.proveCongruent(FR.Begin - P.Range.Begin, K, 0))
          continue;
        if (CS.proveLe(FR.Begin, Frontier) &&
            CS.proveLe(Frontier, FR.Begin + K)) {
          Frontier = FR.Begin + K;
          Used[CI] = true;
          Extended = true;
          break;
        }
        continue;
      }
      if (FR.Stride != K)
        continue;
      if (K > 1 && !CS.proveCongruent(FR.Begin - P.Range.Begin, K, 0))
        continue;
      if (CS.proveLe(FR.Begin, Frontier) &&
          CS.proveLe(Frontier, FR.End)) {
        Frontier = FR.End;
        Used[CI] = true;
        Extended = true;
        break;
      }
    }
    if (!Extended)
      return false;
  }
  return false;
}

bool History::entailsAccess(const Path &P, ConstraintSystem &CS) const {
  EntailmentBudget::charge();
  return entailsPathIn(Accesses, P, CS);
}

bool History::entailsCheck(const Path &P, ConstraintSystem &CS) const {
  EntailmentBudget::charge();
  return entailsPathIn(Checks, P, CS);
}

bool History::entailsAnticipated(const Anticipated &A, const Path &P,
                                 ConstraintSystem &CS) const {
  EntailmentBudget::charge();
  return entailsPathIn(A, P, CS);
}

bool History::subsumedBy(const History &Stronger) const {
  ConstraintSystem CS = Stronger.constraints();
  for (const BoolFact &Fact : Bools)
    if (!Stronger.entailsBool(Fact, CS))
      return false;
  for (const AliasFact &Fact : Aliases)
    if (!Stronger.entailsAlias(Fact, CS))
      return false;
  for (const Path &P : Accesses)
    if (!Stronger.entailsAccess(P, CS))
      return false;
  for (const Path &P : Checks)
    if (!Stronger.entailsCheck(P, CS))
      return false;
  return true;
}

//===----------------------------------------------------------------------===
// Structural operations.
//===----------------------------------------------------------------------===

bool History::mentions(const std::string &Name) const {
  for (const BoolFact &Fact : Bools)
    if (Fact.L.mentions(Name) || Fact.R.mentions(Name))
      return true;
  for (const AliasFact &Fact : Aliases) {
    if (Fact.X == Name || Fact.Base == Name)
      return true;
    if (Fact.IsArray && Fact.Index.mentions(Name))
      return true;
  }
  for (const Path &P : Accesses)
    if (P.mentions(Name))
      return true;
  for (const Path &P : Checks)
    if (P.mentions(Name))
      return true;
  return false;
}

History History::renamed(const std::string &From,
                         const std::string &To) const {
  History Out;
  AffineExpr ToVar = AffineExpr::variable(To);
  for (const BoolFact &Fact : Bools)
    Out.Bools.push_back({Fact.Op, Fact.L.substitute(From, ToVar),
                         Fact.R.substitute(From, ToVar), Fact.Mod});
  for (AliasFact Fact : Aliases) {
    if (Fact.X == From)
      Fact.X = To;
    if (Fact.Base == From)
      Fact.Base = To;
    if (Fact.IsArray)
      Fact.Index = Fact.Index.substitute(From, ToVar);
    Out.Aliases.push_back(std::move(Fact));
  }
  for (const Path &P : Accesses)
    Out.Accesses.push_back(P.rename(From, To));
  for (const Path &P : Checks)
    Out.Checks.push_back(P.rename(From, To));
  return Out;
}

History History::afterRelease() const {
  History Out;
  Out.Bools = Bools;
  Out.Aliases.clear(); // Lock hand-off may expose other threads' writes.
  return Out;
}

History History::afterAcquire() const {
  History Out = *this;
  Out.Aliases.clear();
  return Out;
}

void History::invalidateAliasesForFieldWrite(const std::string &FieldName) {
  Aliases.erase(std::remove_if(Aliases.begin(), Aliases.end(),
                               [&FieldName](const AliasFact &Fact) {
                                 return !Fact.IsArray &&
                                        Fact.Field == FieldName;
                               }),
                Aliases.end());
}

void History::invalidateAliasesForArrayWrite() {
  Aliases.erase(std::remove_if(Aliases.begin(), Aliases.end(),
                               [](const AliasFact &Fact) {
                                 return Fact.IsArray;
                               }),
                Aliases.end());
}

History History::meet(const History &H1, const History &H2) {
  History Out;
  ConstraintSystem CS1 = H1.constraints();
  ConstraintSystem CS2 = H2.constraints();
  auto Keep = [&](const auto &Facts, auto EntailedBy, auto Add) {
    for (const auto &Fact : Facts)
      if ((H1.*EntailedBy)(Fact, CS1) && (H2.*EntailedBy)(Fact, CS2))
        (Out.*Add)(Fact);
  };
  Keep(H1.Bools, &History::entailsBool, &History::addBool);
  Keep(H2.Bools, &History::entailsBool, &History::addBool);
  Keep(H1.Aliases, &History::entailsAlias, &History::addAlias);
  Keep(H2.Aliases, &History::entailsAlias, &History::addAlias);
  Keep(H1.Accesses, &History::entailsAccess, &History::addAccess);
  Keep(H2.Accesses, &History::entailsAccess, &History::addAccess);
  Keep(H1.Checks, &History::entailsCheck, &History::addCheck);
  Keep(H2.Checks, &History::entailsCheck, &History::addCheck);
  return Out;
}

std::string History::str() const {
  std::string S = "{";
  bool First = true;
  auto Sep = [&S, &First]() {
    if (!First)
      S += ", ";
    First = false;
  };
  for (const BoolFact &Fact : Bools) {
    Sep();
    S += Fact.str();
  }
  for (const AliasFact &Fact : Aliases) {
    Sep();
    S += Fact.str();
  }
  for (const Path &P : Accesses) {
    Sep();
    S += P.str();
    S += "✁";
    if (P.Access == AccessKind::Write)
      S += "w";
  }
  for (const Path &P : Checks) {
    Sep();
    S += P.str();
    S += "✓";
    if (P.Access == AccessKind::Write)
      S += "w";
  }
  S += "}";
  return S;
}

std::string Context::str() const {
  std::string S = H.str() + " • {";
  for (size_t I = 0; I < A.size(); ++I) {
    if (I)
      S += ", ";
    S += A[I].str();
    S += "✸";
    if (A[I].Access == AccessKind::Write)
      S += "w";
  }
  S += "}";
  return S;
}

//===----------------------------------------------------------------------===
// Anticipated-set operations.
//===----------------------------------------------------------------------===

Anticipated bigfoot::substituteAnticipated(
    const Anticipated &A, const std::string &X,
    const std::optional<AffineExpr> &E) {
  Anticipated Out;
  for (const Path &P : A) {
    if (P.Designator == X)
      continue; // Designator occurrences are not substitutable paths.
    if (P.isArray() && P.Range.mentions(X)) {
      if (!E)
        continue; // Non-affine replacement: drop the path.
      Out.push_back(P.substituteIndex(X, *E));
      continue;
    }
    Out.push_back(P);
  }
  return Out;
}

Anticipated bigfoot::removeVar(const Anticipated &A, const std::string &X) {
  Anticipated Out;
  for (const Path &P : A)
    if (!P.mentions(X))
      Out.push_back(P);
  return Out;
}

Anticipated bigfoot::renameAnticipated(const Anticipated &A,
                                       const std::string &From,
                                       const std::string &To) {
  Anticipated Out;
  Out.reserve(A.size());
  for (const Path &P : A)
    Out.push_back(P.rename(From, To));
  return Out;
}

void bigfoot::addAnticipated(Anticipated &A, const Path &P) {
  for (const Path &Existing : A)
    if (Existing == P)
      return;
  A.push_back(P);
}

Anticipated bigfoot::meetAnticipated(const History &H1, const Anticipated &A1,
                                     const History &H2,
                                     const Anticipated &A2) {
  Anticipated Out;
  ConstraintSystem CS1 = H1.constraints();
  ConstraintSystem CS2 = H2.constraints();
  for (const Path &P : A1)
    if (H2.entailsAnticipated(A2, P, CS2))
      addAnticipated(Out, P);
  for (const Path &P : A2)
    if (H1.entailsAnticipated(A1, P, CS1) &&
        !H2.entailsAnticipated(Out, P, CS2))
      addAnticipated(Out, P);
  return Out;
}

bool bigfoot::anticipatedSubsumedBy(const History &H, const Anticipated &A1,
                                    const Anticipated &A2) {
  ConstraintSystem CS = H.constraints();
  for (const Path &P : A1)
    if (!H.entailsAnticipated(A2, P, CS))
      return false;
  return true;
}

//===----------------------------------------------------------------------===
// The Checks functions.
//===----------------------------------------------------------------------===

namespace {

std::vector<Path> checksImpl(const History &H, const History *Approx,
                             const Anticipated &A) {
  std::vector<Path> Out;
  // Approx-entailment ("was the access fact preserved into the merged
  // history?") is judged under H's own boolean/alias facts: they hold on
  // this path, and the merged access facts are interpreted at the same
  // point. Without this, a back-edge fact a[0..i']✁ could never be
  // matched against the invariant a[0..i]✁ even though i = i' + 1.
  History Probe;
  if (Approx) {
    Probe.Bools = H.Bools;
    Probe.Aliases = H.Aliases;
    Probe.Accesses = Approx->Accesses;
  }
  // Work on a copy so each emitted check suppresses later duplicates.
  // Writes are processed first: a write check covers read accesses to the
  // same location, so the read-modify-write idiom needs only the write
  // check (Figure 1).
  History Working = H;
  std::vector<Path> Ordered = H.Accesses;
  std::stable_sort(Ordered.begin(), Ordered.end(),
                   [](const Path &A, const Path &B) {
                     return A.Access == AccessKind::Write &&
                            B.Access == AccessKind::Read;
                   });
  // Probe, Working and H share their boolean and alias facts, so one
  // constraint system serves all three.
  ConstraintSystem CS = H.constraints();
  for (const Path &P : Ordered) {
    if (Approx && Probe.entailsAccess(P, CS))
      continue;
    if (Working.entailsCheck(P, CS))
      continue;
    if (Working.entailsAnticipated(A, P, CS))
      continue;
    Out.push_back(P);
    Working.addCheck(P);
  }
  return Out;
}

} // namespace

std::vector<Path> bigfoot::checksFor(const History &H, const Anticipated &A) {
  return checksImpl(H, nullptr, A);
}

std::vector<Path> bigfoot::checksFor(const History &H, const History &Approx,
                                     const Anticipated &A) {
  return checksImpl(H, &Approx, A);
}
