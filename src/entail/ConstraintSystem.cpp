//===- ConstraintSystem.cpp - Entailment engine (Z3 stand-in) --------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "entail/ConstraintSystem.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <numeric>
#include <set>

using namespace bigfoot;

namespace {
/// Caps to keep Fourier-Motzkin elimination bounded. Exceeding them makes
/// a query unprovable (sound) rather than slow.
constexpr size_t MaxRows = 4096;
constexpr int64_t MaxCoeff = int64_t(1) << 48;

/// The prefix of the names that stand for integer constants in the
/// congruence closure.
constexpr char ConstPrefix[] = "#const:";
constexpr size_t ConstPrefixLen = sizeof(ConstPrefix) - 1;

/// The innermost live EntailmentProfile of this thread, if any.
thread_local EntailmentProfile *ActiveProfile = nullptr;

bool overCap(__int128 V) { return V > MaxCoeff || V < -MaxCoeff; }

/// Terms + C <= 0 over integers, divided through by the gcd G of the
/// coefficients: Terms/G <= floor(-C/G).
template <typename TermT>
void tighten(TermT *B, TermT *E, int64_t &Constant) {
  int64_t G = 0;
  for (TermT *T = B; T != E; ++T)
    G = std::gcd(G, T->Coeff < 0 ? -T->Coeff : T->Coeff);
  if (G <= 1)
    return;
  for (TermT *T = B; T != E; ++T)
    T->Coeff /= G;
  int64_t NegC = -Constant;
  int64_t Floored = NegC >= 0 ? NegC / G : -((-NegC + G - 1) / G);
  Constant = -Floored;
}
} // namespace

EntailmentProfile::EntailmentProfile() : Outer(ActiveProfile) {
  ActiveProfile = this;
}

EntailmentProfile::~EntailmentProfile() { ActiveProfile = Outer; }

class ConstraintSystem::QueryClock {
public:
  QueryClock() : Profile(ActiveProfile) {
    if (Profile && Profile->Depth++ == 0)
      Start = std::chrono::steady_clock::now();
  }
  ~QueryClock() {
    if (!Profile || --Profile->Depth != 0)
      return;
    Profile->Seconds += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - Start)
                            .count();
    ++Profile->Queries;
  }
  QueryClock(const QueryClock &) = delete;
  QueryClock &operator=(const QueryClock &) = delete;

private:
  EntailmentProfile *Profile;
  std::chrono::steady_clock::time_point Start;
};

size_t ConstraintSystem::CanonKeyHash::operator()(
    const std::vector<int64_t> &Key) const {
  uint64_t H = 0x9e3779b97f4a7c15ULL;
  for (int64_t W : Key) {
    H ^= static_cast<uint64_t>(W);
    H *= 0xff51afd7ed558ccdULL;
    H ^= H >> 32;
  }
  return static_cast<size_t>(H);
}

//===----------------------------------------------------------------------===
// Interned names.
//===----------------------------------------------------------------------===

uint32_t ConstraintSystem::intern(const std::string &Name) {
  auto It = std::lower_bound(
      ByName.begin(), ByName.end(), Name,
      [this](uint32_t Id, const std::string &N) { return Names[Id] < N; });
  if (It != ByName.end() && Names[*It] == Name)
    return *It;
  uint32_t Id = static_cast<uint32_t>(Names.size());
  size_t Pos = static_cast<size_t>(It - ByName.begin());
  Names.push_back(Name);
  ByName.insert(It, Id);
  Rank.push_back(0);
  for (size_t I = Pos; I < ByName.size(); ++I)
    Rank[ByName[I]] = static_cast<uint32_t>(I);
  ConstOf.push_back(
      Name.compare(0, ConstPrefixLen, ConstPrefix) == 0
          ? std::optional<int64_t>(std::stoll(Name.substr(ConstPrefixLen)))
          : std::nullopt);
  // A new name is its own class until the next closure rebuild.
  Parent.push_back(Id);
  Rep.push_back(Id);
  return Id;
}

//===----------------------------------------------------------------------===
// Facts.
//===----------------------------------------------------------------------===

void ConstraintSystem::normalize(std::vector<Term> &Terms) {
  std::sort(Terms.begin(), Terms.end(),
            [](const Term &A, const Term &B) { return A.Var < B.Var; });
  size_t N = 0;
  for (const Term &T : Terms) {
    if (N > 0 && Terms[N - 1].Var == T.Var) {
      if ((Terms[N - 1].Coeff += T.Coeff) == 0)
        --N;
    } else {
      Terms[N++] = T;
    }
  }
  Terms.resize(N);
}

void ConstraintSystem::addRawRow(RowSet &Out, const AffineExpr &L,
                                 const AffineExpr &R, int64_t Shift) {
  std::vector<Term> &Raw = Work.Diff.Terms;
  Raw.clear();
  for (const auto &[Name, Coeff] : L.terms())
    Raw.push_back({intern(Name), Coeff});
  for (const auto &[Name, Coeff] : R.terms())
    Raw.push_back({intern(Name), -Coeff});
  normalize(Raw);
  size_t Begin = Out.Terms.size();
  Out.Terms.insert(Out.Terms.end(), Raw.begin(), Raw.end());
  Out.close(Begin, L.constantPart() - R.constantPart() + Shift);
}

void ConstraintSystem::invalidate() {
  if (!Scopes.empty() && Scopes.back().Shared) {
    Scopes.back().Saved = std::move(Cache);
    Scopes.back().Shared = false;
  }
  Cache = Derived();
}

void ConstraintSystem::addEquality(const AffineExpr &L, const AffineExpr &R) {
  addRawRow(Equalities, L, R, 0);
  ClosureDirty = true;
  invalidate();
}

void ConstraintSystem::addLe(const AffineExpr &L, const AffineExpr &R) {
  addRawRow(LeFacts, L, R, 0);
  invalidate();
}

void ConstraintSystem::addLt(const AffineExpr &L, const AffineExpr &R) {
  addRawRow(LeFacts, L, R, 1);
  invalidate();
}

// Disequalities and congruences feed neither the closure nor the rows, so
// they leave every cache valid.
void ConstraintSystem::addNe(const AffineExpr &L, const AffineExpr &R) {
  addRawRow(NeFacts, L, R, 0);
}

void ConstraintSystem::addCongruence(const AffineExpr &E, int64_t M,
                                     int64_t R) {
  assert(M >= 1 && "modulus must be positive");
  addRawRow(CongFacts, E, AffineExpr(), 0);
  CongMods.push_back({M, ((R % M) + M) % M});
}

void ConstraintSystem::addFieldAlias(const std::string &X,
                                     const std::string &Y,
                                     const std::string &F) {
  Aliases.push_back({intern(X), intern(Y), false, F, AffineExpr()});
  ClosureDirty = true;
  invalidate();
}

void ConstraintSystem::addArrayAlias(const std::string &X,
                                     const std::string &Y,
                                     const AffineExpr &Index) {
  Aliases.push_back({intern(X), intern(Y), true, std::string(), Index});
  ClosureDirty = true;
  invalidate();
}

//===----------------------------------------------------------------------===
// Scopes.
//===----------------------------------------------------------------------===

void ConstraintSystem::pushScope() {
  rebuildClosure();
  ScopeFrame F;
  F.NumEq = Equalities.Rows.size();
  F.NumLe = LeFacts.Rows.size();
  F.NumNe = NeFacts.Rows.size();
  F.NumCong = CongFacts.Rows.size();
  F.NumAliases = Aliases.size();
  F.Rep = Rep;
  Scopes.push_back(std::move(F));
}

void ConstraintSystem::popScope() {
  assert(!Scopes.empty() && "popScope without pushScope");
  ScopeFrame &F = Scopes.back();
  auto Truncate = [](RowSet &S, size_t N) {
    if (N < S.Rows.size()) {
      S.Terms.resize(S.Rows[N].Begin);
      S.Rows.resize(N);
    }
  };
  Truncate(Equalities, F.NumEq);
  Truncate(LeFacts, F.NumLe);
  Truncate(NeFacts, F.NumNe);
  Truncate(CongFacts, F.NumCong);
  CongMods.resize(F.NumCong);
  Aliases.resize(F.NumAliases);
  // Names interned inside the scope stay interned, as singleton classes.
  Rep = std::move(F.Rep);
  for (uint32_t Id = static_cast<uint32_t>(Rep.size()); Id < Names.size();
       ++Id)
    Rep.push_back(Id);
  Parent = Rep;
  ClosureDirty = false;
  if (!F.Shared)
    Cache = std::move(F.Saved);
  Scopes.pop_back();
}

//===----------------------------------------------------------------------===
// Congruence closure.
//===----------------------------------------------------------------------===

uint32_t ConstraintSystem::find(uint32_t Id) {
  uint32_t Root = Id;
  while (Parent[Root] != Root)
    Root = Parent[Root];
  while (Parent[Id] != Root) {
    uint32_t Next = Parent[Id];
    Parent[Id] = Root;
    Id = Next;
  }
  return Root;
}

void ConstraintSystem::unite(uint32_t A, uint32_t B) {
  uint32_t RA = find(A);
  uint32_t RB = find(B);
  if (RA == RB)
    return;
  // Deterministic representative: the lexicographically smaller root, so
  // canonicalization does not depend on insertion order.
  if (Rank[RB] < Rank[RA])
    std::swap(RA, RB);
  Parent[RB] = RA;
}

void ConstraintSystem::rebuildClosure() {
  if (!ClosureDirty)
    return;
  std::iota(Parent.begin(), Parent.end(), 0u);
  // Seed with syntactic var=var and var=const equalities.
  for (const RowSet::Row &R : Equalities.Rows) {
    const Term *T = Equalities.begin(R);
    if (R.Size == 2 && R.Constant == 0) {
      if (T[0].Coeff + T[1].Coeff == 0 &&
          (T[0].Coeff == 1 || T[0].Coeff == -1))
        unite(T[0].Var, T[1].Var);
    } else if (R.Size == 1 && (T[0].Coeff == 1 || T[0].Coeff == -1)) {
      int64_t Value = -R.Constant / T[0].Coeff;
      uint32_t Var = T[0].Var;
      unite(Var, intern(ConstPrefix + std::to_string(Value)));
    }
  }
  // Congruence over alias terms: iterate to a fixed point because keys
  // mention representatives.
  for (int Round = 0; Round < 8; ++Round) {
    bool Changed = false;
    for (const AliasFact &A : Aliases) {
      std::string Key;
      if (A.IsArray) {
        // Canonicalize the index through current representatives.
        AffineExpr Idx = A.Index;
        for (const std::string &V : A.Index.variables())
          Idx = Idx.substitute(V,
                               AffineExpr::variable(Names[find(intern(V))]));
        Key = "a#" + Names[find(A.Base)] + "#" + Idx.str();
      } else {
        Key = "f#" + A.Field + "#" + Names[find(A.Base)];
      }
      uint32_t RK = find(intern(Key));
      uint32_t RX = find(A.X);
      if (RX != RK) {
        unite(RX, RK);
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }
  for (uint32_t Id = 0; Id < Names.size(); ++Id)
    Rep[Id] = find(Id);
  ClosureDirty = false;

  // A scope that only added aliases shares its enclosing scope's caches
  // again once the closure shows that no earlier name changed class.
  if (!Scopes.empty()) {
    ScopeFrame &F = Scopes.back();
    if (!F.Shared && Equalities.Rows.size() == F.NumEq &&
        LeFacts.Rows.size() == F.NumLe &&
        std::equal(F.Rep.begin(), F.Rep.end(), Rep.begin())) {
      Cache = std::move(F.Saved);
      F.Saved = Derived();
      F.Shared = true;
    }
  }
}

//===----------------------------------------------------------------------===
// Canonical rows.
//===----------------------------------------------------------------------===

void ConstraintSystem::canonicalize(const Term *B, const Term *E,
                                    int64_t Constant, Linear &Out) {
  Out.Terms.clear();
  for (const Term *T = B; T != E; ++T) {
    uint32_t R = Rep[T->Var];
    // Constants fold back into the constant part.
    if (const std::optional<int64_t> &Value = ConstOf[R])
      Constant += T->Coeff * *Value;
    else
      Out.Terms.push_back({R, T->Coeff});
  }
  normalize(Out.Terms);
  Out.Constant = Constant;
}

void ConstraintSystem::canonicalDiff(const AffineExpr &L, const AffineExpr &R,
                                     int64_t Shift, Linear &Out) {
  rebuildClosure();
  std::vector<Term> &Raw = Work.Other.Terms;
  Raw.clear();
  for (const auto &[Name, Coeff] : L.terms())
    Raw.push_back({intern(Name), Coeff});
  for (const auto &[Name, Coeff] : R.terms())
    Raw.push_back({intern(Name), -Coeff});
  canonicalize(Raw.data(), Raw.data() + Raw.size(),
               L.constantPart() - R.constantPart() + Shift, Out);
}

const ConstraintSystem::RowSet &ConstraintSystem::baseRows() {
  rebuildClosure();
  if (Cache.HaveBase)
    return Cache.Base;
  RowSet &Rows = Cache.Base;
  Rows.clear();
  Linear &Row = Work.Other;
  // Rows are stored tightened: refute() tightens every row it starts
  // from, and tightening a tightened row changes nothing.
  auto Append = [&Rows](const Linear &Src, int64_t Sign) {
    size_t Begin = Rows.Terms.size();
    for (const Term &T : Src.Terms)
      Rows.Terms.push_back({T.Var, T.Coeff * Sign});
    Rows.close(Begin, Src.Constant * Sign);
    tighten(Rows.Terms.data() + Begin, Rows.Terms.data() + Rows.Terms.size(),
            Rows.Rows.back().Constant);
  };
  for (const RowSet::Row &R : Equalities.Rows) {
    canonicalize(Equalities.begin(R), Equalities.end(R), R.Constant, Row);
    Append(Row, 1);
    Append(Row, -1);
  }
  for (const RowSet::Row &R : LeFacts.Rows) {
    canonicalize(LeFacts.begin(R), LeFacts.end(R), R.Constant, Row);
    Append(Row, 1);
  }
  Cache.HaveBase = true;
  ++RowBuilds;
  return Rows;
}

//===----------------------------------------------------------------------===
// Fourier-Motzkin.
//===----------------------------------------------------------------------===

bool ConstraintSystem::combine(const RowSet &Rows, const RowSet::Row &P,
                               int64_t CN, const RowSet::Row &N, int64_t CP,
                               uint32_t Var, RowSet &Next) const {
  // P's terms are scaled and capped first, then N's are added to them and
  // capped again, as a term-by-term accumulation would.
  size_t Begin = Next.Terms.size();
  const Term *PI = Rows.begin(P), *PE = Rows.end(P);
  const Term *NI = Rows.begin(N), *NE = Rows.end(N);
  while (PI != PE || NI != NE) {
    __int128 V;
    uint32_t At;
    if (NI == NE || (PI != PE && PI->Var < NI->Var)) {
      At = PI->Var;
      V = static_cast<__int128>(PI->Coeff) * CN;
      ++PI;
    } else if (PI == PE || NI->Var < PI->Var) {
      At = NI->Var;
      V = static_cast<__int128>(NI->Coeff) * CP;
      ++NI;
    } else {
      At = PI->Var;
      V = static_cast<__int128>(PI->Coeff) * CN;
      if (At != Var && overCap(V)) {
        Next.Terms.resize(Begin);
        return false;
      }
      V += static_cast<__int128>(NI->Coeff) * CP;
      ++PI;
      ++NI;
    }
    if (At == Var)
      continue;
    if (overCap(V)) {
      Next.Terms.resize(Begin);
      return false;
    }
    if (V != 0)
      Next.Terms.push_back({At, static_cast<int64_t>(V)});
  }
  __int128 C = static_cast<__int128>(P.Constant) * CN;
  if (!overCap(C))
    C += static_cast<__int128>(N.Constant) * CP;
  if (overCap(C)) {
    Next.Terms.resize(Begin);
    return false;
  }
  Next.close(Begin, static_cast<int64_t>(C));
  return true;
}

bool ConstraintSystem::refute(const RowSet &Base, const Linear *Goal) {
  RowSet &Cur = Work.Cur;
  RowSet &Next = Work.Next;
  Cur.Terms.assign(Base.Terms.begin(), Base.Terms.end());
  Cur.Rows.assign(Base.Rows.begin(), Base.Rows.end());
  // Tighten every row (the base rows already are); a row with no
  // variables stays as it is.
  if (Goal) {
    size_t Begin = Cur.Terms.size();
    Cur.Terms.insert(Cur.Terms.end(), Goal->Terms.begin(), Goal->Terms.end());
    Cur.close(Begin, Goal->Constant);
    tighten(Cur.Terms.data() + Begin, Cur.Terms.data() + Cur.Terms.size(),
            Cur.Rows.back().Constant);
  }
  Work.Counts.resize(Names.size());

  while (true) {
    // Contradiction: a row with no variables and positive constant.
    for (const RowSet::Row &R : Cur.Rows)
      if (R.Size == 0 && R.Constant > 0)
        return true;

    // Pick the variable with the cheapest elimination, ties to the
    // lexicographically smallest name.
    Work.Touched.clear();
    for (const Term &T : Cur.Terms) {
      Workspace::Count &C = Work.Counts[T.Var];
      if (C.Pos == 0 && C.Neg == 0)
        Work.Touched.push_back(T.Var);
      ++(T.Coeff > 0 ? C.Pos : C.Neg);
    }
    if (Work.Touched.empty())
      return false;
    uint32_t Best = 0;
    size_t BestCost = SIZE_MAX;
    for (uint32_t V : Work.Touched) {
      Workspace::Count &C = Work.Counts[V];
      size_t Cost = static_cast<size_t>(C.Pos) * C.Neg;
      if (Cost < BestCost || (Cost == BestCost && Rank[V] < Rank[Best])) {
        BestCost = Cost;
        Best = V;
      }
      C = Workspace::Count();
    }

    Work.Pos.clear();
    Work.Neg.clear();
    Next.clear();
    for (uint32_t I = 0; I < Cur.Rows.size(); ++I) {
      const RowSet::Row &R = Cur.Rows[I];
      const Term *B = Cur.begin(R), *E = Cur.end(R);
      const Term *At = std::lower_bound(
          B, E, Best, [](const Term &T, uint32_t V) { return T.Var < V; });
      if (At == E || At->Var != Best) {
        size_t Begin = Next.Terms.size();
        Next.Terms.insert(Next.Terms.end(), B, E);
        Next.close(Begin, R.Constant);
      } else {
        (At->Coeff > 0 ? Work.Pos : Work.Neg)
            .push_back({I, static_cast<uint32_t>(At - B)});
      }
    }

    for (const auto &[PI, PAt] : Work.Pos) {
      const RowSet::Row &P = Cur.Rows[PI];
      int64_t CP = Cur.Terms[P.Begin + PAt].Coeff; // > 0
      for (const auto &[NI, NAt] : Work.Neg) {
        const RowSet::Row &N = Cur.Rows[NI];
        int64_t CN = -Cur.Terms[N.Begin + NAt].Coeff; // > 0
        // Dropping a derived row only weakens the refutation.
        if (!combine(Cur, P, CN, N, CP, Best, Next))
          continue;
        RowSet::Row &Combined = Next.Rows.back();
        Term *CB = Next.Terms.data() + Combined.Begin;
        tighten(CB, CB + Combined.Size, Combined.Constant);
        if (Combined.Size == 0) {
          bool Contradiction = Combined.Constant > 0;
          Next.Rows.pop_back();
          if (Contradiction)
            return true;
          continue; // Satisfied constant row carries no information.
        }
        if (Next.Rows.size() > MaxRows)
          return false; // Bail out: unproven.
      }
    }
    std::swap(Cur, Next);
  }
}

//===----------------------------------------------------------------------===
// Queries.
//===----------------------------------------------------------------------===

bool ConstraintSystem::leCanonical(const Linear &Diff, int64_t Sign,
                                   int64_t Shift) {
  int64_t Constant = Sign * Diff.Constant + Shift;
  if (Diff.Terms.empty())
    return Constant <= 0;
  std::vector<int64_t> &Key = Work.Key;
  Key.clear();
  Key.push_back(Constant);
  for (const Term &T : Diff.Terms) {
    Key.push_back(T.Var);
    Key.push_back(Sign * T.Coeff);
  }
  auto Cached = Cache.LeVerdicts.find(Key);
  if (Cached != Cache.LeVerdicts.end())
    return Cached->second;
  const RowSet &Base = baseRows();
  // Negated goal: Sign * Diff + Shift >= 1, i.e. its negation plus one
  // is <= 0.
  Linear &Negated = Work.Other;
  Negated.Terms.clear();
  for (const Term &T : Diff.Terms)
    Negated.Terms.push_back({T.Var, -Sign * T.Coeff});
  Negated.Constant = 1 - Constant;
  bool Proven = refute(Base, &Negated);
  Cache.LeVerdicts.emplace(Key, Proven);
  return Proven;
}

bool ConstraintSystem::eqCanonical(const Linear &Diff) {
  if (Diff.Terms.empty())
    return Diff.Constant == 0;
  return leCanonical(Diff, 1, 0) && leCanonical(Diff, -1, 0);
}

bool ConstraintSystem::leDiff(const AffineExpr &L, const AffineExpr &R,
                              int64_t Shift) {
  canonicalDiff(L, R, Shift, Work.Diff);
  return leCanonical(Work.Diff, 1, 0);
}

bool ConstraintSystem::proveLe(const AffineExpr &L, const AffineExpr &R) {
  QueryClock Clock;
  return leDiff(L, R);
}

bool ConstraintSystem::proveLt(const AffineExpr &L, const AffineExpr &R) {
  QueryClock Clock;
  return leDiff(L, R, 1);
}

bool ConstraintSystem::proveEq(const AffineExpr &L, const AffineExpr &R) {
  QueryClock Clock;
  canonicalDiff(L, R, 0, Work.Diff);
  return eqCanonical(Work.Diff);
}

bool ConstraintSystem::proveNe(const AffineExpr &L, const AffineExpr &R) {
  QueryClock Clock;
  Linear Diff;
  canonicalDiff(L, R, 0, Diff);
  if (Diff.Terms.empty())
    return Diff.Constant != 0;
  Linear &NDiff = Work.Diff;
  for (const RowSet::Row &N : NeFacts.Rows) {
    canonicalize(NeFacts.begin(N), NeFacts.end(N), N.Constant, NDiff);
    auto Matches = [&NDiff, &Diff](int64_t Sign) {
      if (NDiff.Constant != Sign * Diff.Constant ||
          NDiff.Terms.size() != Diff.Terms.size())
        return false;
      for (size_t I = 0; I < Diff.Terms.size(); ++I)
        if (NDiff.Terms[I].Var != Diff.Terms[I].Var ||
            NDiff.Terms[I].Coeff != Sign * Diff.Terms[I].Coeff)
          return false;
      return true;
    };
    if (Matches(1) || Matches(-1))
      return true;
  }
  // L < R, i.e. Diff + 1 <= 0; or R < L, i.e. 1 - Diff <= 0.
  return leCanonical(Diff, 1, 1) || leCanonical(Diff, -1, 1);
}

bool ConstraintSystem::congruentCanonical(Linear Cur, int64_t M, int64_t R) {
  int64_t Want = ((R % M) + M) % M;
  auto Done = [M, Want](const Linear &X) -> std::optional<bool> {
    for (const Term &T : X.Terms)
      if (T.Coeff % M != 0)
        return std::nullopt;
    int64_t C = ((X.Constant % M) + M) % M;
    return C == Want;
  };
  auto KeyOf = [](const Linear &X) {
    std::vector<int64_t> Key{X.Constant};
    for (const Term &T : X.Terms) {
      Key.push_back(T.Var);
      Key.push_back(T.Coeff);
    }
    return Key;
  };
  // Cur + Scale * By + Shift.
  auto AddScaled = [](const Linear &A, const Linear &By, int64_t Scale,
                      int64_t Shift) {
    Linear Out;
    size_t I = 0, J = 0;
    while (I < A.Terms.size() || J < By.Terms.size()) {
      if (J == By.Terms.size() ||
          (I < A.Terms.size() && A.Terms[I].Var < By.Terms[J].Var)) {
        Out.Terms.push_back(A.Terms[I++]);
      } else if (I == A.Terms.size() || By.Terms[J].Var < A.Terms[I].Var) {
        Out.Terms.push_back({By.Terms[J].Var, By.Terms[J].Coeff * Scale});
        ++J;
      } else {
        int64_t C = A.Terms[I].Coeff + By.Terms[J].Coeff * Scale;
        if (C != 0)
          Out.Terms.push_back({A.Terms[I].Var, C});
        ++I;
        ++J;
      }
    }
    Out.Constant = A.Constant + By.Constant * Scale + Shift;
    return Out;
  };
  auto CoeffOf = [](const Linear &X, uint32_t Var) -> int64_t {
    for (const Term &T : X.Terms)
      if (T.Var == Var)
        return T.Coeff;
    return 0;
  };

  // Reduce variables using congruence facts (subtracting t*(F.E - F.Rem)
  // changes nothing mod M when M | F.Mod) and equality facts (L - R = 0
  // may be subtracted any integer number of times). Congruences first —
  // equality rewriting alone can oscillate between aliases of the same
  // value; a visited set cuts any remaining cycles. Variables are tried
  // in name order.
  std::set<std::vector<int64_t>> Visited;
  Linear Fact;
  std::vector<Term> ByNameOrder;
  for (int Round = 0; Round < 16; ++Round) {
    if (auto Result = Done(Cur))
      return *Result;
    if (!Visited.insert(KeyOf(Cur)).second)
      break;
    bool Progress = false;
    ByNameOrder = Cur.Terms;
    std::sort(ByNameOrder.begin(), ByNameOrder.end(),
              [this](const Term &A, const Term &B) {
                return Rank[A.Var] < Rank[B.Var];
              });
    for (const auto &[Var, Coeff] : ByNameOrder) {
      if (Coeff % M == 0)
        continue;
      // Congruence facts with a compatible modulus.
      for (size_t F = 0; F < CongFacts.Rows.size(); ++F) {
        if (CongMods[F].Mod % M != 0)
          continue;
        const RowSet::Row &Row = CongFacts.Rows[F];
        canonicalize(CongFacts.begin(Row), CongFacts.end(Row), Row.Constant,
                     Fact);
        int64_t FC = CoeffOf(Fact, Var);
        if (FC == 0 || Coeff % FC != 0)
          continue;
        int64_t T = Coeff / FC;
        Linear Next = AddScaled(Cur, Fact, -T, CongMods[F].Rem * T);
        if (Visited.count(KeyOf(Next)))
          continue;
        Cur = std::move(Next);
        Progress = true;
        break;
      }
      if (Progress)
        break;
      // Equality facts.
      for (const RowSet::Row &Row : Equalities.Rows) {
        canonicalize(Equalities.begin(Row), Equalities.end(Row), Row.Constant,
                     Fact);
        int64_t DC = CoeffOf(Fact, Var);
        if (DC == 0 || Coeff % DC != 0)
          continue;
        Linear Next = AddScaled(Cur, Fact, -(Coeff / DC), 0);
        if (Visited.count(KeyOf(Next)))
          continue;
        Cur = std::move(Next);
        Progress = true;
        break;
      }
      if (Progress)
        break;
    }
    if (!Progress)
      break;
  }
  if (auto Result = Done(Cur))
    return *Result;
  return false;
}

bool ConstraintSystem::proveCongruent(const AffineExpr &E, int64_t M,
                                      int64_t R) {
  QueryClock Clock;
  assert(M >= 1 && "modulus must be positive");
  if (M == 1)
    return true;
  Linear Cur;
  canonicalDiff(E, AffineExpr(), 0, Cur);
  return congruentCanonical(std::move(Cur), M, R);
}

bool ConstraintSystem::equivVars(const std::string &X, const std::string &Y) {
  QueryClock Clock;
  if (X == Y)
    return true;
  rebuildClosure();
  uint32_t IX = intern(X), IY = intern(Y);
  if (Rep[IX] == Rep[IY])
    return true;
  Term Raw[2] = {{IX, 1}, {IY, -1}};
  canonicalize(Raw, Raw + 2, 0, Work.Diff);
  return eqCanonical(Work.Diff);
}

bool ConstraintSystem::proveRangeSubset(const SymbolicRange &Sub,
                                        const SymbolicRange &Sup) {
  QueryClock Clock;
  auto Aligned = [this, &Sub, &Sup]() {
    Linear Offset;
    canonicalDiff(Sub.Begin, Sup.Begin, 0, Offset);
    return congruentCanonical(std::move(Offset), Sup.Stride, 0);
  };
  // A provably empty Sub is a subset of anything.
  if (leDiff(Sub.End, Sub.Begin))
    return true;
  // Singletons need membership, not stride divisibility.
  if (Sub.isSingleton()) {
    if (!leDiff(Sup.Begin, Sub.Begin) || !leDiff(Sub.Begin, Sup.End, 1))
      return false;
    return Sup.Stride == 1 || Aligned();
  }
  if (Sub.Stride % Sup.Stride != 0)
    return false;
  if (!leDiff(Sup.Begin, Sub.Begin) || !leDiff(Sub.End, Sup.End))
    return false;
  if (Sup.Stride == 1)
    return true;
  // Alignment: (Sub.Begin - Sup.Begin) must be a multiple of Sup.Stride.
  return Aligned();
}

bool ConstraintSystem::inconsistent() {
  QueryClock Clock;
  if (!Cache.Inconsistent)
    Cache.Inconsistent = refute(baseRows(), nullptr);
  return *Cache.Inconsistent;
}
