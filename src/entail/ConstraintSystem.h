//===- ConstraintSystem.h - Entailment engine (Z3 stand-in) ----*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision procedure behind history/anticipated entailment (Section
/// 3.4: H |- h and H•A |- a). The paper discharges these queries with Z3;
/// the queries BigFoot actually emits are conjunctions of affine
/// (in)equalities over locals plus heap alias expressions (Section 5), so
/// a small dedicated engine decides them:
///
///  * a congruence closure over variables and alias terms (x = y.f,
///    x = y[i]) handles designator equivalence, and
///  * Fourier-Motzkin refutation over the affine facts proves equalities
///    and inequalities (sound: the rational relaxation only ever proves
///    valid integer facts).
///
/// Internally a system interns every variable and alias-term name once
/// into a dense id; rows, the union-find and the verdict cache all work
/// on ids. Every choice that can change a verdict still follows the
/// names: Fourier-Motzkin eliminates the cheapest variable with ties to
/// the lexicographically smallest name, and a congruence class is named
/// by its lexicographically smallest member.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_ENTAIL_CONSTRAINTSYSTEM_H
#define BIGFOOT_ENTAIL_CONSTRAINTSYSTEM_H

#include "support/AffineExpr.h"

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace bigfoot {

/// While alive, accumulates the wall time this thread spends inside
/// ConstraintSystem queries (nested queries count once). This is how the
/// share of StaticBF time spent in entailment — the paper's "time in Z3"
/// datum (Section 6.1) — is measured. Profiles nest; the innermost one
/// collects. With no profile alive, a query reads no clock.
class EntailmentProfile {
public:
  EntailmentProfile();
  ~EntailmentProfile();
  EntailmentProfile(const EntailmentProfile &) = delete;
  EntailmentProfile &operator=(const EntailmentProfile &) = delete;

  double seconds() const { return Seconds; }
  uint64_t queries() const { return Queries; }

private:
  friend class ConstraintSystem;
  EntailmentProfile *Outer;
  double Seconds = 0;
  uint64_t Queries = 0;
  unsigned Depth = 0;
};

/// A conjunction of facts plus queries against them. Build one, add the
/// facts of a history context, then ask entailment questions. Queries are
/// conservative: "false" means "not provable", never "disproved".
///
/// A system answers many queries from one build: it caches its canonical
/// base rows, the inconsistent() verdict and every proveLe verdict (keyed
/// by the canonical row of L - R). An add* call that can change them
/// drops all three, so a cached answer is always the one a fresh system
/// with the same facts would give.
///
/// pushScope()/popScope() bracket temporary facts, such as the probe
/// alias of an alias-entailment query: popScope() drops the facts added
/// since the matching pushScope() and restores the caches as they were,
/// so every later query answers as if the scope had never been opened.
class ConstraintSystem {
public:
  /// Adds the fact L == R.
  void addEquality(const AffineExpr &L, const AffineExpr &R);

  /// Adds the fact L <= R.
  void addLe(const AffineExpr &L, const AffineExpr &R);

  /// Adds the fact L < R (as L + 1 <= R; BFJ integers are mathematical).
  void addLt(const AffineExpr &L, const AffineExpr &R);

  /// Adds the fact L != R. Disequalities do not feed the linear solver;
  /// they only support proveNe.
  void addNe(const AffineExpr &L, const AffineExpr &R);

  /// Adds the fact E ≡ R (mod M). Congruences carry the divisibility
  /// knowledge (e.g. "i is even") that strided-range alignment proofs
  /// need; the paper obtains it from induction-variable trip counts.
  void addCongruence(const AffineExpr &E, int64_t M, int64_t R);

  /// Adds the heap alias fact X = Y.F (field read while race-free).
  void addFieldAlias(const std::string &X, const std::string &Y,
                     const std::string &F);

  /// Adds the heap alias fact X = Y[Index].
  void addArrayAlias(const std::string &X, const std::string &Y,
                     const AffineExpr &Index);

  /// True if the facts entail L == R.
  bool proveEq(const AffineExpr &L, const AffineExpr &R);

  /// True if the facts entail L <= R.
  bool proveLe(const AffineExpr &L, const AffineExpr &R);

  /// True if the facts entail L < R.
  bool proveLt(const AffineExpr &L, const AffineExpr &R);

  /// True if the facts entail L != R (constant difference, a recorded
  /// disequality, or a strict bound).
  bool proveNe(const AffineExpr &L, const AffineExpr &R);

  /// True if the facts entail E ≡ R (mod M). Reduces E with equality and
  /// congruence facts until only a constant residue remains.
  bool proveCongruent(const AffineExpr &E, int64_t M, int64_t R);

  /// True if variables X and Y must denote the same value (congruence or
  /// linear equality).
  bool equivVars(const std::string &X, const std::string &Y);

  /// True if the facts entail that range Sub (with literal stride) is a
  /// subset of range Sup: Sup.Begin <= Sub.Begin, Sub.End <= Sup.End,
  /// stride divisibility, and alignment — or Sub is provably empty.
  bool proveRangeSubset(const SymbolicRange &Sub, const SymbolicRange &Sup);

  /// True if the facts are *detectably* inconsistent (e.g. both branches
  /// of an if added contradictory tests). Used to prune dead merge arms.
  bool inconsistent();

  /// Opens a scope of temporary facts; see the class comment.
  void pushScope();
  /// Drops the facts added since the matching pushScope().
  void popScope();

  /// A pushScope() that its destructor pops.
  class Scope {
  public:
    explicit Scope(ConstraintSystem &CS) : CS(CS) { CS.pushScope(); }
    ~Scope() { CS.popScope(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    ConstraintSystem &CS;
  };

  /// How many times this system has built its canonical base rows.
  uint64_t rowBuilds() const { return RowBuilds; }

private:
  /// Charges one top-level query to the active EntailmentProfile.
  class QueryClock;

  /// One term of a row: an interned variable and a nonzero coefficient.
  struct Term {
    uint32_t Var;
    int64_t Coeff;
  };

  /// Rows stored back to back in one term arena. A row reads
  /// Terms[Begin, Begin + Size) + Constant, with its terms sorted by id;
  /// a base or Fourier-Motzkin row means "... <= 0".
  struct RowSet {
    struct Row {
      uint32_t Begin;
      uint32_t Size;
      int64_t Constant;
    };
    std::vector<Term> Terms;
    std::vector<Row> Rows;

    void clear() {
      Terms.clear();
      Rows.clear();
    }
    const Term *begin(const Row &R) const { return Terms.data() + R.Begin; }
    const Term *end(const Row &R) const {
      return Terms.data() + R.Begin + R.Size;
    }
    /// Closes a row over the terms appended since \p Begin.
    void close(size_t Begin, int64_t Constant) {
      Rows.push_back({static_cast<uint32_t>(Begin),
                      static_cast<uint32_t>(Terms.size() - Begin),
                      Constant});
    }
  };

  /// A loose affine row, sorted by id.
  struct Linear {
    std::vector<Term> Terms;
    int64_t Constant = 0;
  };

  struct CanonKeyHash {
    size_t operator()(const std::vector<int64_t> &Key) const;
  };

  //===--- Interned names --------------------------------------------------
  std::vector<std::string> Names; ///< Id -> name.
  std::vector<uint32_t> ByName;   ///< Ids in name order.
  std::vector<uint32_t> Rank;     ///< Id -> position in ByName.
  /// Id -> value, for the "#const:N" names that equalities to a
  /// constant join their variable to.
  std::vector<std::optional<int64_t>> ConstOf;

  uint32_t intern(const std::string &Name);

  //===--- Facts, as uncanonicalized rows of L - R -------------------------
  RowSet Equalities;
  RowSet LeFacts;
  RowSet NeFacts;
  RowSet CongFacts;
  struct CongMod {
    int64_t Mod;
    int64_t Rem;
  };
  std::vector<CongMod> CongMods;

  struct AliasFact {
    uint32_t X;
    uint32_t Base;
    bool IsArray;
    std::string Field;
    AffineExpr Index;
  };
  std::vector<AliasFact> Aliases;

  /// Sorts \p Terms by id, sums the coefficients of equal ids and drops
  /// the zeros.
  static void normalize(std::vector<Term> &Terms);
  /// Appends L - R + Shift to \p Out as one raw row.
  void addRawRow(RowSet &Out, const AffineExpr &L, const AffineExpr &R,
                 int64_t Shift);

  //===--- Congruence closure over ids -------------------------------------
  std::vector<uint32_t> Parent; ///< Union-find; rebuilt lazily.
  std::vector<uint32_t> Rep;    ///< Id -> class representative.
  bool ClosureDirty = true;

  uint32_t find(uint32_t Id);
  void unite(uint32_t A, uint32_t B);
  void rebuildClosure();

  //===--- Caches over the current facts -----------------------------------
  struct Derived {
    /// Canonical, tightened rows of the equality and <= facts.
    RowSet Base;
    bool HaveBase = false;
    std::optional<bool> Inconsistent;
    /// Canonical row of L - R (constant, then id/coefficient pairs) ->
    /// proveLe verdict.
    std::unordered_map<std::vector<int64_t>, bool, CanonKeyHash> LeVerdicts;
  };
  Derived Cache;
  uint64_t RowBuilds = 0;

  /// The facts changed in a way that can move a verdict.
  void invalidate();

  struct ScopeFrame {
    size_t NumEq, NumLe, NumNe, NumCong, NumAliases;
    std::vector<uint32_t> Rep;
    /// The enclosing scope's caches, while this scope cannot share them.
    Derived Saved;
    /// True while Cache still holds the enclosing scope's caches: no
    /// equality or <= fact was added, and every name the enclosing scope
    /// knew keeps its representative, so its rows and verdicts hold here.
    bool Shared = true;
  };
  std::vector<ScopeFrame> Scopes;

  //===--- Canonical rows and queries --------------------------------------
  /// Rewrites raw terms to their representatives (folding constants),
  /// sorted by id with no zero coefficients.
  void canonicalize(const Term *B, const Term *E, int64_t Constant,
                    Linear &Out);
  /// Canonical L - R + Shift.
  void canonicalDiff(const AffineExpr &L, const AffineExpr &R, int64_t Shift,
                     Linear &Out);

  const RowSet &baseRows();

  /// True if the facts entail Sign * Diff + Shift <= 0.
  bool leCanonical(const Linear &Diff, int64_t Sign, int64_t Shift);
  bool eqCanonical(const Linear &Diff);
  bool leDiff(const AffineExpr &L, const AffineExpr &R, int64_t Shift = 0);
  bool congruentCanonical(Linear Cur, int64_t M, int64_t R);

  //===--- Fourier-Motzkin --------------------------------------------------
  /// True if the base rows plus the goal row (when non-null) are
  /// infeasible.
  bool refute(const RowSet &Base, const Linear *Goal);
  /// Appends the P * CN + N * CP combination without Var to Next; false
  /// (and nothing appended) when a coefficient passes the cap.
  bool combine(const RowSet &Rows, const RowSet::Row &P, int64_t CN,
               const RowSet::Row &N, int64_t CP, uint32_t Var,
               RowSet &Next) const;

  /// Buffers reused across queries: Fourier-Motzkin's rows, counts and
  /// partition, the query's canonical difference (Diff), a scratch row
  /// for raw terms, base rows and the negated goal (Other), and the
  /// verdict-cache key.
  struct Workspace {
    RowSet Cur, Next;
    struct Count {
      uint32_t Pos = 0, Neg = 0;
    };
    std::vector<Count> Counts;
    std::vector<uint32_t> Touched;
    /// Row index and the position of the eliminated variable in it.
    std::vector<std::pair<uint32_t, uint32_t>> Pos, Neg;
    Linear Diff, Other;
    std::vector<int64_t> Key;
  };
  Workspace Work;
};

} // namespace bigfoot

#endif // BIGFOOT_ENTAIL_CONSTRAINTSYSTEM_H
