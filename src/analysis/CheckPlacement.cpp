//===- CheckPlacement.cpp - The StaticBF check placement analysis ----------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "analysis/CheckPlacement.h"

#include "analysis/Coalesce.h"
#include "analysis/HistoryContext.h"
#include "analysis/Rename.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <set>

using namespace bigfoot;

namespace {

/// How a statement interacts with the happens-before graph.
enum class SyncKind {
  None,
  DirectAcquire, ///< acq, join, volatile read: accesses/checks persist.
  DirectRelease, ///< rel, fork, volatile write: accesses+checks dropped.
  CallAcquire,   ///< call that may acquire: accesses dropped, checks kept.
  CallRelease,   ///< call that may release: accesses+checks dropped.
  CallBoth,      ///< call that may do both.
  Barrier,       ///< await / $g-sync access: release then acquire.
};

bool isAcquireSide(SyncKind K) {
  return K == SyncKind::DirectAcquire || K == SyncKind::CallAcquire ||
         K == SyncKind::CallBoth || K == SyncKind::Barrier;
}

/// One per-body run of the three placement passes.
class BodyAnalyzer {
public:
  BodyAnalyzer(const Program &Prog, const KillSets &Kills,
               const PlacementOptions &Opts, PlacementStats &Stats)
      : Prog(Prog), Kills(Kills), Opts(Opts), Stats(Stats) {}

  void run(StmtPtr &Body) {
    auto *Block = cast<BlockStmt>(Body.get());
    passA(Block, History());
    passB(Block, Anticipated());
    History Final = passC(Block, History());
    // [STMT]: check everything still pending at the end of the body.
    appendCheck(Block, checksFor(Final, Anticipated()), Final);
  }

  /// Emits the per-statement contexts; call after statement renumbering.
  void recordTraceFor(const Stmt *Body) { recordTrace(Body); }

  /// Removes the checks a run() that did not finish inserted into \p S,
  /// and takes them off the placement totals.
  void undo(Stmt *S) {
    if (auto *Block = dyn_cast<BlockStmt>(S)) {
      auto &Stmts = Block->stmts();
      auto Undone = [this](const StmtPtr &Child) {
        if (!Inserted.count(Child.get()))
          return false;
        Stats.ChecksInserted--;
        Stats.PathsInserted -= static_cast<unsigned>(
            cast<CheckStmt>(Child.get())->paths().size());
        return true;
      };
      Stmts.erase(std::remove_if(Stmts.begin(), Stmts.end(), Undone),
                  Stmts.end());
      for (StmtPtr &Child : Stmts)
        undo(Child.get());
    } else if (auto *If = dyn_cast<IfStmt>(S)) {
      undo(If->thenStmt());
      undo(If->elseStmt());
    } else if (auto *Loop = dyn_cast<LoopStmt>(S)) {
      undo(Loop->preBody());
      undo(Loop->postBody());
    }
  }

private:
  const Program &Prog;
  const KillSets &Kills;
  const PlacementOptions &Opts;
  PlacementStats &Stats;
  std::set<const Stmt *> Inserted; ///< The check statements run() added.

  std::map<const Stmt *, History> PreH, PostH;   // Pass 1 annotations.
  std::map<const Stmt *, Anticipated> PreA, PostA; // Pass 2 annotations.
  std::map<const LoopStmt *, History> LoopInv;
  std::map<const LoopStmt *, Anticipated> LoopAin;
  std::map<const Stmt *, History> PostHC; // Pass 3 (with check facts).

  //===--------------------------------------------------------------------===
  // Statement classification.
  //===--------------------------------------------------------------------===

  bool isVolatileField(const std::string &Field) const {
    return Prog.isFieldVolatileAnywhere(Field);
  }

  bool isGlobalSyncAccess(const Stmt *S) const {
    if (!Opts.Sync.GlobalFieldsSynchronize)
      return false;
    if (const auto *F = dyn_cast<FieldReadStmt>(S))
      return F->object() == "$g";
    if (const auto *F = dyn_cast<FieldWriteStmt>(S))
      return F->object() == "$g";
    return false;
  }

  SyncKind syncKind(const Stmt *S) const {
    switch (S->kind()) {
    case StmtKind::Acquire:
    case StmtKind::Join:
      return SyncKind::DirectAcquire;
    case StmtKind::Release:
    case StmtKind::Fork:
      return SyncKind::DirectRelease;
    case StmtKind::Await:
      return SyncKind::Barrier;
    case StmtKind::FieldRead:
      if (isVolatileField(cast<FieldReadStmt>(S)->field()))
        return SyncKind::DirectAcquire;
      if (isGlobalSyncAccess(S))
        return SyncKind::Barrier;
      return SyncKind::None;
    case StmtKind::FieldWrite:
      if (isVolatileField(cast<FieldWriteStmt>(S)->field()))
        return SyncKind::DirectRelease;
      if (isGlobalSyncAccess(S))
        return SyncKind::Barrier;
      return SyncKind::None;
    case StmtKind::Call: {
      SyncEffect E = Kills.effectOf(cast<CallStmt>(S)->method());
      if (E.Acquires && E.Releases)
        return SyncKind::CallBoth;
      if (E.Acquires)
        return SyncKind::CallAcquire;
      if (E.Releases)
        return SyncKind::CallRelease;
      return SyncKind::None;
    }
    default:
      return SyncKind::None;
    }
  }

  bool bodyHasReleaseEffect(const LoopStmt *Loop) const {
    bool Found = false;
    auto Scan = [this, &Found](Stmt *S) {
      if (Kills.directEffect(S).Releases)
        Found = true;
      if (const auto *Call = dyn_cast<CallStmt>(S))
        if (Kills.effectOf(Call->method()).Releases)
          Found = true;
      if (isGlobalSyncAccess(S))
        Found = true;
    };
    walkStmt(Loop->preBody(), Scan);
    walkStmt(Loop->postBody(), Scan);
    return Found;
  }

  //===--------------------------------------------------------------------===
  // Shared history transfer for non-control statements.
  //===--------------------------------------------------------------------===

  History stepStmt(const History &In, const Stmt *S) const {
    History H = In;
    switch (syncKind(S)) {
    case SyncKind::DirectAcquire:
      return H.afterAcquire();
    case SyncKind::DirectRelease:
      return H.afterRelease();
    case SyncKind::CallAcquire: {
      History Out = H.afterAcquire();
      Out.Accesses.clear();
      return Out;
    }
    case SyncKind::CallRelease:
    case SyncKind::CallBoth:
      return H.afterRelease();
    case SyncKind::Barrier: {
      History Out = H.afterRelease();
      // $g accesses are real accesses on top of the synchronization.
      if (const auto *F = dyn_cast<FieldReadStmt>(S)) {
        Out.addAccess(
            Path::field(AccessKind::Read, F->object(), F->field()));
      } else if (const auto *F2 = dyn_cast<FieldWriteStmt>(S)) {
        Out.addAccess(
            Path::field(AccessKind::Write, F2->object(), F2->field()));
      }
      return Out;
    }
    case SyncKind::None:
      break;
    }

    switch (S->kind()) {
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      if (auto E = toAffine(A->value()))
        H.addBool({RelOp::Eq, AffineExpr::variable(A->target()), *E});
      return H;
    }
    case StmtKind::Rename: {
      // [RENAME] x ← y replaces mentions of y by x.
      const auto *R = cast<RenameStmt>(S);
      return H.renamed(R->source(), R->target());
    }
    case StmtKind::FieldRead: {
      const auto *F = cast<FieldReadStmt>(S);
      AliasFact Alias;
      Alias.IsArray = false;
      Alias.X = F->target();
      Alias.Base = F->object();
      Alias.Field = F->field();
      H.addAlias(std::move(Alias));
      H.addAccess(Path::field(AccessKind::Read, F->object(), F->field()));
      return H;
    }
    case StmtKind::FieldWrite: {
      const auto *F = cast<FieldWriteStmt>(S);
      H.invalidateAliasesForFieldWrite(F->field());
      H.addAccess(Path::field(AccessKind::Write, F->object(), F->field()));
      return H;
    }
    case StmtKind::ArrayRead: {
      const auto *A = cast<ArrayReadStmt>(S);
      std::optional<AffineExpr> Idx = toAffine(A->index());
      assert(Idx && "validator guarantees affine indices");
      AliasFact Alias;
      Alias.IsArray = true;
      Alias.X = A->target();
      Alias.Base = A->array();
      Alias.Index = *Idx;
      H.addAlias(std::move(Alias));
      H.addAccess(Path::arrayIndex(AccessKind::Read, A->array(), *Idx));
      return H;
    }
    case StmtKind::ArrayWrite: {
      const auto *A = cast<ArrayWriteStmt>(S);
      std::optional<AffineExpr> Idx = toAffine(A->index());
      assert(Idx && "validator guarantees affine indices");
      H.invalidateAliasesForArrayWrite();
      H.addAccess(Path::arrayIndex(AccessKind::Write, A->array(), *Idx));
      return H;
    }
    case StmtKind::ArrayLen: {
      const auto *A = cast<ArrayLenStmt>(S);
      AliasFact Alias;
      Alias.IsArray = false;
      Alias.X = A->target();
      Alias.Base = A->array();
      Alias.Field = "$len";
      H.addAlias(std::move(Alias));
      H.addBool({RelOp::Le, AffineExpr::constant(0),
                 AffineExpr::variable(A->target())});
      return H;
    }
    case StmtKind::AssertStmt:
      H.addCondition(cast<AssertStmtNode>(S)->cond(), /*Negated=*/false);
      return H;
    case StmtKind::Check:
      for (const Path &P : cast<CheckStmt>(S)->paths())
        H.addCheck(P);
      return H;
    default:
      return H;
    }
  }

  //===--------------------------------------------------------------------===
  // Pass 1: forward history.
  //===--------------------------------------------------------------------===

  History passA(Stmt *S, History In) {
    PreH[S] = In;
    History Out;
    switch (S->kind()) {
    case StmtKind::Block: {
      History H = std::move(In);
      for (auto &Child : cast<BlockStmt>(S)->stmts())
        H = passA(Child.get(), std::move(H));
      Out = std::move(H);
      break;
    }
    case StmtKind::If: {
      auto *If = cast<IfStmt>(S);
      History H1 = PreH[S];
      H1.addCondition(If->cond(), /*Negated=*/false);
      History H2 = PreH[S];
      H2.addCondition(If->cond(), /*Negated=*/true);
      History Then = passA(If->thenStmt(), std::move(H1));
      History Else = passA(If->elseStmt(), std::move(H2));
      Out = History::meet(Then, Else);
      break;
    }
    case StmtKind::Loop:
      Out = passALoop(cast<LoopStmt>(S), PreH[S]);
      break;
    default:
      Out = stepStmt(PreH[S], S);
      break;
    }
    PostH[S] = Out;
    return Out;
  }

  static bool sameFacts(const History &A, const History &B) {
    return A.Bools.size() == B.Bools.size() &&
           A.Aliases.size() == B.Aliases.size() &&
           A.Accesses.size() == B.Accesses.size() &&
           A.Checks.size() == B.Checks.size();
  }

  History passALoop(LoopStmt *Loop, const History &In) {
    History Candidates = In;
    if (Opts.HoistLoopChecks)
      addInductionGuesses(Loop, In, Candidates);

    History H1;
    for (int Iter = 0; Iter < 6; ++Iter) {
      H1 = passA(Loop->preBody(), Candidates);
      History Cont = H1;
      Cont.addCondition(Loop->exitCond(), /*Negated=*/true);
      History Back = passA(Loop->postBody(), std::move(Cont));

      History Refined;
      ConstraintSystem InCS = In.constraints();
      ConstraintSystem BackCS = Back.constraints();
      auto KeepIf = [&](auto &&Facts, auto Ent, auto Add) {
        for (const auto &Fact : Facts)
          if ((In.*Ent)(Fact, InCS) && (Back.*Ent)(Fact, BackCS))
            (Refined.*Add)(Fact);
      };
      KeepIf(Candidates.Bools, &History::entailsBool, &History::addBool);
      KeepIf(Candidates.Aliases, &History::entailsAlias, &History::addAlias);
      KeepIf(Candidates.Accesses, &History::entailsAccess,
             &History::addAccess);
      KeepIf(Candidates.Checks, &History::entailsCheck, &History::addCheck);
      if (sameFacts(Refined, Candidates))
        break;
      Candidates = std::move(Refined);
    }
    LoopInv[Loop] = Candidates;
    // Final annotation run with the converged invariant.
    H1 = passA(Loop->preBody(), Candidates);
    History Cont = H1;
    Cont.addCondition(Loop->exitCond(), /*Negated=*/true);
    passA(Loop->postBody(), std::move(Cont));
    History Out = std::move(H1);
    Out.addCondition(Loop->exitCond(), /*Negated=*/false);
    return Out;
  }

  //===--------------------------------------------------------------------===
  // Loop invariant heuristics (Cartesian predicate abstraction, Sec. 5).
  //===--------------------------------------------------------------------===

  struct Induction {
    std::string Var;
    int64_t Step = 0;
    AffineExpr Entry; ///< Value of Var on loop entry, over stable vars.
    bool HasEntry = false;
  };

  void addInductionGuesses(LoopStmt *Loop, const History &In,
                           History &Candidates) const {
    // Variables assigned anywhere in the body are "unstable".
    std::set<std::string> Assigned;
    auto CollectAssigned = [&Assigned](Stmt *S) {
      switch (S->kind()) {
      case StmtKind::Assign:
        Assigned.insert(cast<AssignStmt>(S)->target());
        break;
      case StmtKind::Rename:
        Assigned.insert(cast<RenameStmt>(S)->target());
        break;
      case StmtKind::FieldRead:
        Assigned.insert(cast<FieldReadStmt>(S)->target());
        break;
      case StmtKind::ArrayRead:
        Assigned.insert(cast<ArrayReadStmt>(S)->target());
        break;
      case StmtKind::ArrayLen:
        Assigned.insert(cast<ArrayLenStmt>(S)->target());
        break;
      case StmtKind::New:
        Assigned.insert(cast<NewStmt>(S)->target());
        break;
      case StmtKind::NewArray:
        Assigned.insert(cast<NewArrayStmt>(S)->target());
        break;
      case StmtKind::Call:
        Assigned.insert(cast<CallStmt>(S)->target());
        break;
      case StmtKind::Fork:
        Assigned.insert(cast<ForkStmt>(S)->target());
        break;
      default:
        break;
      }
    };
    walkStmt(Loop->preBody(), CollectAssigned);
    walkStmt(Loop->postBody(), CollectAssigned);

    auto Stable = [&Assigned](const AffineExpr &E) {
      for (const std::string &V : E.variables())
        if (Assigned.count(V))
          return false;
      return true;
    };

    // Rename targets: t := s pairs in the body.
    std::map<std::string, std::string> RenameOf; // target -> source.
    auto CollectRenames = [&RenameOf](Stmt *S) {
      if (const auto *R = dyn_cast<RenameStmt>(S))
        RenameOf[R->target()] = R->source();
    };
    walkStmt(Loop->preBody(), CollectRenames);
    walkStmt(Loop->postBody(), CollectRenames);

    // Induction variables: x = x' + c where x' := x was renamed.
    std::vector<Induction> Inductions;
    auto CollectInductions = [this, &RenameOf, &In, &Assigned,
                              &Inductions](Stmt *S) {
      const auto *A = dyn_cast<AssignStmt>(S);
      if (!A)
        return;
      std::optional<AffineExpr> E = toAffine(A->value());
      if (!E)
        return;
      // E must be exactly x' + c with RenameOf[x'] == x.
      const auto &Terms = E->terms();
      if (Terms.size() != 1 || Terms.begin()->second != 1)
        return;
      auto It = RenameOf.find(Terms.begin()->first);
      if (It == RenameOf.end() || It->second != A->target())
        return;
      Induction Ind;
      Ind.Var = A->target();
      Ind.Step = E->constantPart();
      if (Ind.Step == 0)
        return;
      findEntryValue(In, Ind, Assigned);
      Inductions.push_back(std::move(Ind));
    };
    walkStmt(Loop->preBody(), CollectInductions);
    walkStmt(Loop->postBody(), CollectInductions);

    for (const Induction &Ind : Inductions) {
      if (!Ind.HasEntry)
        continue;
      AffineExpr X = AffineExpr::variable(Ind.Var);
      // Trip-direction bound.
      if (Ind.Step > 0)
        Candidates.addBool({RelOp::Le, Ind.Entry, X});
      else
        Candidates.addBool({RelOp::Le, X, Ind.Entry});
      // Alignment: X stays congruent to its entry value mod the step
      // (the trip-count fact strided invariants need).
      int64_t AbsStep = Ind.Step > 0 ? Ind.Step : -Ind.Step;
      if (AbsStep > 1) {
        BoolFact Cong;
        Cong.Op = RelOp::Cong;
        Cong.L = X;
        Cong.R = Ind.Entry;
        Cong.Mod = AbsStep;
        Candidates.addBool(std::move(Cong));
      }

      // Accumulated access ranges for each array access indexed by the
      // induction variable.
      auto GuessForAccess = [&](const std::string &Array,
                                const AffineExpr &Idx, AccessKind Kind) {
        if (Assigned.count(Array))
          return;
        auto It = Idx.terms().find(Ind.Var);
        if (It == Idx.terms().end())
          return;
        int64_t M = It->second;
        // Other index variables must be stable.
        AffineExpr Rest = Idx.substitute(Ind.Var, AffineExpr::constant(0));
        if (!Stable(Rest))
          return;
        int64_t EffStep = Ind.Step * M;
        AffineExpr IdxAtEntry = Idx.substitute(Ind.Var, Ind.Entry);
        SymbolicRange Guess;
        if (EffStep > 0)
          Guess = SymbolicRange(IdxAtEntry, Idx, EffStep);
        else
          Guess = SymbolicRange(Idx - EffStep, IdxAtEntry + 1, -EffStep);
        Candidates.addAccess(Path::array(Kind, Array, std::move(Guess)));
      };
      auto ScanAccesses = [&GuessForAccess](Stmt *S) {
        if (const auto *A = dyn_cast<ArrayReadStmt>(S)) {
          if (auto Idx = toAffine(A->index()))
            GuessForAccess(A->array(), *Idx, AccessKind::Read);
        } else if (const auto *W = dyn_cast<ArrayWriteStmt>(S)) {
          if (auto Idx = toAffine(W->index()))
            GuessForAccess(W->array(), *Idx, AccessKind::Write);
        }
      };
      walkStmt(Loop->preBody(), ScanAccesses);
      walkStmt(Loop->postBody(), ScanAccesses);
    }
  }

  /// Finds an entry-value expression for Ind.Var from the loop-entry
  /// history: an equality fact solvable as Var = E over stable variables.
  static void findEntryValue(const History &In, Induction &Ind,
                             const std::set<std::string> &Assigned) {
    for (const BoolFact &Fact : In.Bools) {
      if (Fact.Op != RelOp::Eq)
        continue;
      AffineExpr Diff = Fact.L - Fact.R;
      auto It = Diff.terms().find(Ind.Var);
      if (It == Diff.terms().end())
        continue;
      int64_t C = It->second;
      if (C != 1 && C != -1)
        continue;
      // Diff = C*Var + Rest = 0  =>  Var = -Rest * C.
      AffineExpr Rest = Diff.substitute(Ind.Var, AffineExpr::constant(0));
      AffineExpr Entry = (-Rest) * C;
      bool IsStable = true;
      for (const std::string &V : Entry.variables())
        if (Assigned.count(V))
          IsStable = false;
      if (!IsStable)
        continue;
      Ind.Entry = Entry;
      Ind.HasEntry = true;
      return;
    }
  }

  //===--------------------------------------------------------------------===
  // Pass 2: backward anticipated accesses.
  //===--------------------------------------------------------------------===

  Anticipated passB(Stmt *S, Anticipated Out) {
    PostA[S] = Out;
    Anticipated In;
    switch (S->kind()) {
    case StmtKind::Block: {
      auto &Stmts = cast<BlockStmt>(S)->stmts();
      Anticipated A = std::move(Out);
      for (auto It = Stmts.rbegin(); It != Stmts.rend(); ++It)
        A = passB(It->get(), std::move(A));
      In = std::move(A);
      break;
    }
    case StmtKind::If: {
      auto *If = cast<IfStmt>(S);
      Anticipated A1 = passB(If->thenStmt(), Out);
      Anticipated A2 = passB(If->elseStmt(), Out);
      In = meetAnticipated(PreH[If->thenStmt()], A1, PreH[If->elseStmt()],
                           A2);
      break;
    }
    case StmtKind::Loop:
      In = passBLoop(cast<LoopStmt>(S), Out);
      break;
    default:
      In = stepB(S, std::move(Out));
      break;
    }
    PreA[S] = In;
    return In;
  }

  Anticipated stepB(const Stmt *S, Anticipated Out) const {
    switch (syncKind(S)) {
    case SyncKind::DirectAcquire:
    case SyncKind::CallAcquire:
    case SyncKind::CallBoth:
    case SyncKind::Barrier:
      return Anticipated(); // [ACQ]: pre-anticipated must be empty.
    case SyncKind::DirectRelease:
      if (const auto *F = dyn_cast<ForkStmt>(S))
        return removeVar(Out, F->target());
      return Out; // Releases do not kill anticipation.
    case SyncKind::CallRelease:
      return removeVar(Out, cast<CallStmt>(S)->target());
    case SyncKind::None:
      break;
    }
    switch (S->kind()) {
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      return substituteAnticipated(Out, A->target(), toAffine(A->value()));
    }
    case StmtKind::Rename: {
      const auto *R = cast<RenameStmt>(S);
      return renameAnticipated(Out, R->target(), R->source());
    }
    case StmtKind::New:
      return removeVar(Out, cast<NewStmt>(S)->target());
    case StmtKind::NewArray:
      return removeVar(Out, cast<NewArrayStmt>(S)->target());
    case StmtKind::NewBarrier:
      return removeVar(Out, cast<NewBarrierStmt>(S)->target());
    case StmtKind::ArrayLen:
      return removeVar(Out, cast<ArrayLenStmt>(S)->target());
    case StmtKind::Call:
      return removeVar(Out, cast<CallStmt>(S)->target());
    case StmtKind::FieldRead: {
      const auto *F = cast<FieldReadStmt>(S);
      Anticipated In = removeVar(Out, F->target());
      if (Opts.UseAnticipation)
        addAnticipated(In, Path::field(AccessKind::Read, F->object(),
                                       F->field()));
      return In;
    }
    case StmtKind::FieldWrite: {
      const auto *F = cast<FieldWriteStmt>(S);
      if (Opts.UseAnticipation)
        addAnticipated(Out, Path::field(AccessKind::Write, F->object(),
                                        F->field()));
      return Out;
    }
    case StmtKind::ArrayRead: {
      const auto *A = cast<ArrayReadStmt>(S);
      Anticipated In = removeVar(Out, A->target());
      if (Opts.UseAnticipation)
        if (auto Idx = toAffine(A->index()))
          addAnticipated(In,
                         Path::arrayIndex(AccessKind::Read, A->array(),
                                          *Idx));
      return In;
    }
    case StmtKind::ArrayWrite: {
      const auto *A = cast<ArrayWriteStmt>(S);
      if (Opts.UseAnticipation)
        if (auto Idx = toAffine(A->index()))
          addAnticipated(Out,
                         Path::arrayIndex(AccessKind::Write, A->array(),
                                          *Idx));
      return Out;
    }
    default:
      return Out;
    }
  }

  static bool sameAnticipated(Anticipated A, Anticipated B) {
    std::sort(A.begin(), A.end());
    std::sort(B.begin(), B.end());
    return A == B;
  }

  Anticipated passBLoop(LoopStmt *Loop, const Anticipated &Aout) {
    // Seed with every access path in the body plus the continuation's
    // anticipated set, then shrink to a consistent fixed point. Any fixed
    // point is sound; failing to converge falls back to the empty set
    // (which only costs precision).
    Anticipated Head;
    if (Opts.UseAnticipation) {
      auto Collect = [&Head](Stmt *S) {
        if (const auto *A = dyn_cast<ArrayReadStmt>(S)) {
          if (auto Idx = toAffine(A->index()))
            addAnticipated(Head, Path::arrayIndex(AccessKind::Read,
                                                  A->array(), *Idx));
        } else if (const auto *W = dyn_cast<ArrayWriteStmt>(S)) {
          if (auto Idx = toAffine(W->index()))
            addAnticipated(Head, Path::arrayIndex(AccessKind::Write,
                                                  W->array(), *Idx));
        } else if (const auto *F = dyn_cast<FieldReadStmt>(S)) {
          addAnticipated(Head, Path::field(AccessKind::Read, F->object(),
                                           F->field()));
        } else if (const auto *FW = dyn_cast<FieldWriteStmt>(S)) {
          addAnticipated(Head, Path::field(AccessKind::Write, FW->object(),
                                           FW->field()));
        }
      };
      walkStmt(Loop->preBody(), Collect);
      walkStmt(Loop->postBody(), Collect);
      for (const Path &P : Aout)
        addAnticipated(Head, P);
    }

    History HPre = PostH[Loop->preBody()];
    History HExit = HPre;
    HExit.addCondition(Loop->exitCond(), /*Negated=*/false);
    History HCont = HPre;
    HCont.addCondition(Loop->exitCond(), /*Negated=*/true);

    Anticipated Result;
    bool Converged = false;
    for (int Iter = 0; Iter < 8; ++Iter) {
      Anticipated ABack = passB(Loop->postBody(), Head);
      Anticipated ATest = meetAnticipated(HExit, Aout, HCont, ABack);
      Anticipated NewHead = passB(Loop->preBody(), std::move(ATest));
      if (sameAnticipated(NewHead, Head)) {
        Result = NewHead;
        Converged = true;
        break;
      }
      Head = std::move(NewHead);
    }
    if (!Converged) {
      // Re-annotate with the sound empty head.
      Anticipated ABack = passB(Loop->postBody(), Anticipated());
      Anticipated ATest = meetAnticipated(HExit, Aout, HCont, ABack);
      passB(Loop->preBody(), std::move(ATest));
      Result = Anticipated();
    }
    LoopAin[Loop] = Result;
    return Result;
  }

  //===--------------------------------------------------------------------===
  // Pass 3: forward check placement.
  //===--------------------------------------------------------------------===

  void materializeCheck(std::vector<StmtPtr> &Stmts, size_t Pos,
                        const std::vector<Path> &C, const History &H) {
    if (C.empty())
      return;
    std::vector<Path> Final = Opts.CoalesceChecks ? coalescePaths(C, H) : C;
    Stats.ChecksInserted++;
    Stats.PathsInserted += static_cast<unsigned>(Final.size());
    auto Check = std::make_unique<CheckStmt>(std::move(Final));
    Inserted.insert(Check.get());
    if (Opts.TraceContexts) {
      History After = H;
      for (const Path &P : C)
        After.addCheck(P);
      PostHC[Check.get()] = std::move(After);
    }
    Stmts.insert(Stmts.begin() + static_cast<ptrdiff_t>(Pos),
                 std::move(Check));
  }

  void appendCheck(BlockStmt *Block, const std::vector<Path> &C,
                   const History &H) {
    materializeCheck(Block->stmts(), Block->stmts().size(), C, H);
  }

  History passC(BlockStmt *Block, History H) {
    auto &Stmts = Block->stmts();
    for (size_t I = 0; I < Stmts.size(); ++I) {
      Stmt *S = Stmts[I].get();
      switch (S->kind()) {
      case StmtKind::Block:
        H = passC(cast<BlockStmt>(S), std::move(H));
        break;
      case StmtKind::If: {
        auto *If = cast<IfStmt>(S);
        const Anticipated &Aout = PostA[S];
        History H1 = H;
        H1.addCondition(If->cond(), /*Negated=*/false);
        History H2 = H;
        H2.addCondition(If->cond(), /*Negated=*/true);
        H1 = passC(cast<BlockStmt>(If->thenStmt()), std::move(H1));
        H2 = passC(cast<BlockStmt>(If->elseStmt()), std::move(H2));
        History Merged = History::meet(H1, H2);
        std::vector<Path> C1 = checksFor(H1, Merged, Aout);
        std::vector<Path> C2 = checksFor(H2, Merged, Aout);
        appendCheck(cast<BlockStmt>(If->thenStmt()), C1, H1);
        appendCheck(cast<BlockStmt>(If->elseStmt()), C2, H2);
        for (const Path &P : C1)
          H1.addCheck(P);
        for (const Path &P : C2)
          H2.addCheck(P);
        H = History::meet(H1, H2);
        break;
      }
      case StmtKind::Loop: {
        auto *Loop = cast<LoopStmt>(S);
        const History &Hinv = LoopInv[Loop];
        const Anticipated &Ain = LoopAin[Loop];
        bool KeepChecks = !bodyHasReleaseEffect(Loop);

        History HinvC = Hinv;
        if (KeepChecks)
          HinvC.Checks = H.Checks;
        std::vector<Path> Cin = checksFor(H, HinvC, Ain);
        materializeCheck(Stmts, I, Cin, H);
        if (!Cin.empty())
          ++I; // Skip over the inserted check; S stays the loop.
        if (KeepChecks)
          for (const Path &P : Cin)
            HinvC.addCheck(P);

        History H1 = passC(cast<BlockStmt>(Loop->preBody()), HinvC);
        History Hout = H1;
        Hout.addCondition(Loop->exitCond(), /*Negated=*/false);
        History HbackIn = H1;
        HbackIn.addCondition(Loop->exitCond(), /*Negated=*/true);
        History Hback =
            passC(cast<BlockStmt>(Loop->postBody()), std::move(HbackIn));
        std::vector<Path> Cback = checksFor(Hback, HinvC, Ain);
        appendCheck(cast<BlockStmt>(Loop->postBody()), Cback, Hback);
        H = std::move(Hout);
        break;
      }
      default: {
        SyncKind Kind = syncKind(S);
        if (Kind != SyncKind::None) {
          const Anticipated &A = PreA.count(S) ? PreA[S] : Anticipated();
          std::vector<Path> C = checksFor(H, A);
          materializeCheck(Stmts, I, C, H);
          if (!C.empty())
            ++I;
          if (isAcquireSide(Kind) || Kind == SyncKind::DirectRelease ||
              Kind == SyncKind::CallRelease) {
            for (const Path &P : C)
              H.addCheck(P);
          }
        }
        H = stepStmt(H, S);
        break;
      }
      }
      PostHC[Stmts[I].get()] = H;
    }
    return H;
  }

  //===--------------------------------------------------------------------===
  // Trace (Figures 3 and 6).
  //===--------------------------------------------------------------------===

  void recordTrace(const Stmt *Body) {
    walkStmt(Body, [this](const Stmt *S) {
      if (S->id() == 0)
        return;
      Context Ctx;
      auto ItH = PostHC.find(S);
      Ctx.H = ItH != PostHC.end() ? ItH->second
                                  : (PostH.count(S) ? PostH[S] : History());
      if (PostA.count(S))
        Ctx.A = PostA[S];
      Stats.ContextAfter[S->id()] = Ctx.str();
    });
  }
};

} // namespace

std::optional<Path> bigfoot::pathForAccess(const Stmt *S) {
  switch (S->kind()) {
  case StmtKind::FieldRead: {
    const auto *F = cast<FieldReadStmt>(S);
    return Path::field(AccessKind::Read, F->object(), F->field());
  }
  case StmtKind::FieldWrite: {
    const auto *F = cast<FieldWriteStmt>(S);
    return Path::field(AccessKind::Write, F->object(), F->field());
  }
  case StmtKind::ArrayRead: {
    const auto *A = cast<ArrayReadStmt>(S);
    std::optional<AffineExpr> Idx = toAffine(A->index());
    assert(Idx && "validated programs have affine indices");
    return Path::arrayIndex(AccessKind::Read, A->array(), *Idx);
  }
  case StmtKind::ArrayWrite: {
    const auto *A = cast<ArrayWriteStmt>(S);
    std::optional<AffineExpr> Idx = toAffine(A->index());
    assert(Idx && "validated programs have affine indices");
    return Path::arrayIndex(AccessKind::Write, A->array(), *Idx);
  }
  default:
    return std::nullopt;
  }
}

unsigned bigfoot::insertPerAccessChecks(const Program &P, Stmt *S) {
  unsigned Checks = 0;
  if (auto *Block = dyn_cast<BlockStmt>(S)) {
    auto &Stmts = Block->stmts();
    for (size_t I = 0; I < Stmts.size(); ++I) {
      Stmt *Child = Stmts[I].get();
      if (isa<BlockStmt>(Child) || isa<IfStmt>(Child) ||
          isa<LoopStmt>(Child)) {
        Checks += insertPerAccessChecks(P, Child);
        continue;
      }
      std::optional<Path> Pth = pathForAccess(Child);
      if (!Pth)
        continue;
      // Volatile accesses are synchronization, never checked.
      if (Pth->isField() && P.isFieldVolatileAnywhere(Pth->Fields[0]))
        continue;
      Stmts.insert(Stmts.begin() + static_cast<ptrdiff_t>(I),
                   std::make_unique<CheckStmt>(std::vector<Path>{*Pth}));
      ++I;
      ++Checks;
    }
  } else if (auto *If = dyn_cast<IfStmt>(S)) {
    Checks += insertPerAccessChecks(P, If->thenStmt());
    Checks += insertPerAccessChecks(P, If->elseStmt());
  } else if (auto *Loop = dyn_cast<LoopStmt>(S)) {
    Checks += insertPerAccessChecks(P, Loop->preBody());
    Checks += insertPerAccessChecks(P, Loop->postBody());
  }
  return Checks;
}

PlacementStats bigfoot::placeBigFootChecks(Program &P,
                                           const PlacementOptions &Opts) {
  PlacementStats Stats;
  Timer T;
  Stats.RenamesInserted = insertRenames(P);
  KillSets Kills(P, Opts.Sync);
  // When tracing, analyzers stay alive so contexts can be emitted against
  // the final statement numbering (and rename cleanup is skipped so every
  // traced node survives).
  std::vector<std::pair<std::unique_ptr<BodyAnalyzer>, const Stmt *>>
      Tracers;
  auto RunBody = [&](StmtPtr &Body) {
    auto Analyzer = std::make_unique<BodyAnalyzer>(P, Kills, Opts, Stats);
    bool Placed = true;
    {
      EntailmentBudget Budget(kEntailmentBudgetPerBody);
      try {
        Analyzer->run(Body);
      } catch (const EntailmentBudget::Exhausted &) {
        Placed = false;
      }
      Stats.MaxBodyQueries = std::max(Stats.MaxBodyQueries, Budget.queries());
    }
    if (!Placed) {
      Analyzer->undo(Body.get());
      unsigned Checks = insertPerAccessChecks(P, Body.get());
      Stats.ChecksInserted += Checks;
      Stats.PathsInserted += Checks;
      Stats.BodiesOverBudget++;
    }
    if (Opts.TraceContexts) {
      if (Placed)
        Tracers.emplace_back(std::move(Analyzer), Body.get());
    } else {
      Stats.RenamesInserted -= cleanupRenames(Body);
    }
    Stats.MethodsProcessed++;
  };
  for (auto &C : P.Classes)
    for (auto &M : C->Methods)
      RunBody(M->Body);
  for (auto &Thread : P.Threads)
    RunBody(Thread);
  P.numberStatements();
  for (auto &[Analyzer, Body] : Tracers)
    Analyzer->recordTraceFor(Body);
  Stats.AnalysisSeconds = T.seconds();
  return Stats;
}
