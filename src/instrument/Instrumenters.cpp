//===- Instrumenters.cpp - Check placement and the six tools --------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "instrument/Instrumenters.h"

#include "analysis/FieldProxy.h"
#include "analysis/HistoryContext.h"
#include "analysis/KillSets.h"
#include "analysis/Rename.h"

#include <algorithm>

#include <cassert>

using namespace bigfoot;

namespace {

//===----------------------------------------------------------------------===
// RedCard placement: per-access checks minus redundant ones.
//===----------------------------------------------------------------------===

/// Removes every fact that mentions \p Var (assignments without renaming
/// invalidate facts about the old value).
void dropMentions(History &H, const std::string &Var) {
  auto DropBool = [&Var](const BoolFact &F) {
    return F.L.mentions(Var) || F.R.mentions(Var);
  };
  H.Bools.erase(std::remove_if(H.Bools.begin(), H.Bools.end(), DropBool),
                H.Bools.end());
  auto DropAlias = [&Var](const AliasFact &F) {
    return F.X == Var || F.Base == Var ||
           (F.IsArray && F.Index.mentions(Var));
  };
  H.Aliases.erase(
      std::remove_if(H.Aliases.begin(), H.Aliases.end(), DropAlias),
      H.Aliases.end());
  auto DropPath = [&Var](const Path &P) { return P.mentions(Var); };
  H.Accesses.erase(
      std::remove_if(H.Accesses.begin(), H.Accesses.end(), DropPath),
      H.Accesses.end());
  H.Checks.erase(
      std::remove_if(H.Checks.begin(), H.Checks.end(), DropPath),
      H.Checks.end());
}

class RedCardPass {
public:
  RedCardPass(const Program &P, const KillSets &Kills)
      : Prog(P), Kills(Kills) {}

  unsigned checksInserted() const { return NumChecks; }

  void runOnBody(Stmt *Body) {
    assert(isa<BlockStmt>(Body) && "bodies are blocks");
    processBlock(cast<BlockStmt>(Body), History(), /*Insert=*/true);
  }

private:
  const Program &Prog;
  const KillSets &Kills;
  unsigned NumChecks = 0;

  static bool sameFacts(const History &A, const History &B) {
    return A.Bools.size() == B.Bools.size() &&
           A.Aliases.size() == B.Aliases.size() &&
           A.Checks.size() == B.Checks.size();
  }

  History processBlock(BlockStmt *Block, History H, bool Insert) {
    auto &Stmts = Block->stmts();
    for (size_t I = 0; I < Stmts.size(); ++I) {
      Stmt *Child = Stmts[I].get();
      switch (Child->kind()) {
      case StmtKind::Block:
        H = processBlock(cast<BlockStmt>(Child), std::move(H), Insert);
        break;
      case StmtKind::If: {
        auto *If = cast<IfStmt>(Child);
        History H1 = H;
        H1.addCondition(If->cond(), /*Negated=*/false);
        History H2 = H;
        H2.addCondition(If->cond(), /*Negated=*/true);
        H1 = processBlock(cast<BlockStmt>(If->thenStmt()), std::move(H1),
                          Insert);
        H2 = processBlock(cast<BlockStmt>(If->elseStmt()), std::move(H2),
                          Insert);
        H = History::meet(H1, H2);
        break;
      }
      case StmtKind::Loop: {
        auto *Loop = cast<LoopStmt>(Child);
        // Greatest fixed point of Head = meet(H, F(Head)) via throwaway
        // passes; then one real pass from the invariant.
        History Head = H;
        for (int Iter = 0; Iter < 5; ++Iter) {
          History HB = processBlock(cast<BlockStmt>(Loop->preBody()), Head,
                                    /*Insert=*/false);
          History Cont = HB;
          Cont.addCondition(Loop->exitCond(), /*Negated=*/true);
          History Back = processBlock(cast<BlockStmt>(Loop->postBody()),
                                      std::move(Cont), /*Insert=*/false);
          History Next = History::meet(H, Back);
          if (sameFacts(Next, Head))
            break;
          Head = std::move(Next);
        }
        History HB = processBlock(cast<BlockStmt>(Loop->preBody()),
                                  std::move(Head), Insert);
        History Exit = HB;
        Exit.addCondition(Loop->exitCond(), /*Negated=*/false);
        HB.addCondition(Loop->exitCond(), /*Negated=*/true);
        processBlock(cast<BlockStmt>(Loop->postBody()), std::move(HB),
                     Insert);
        H = std::move(Exit);
        break;
      }
      default: {
        size_t Before = Stmts.size();
        H = processSimple(Stmts, I, std::move(H), Insert);
        I += Stmts.size() - Before; // Skip past any inserted check.
        break;
      }
      }
    }
    return H;
  }

  History processSimple(std::vector<StmtPtr> &Stmts, size_t I, History H,
                        bool Insert) {
    Stmt *S = Stmts[I].get();
    // Accesses: possibly insert a check; always record check+alias facts.
    if (std::optional<Path> Pth = pathForAccess(S)) {
      bool Volatile =
          Pth->isField() && Prog.isFieldVolatileAnywhere(Pth->Fields[0]);
      if (Volatile) {
        // Volatile read = acquire; volatile write = release.
        return Pth->Access == AccessKind::Read ? H.afterAcquire()
                                               : H.afterRelease();
      }
      ConstraintSystem CS = H.constraints();
      if (!H.entailsCheck(*Pth, CS)) {
        if (Insert) {
          Stmts.insert(Stmts.begin() + static_cast<ptrdiff_t>(I),
                       std::make_unique<CheckStmt>(
                           std::vector<Path>{*Pth}));
          ++NumChecks;
        }
        H.addCheck(*Pth);
      }
      // Post-access facts: invalidation plus the alias expression.
      switch (S->kind()) {
      case StmtKind::FieldRead: {
        const auto *F = cast<FieldReadStmt>(S);
        dropMentions(H, F->target());
        if (F->target() != F->object()) {
          AliasFact A;
          A.IsArray = false;
          A.X = F->target();
          A.Base = F->object();
          A.Field = F->field();
          H.addAlias(std::move(A));
        }
        break;
      }
      case StmtKind::FieldWrite:
        H.invalidateAliasesForFieldWrite(cast<FieldWriteStmt>(S)->field());
        break;
      case StmtKind::ArrayRead: {
        const auto *A = cast<ArrayReadStmt>(S);
        dropMentions(H, A->target());
        break;
      }
      case StmtKind::ArrayWrite:
        H.invalidateAliasesForArrayWrite();
        break;
      default:
        break;
      }
      return H;
    }

    switch (S->kind()) {
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      dropMentions(H, A->target());
      if (auto E = toAffine(A->value()))
        if (!E->mentions(A->target()))
          H.addBool({RelOp::Eq, AffineExpr::variable(A->target()), *E, 0});
      return H;
    }
    case StmtKind::Rename: {
      const auto *Ren = cast<RenameStmt>(S);
      dropMentions(H, Ren->target());
      return H;
    }
    case StmtKind::New:
      dropMentions(H, cast<NewStmt>(S)->target());
      return H;
    case StmtKind::NewArray:
      dropMentions(H, cast<NewArrayStmt>(S)->target());
      return H;
    case StmtKind::NewBarrier:
      dropMentions(H, cast<NewBarrierStmt>(S)->target());
      return H;
    case StmtKind::ArrayLen: {
      const auto *L = cast<ArrayLenStmt>(S);
      dropMentions(H, L->target());
      return H;
    }
    case StmtKind::Acquire:
    case StmtKind::Join:
      return H.afterAcquire();
    case StmtKind::Release:
    case StmtKind::Fork: {
      if (const auto *F = dyn_cast<ForkStmt>(S))
        dropMentions(H, F->target());
      return H.afterRelease();
    }
    case StmtKind::Await: {
      History Out = H.afterRelease();
      return Out;
    }
    case StmtKind::Call: {
      const auto *C = cast<CallStmt>(S);
      dropMentions(H, C->target());
      SyncEffect E = Kills.effectOf(C->method());
      if (E.Releases)
        return H.afterRelease();
      if (E.Acquires)
        return H.afterAcquire();
      return H;
    }
    case StmtKind::AssertStmt:
      H.addCondition(cast<AssertStmtNode>(S)->cond(), /*Negated=*/false);
      return H;
    default:
      return H;
    }
  }
};

std::unique_ptr<Program> clonePrepared(const Program &P) {
  auto Out = P.clone();
  for (auto &C : Out->Classes)
    for (auto &M : C->Methods) {
      normalizeBlocks(M->Body);
      if (!isa<BlockStmt>(M->Body.get())) {
        auto Block = std::make_unique<BlockStmt>();
        Block->append(std::move(M->Body));
        M->Body = std::move(Block);
      }
    }
  for (auto &T : Out->Threads) {
    normalizeBlocks(T);
    if (!isa<BlockStmt>(T.get())) {
      auto Block = std::make_unique<BlockStmt>();
      Block->append(std::move(T));
      T = std::move(Block);
    }
  }
  return Out;
}

} // namespace

InstrumentedProgram bigfoot::instrumentFastTrack(const Program &P) {
  InstrumentedProgram Out;
  Out.Prog = clonePrepared(P);
  for (auto &C : Out.Prog->Classes)
    for (auto &M : C->Methods)
      insertPerAccessChecks(*Out.Prog, M->Body.get());
  for (auto &T : Out.Prog->Threads)
    insertPerAccessChecks(*Out.Prog, T.get());
  Out.Prog->numberStatements();
  Out.Prog->internSymbols();
  Out.Tool = fastTrackConfig();
  return Out;
}

InstrumentedProgram bigfoot::instrumentRedCard(const Program &P) {
  InstrumentedProgram Out;
  Out.Prog = clonePrepared(P);
  KillSets Kills(*Out.Prog);
  RedCardPass Pass(*Out.Prog, Kills);
  for (auto &C : Out.Prog->Classes)
    for (auto &M : C->Methods)
      Pass.runOnBody(M->Body.get());
  for (auto &T : Out.Prog->Threads)
    Pass.runOnBody(T.get());
  Out.Prog->numberStatements();
  Out.Prog->internSymbols();
  Out.Placement.ChecksInserted = Pass.checksInserted();
  Out.Tool = redCardConfig(computeFieldProxies(*Out.Prog));
  return Out;
}

InstrumentedProgram
bigfoot::instrumentBigFoot(const Program &P, const PlacementOptions &Opts) {
  InstrumentedProgram Out;
  Out.Prog = P.clone();
  Out.Placement = placeBigFootChecks(*Out.Prog, Opts);
  Out.Prog->internSymbols();
  Out.Tool = bigFootConfig(computeFieldProxies(*Out.Prog));
  return Out;
}

const char *bigfoot::placementName(PlacementKind K) {
  static constexpr const char *Names[kNumPlacements] = {"fasttrack",
                                                        "redcard", "bigfoot"};
  return Names[static_cast<size_t>(K)];
}

InstrumentedProgram bigfoot::instrumentPlacement(const Program &P,
                                                 PlacementKind K) {
  if (K == PlacementKind::FastTrack)
    return instrumentFastTrack(P);
  if (K == PlacementKind::RedCard)
    return instrumentRedCard(P);
  return instrumentBigFoot(P);
}

using ProxyMap = std::map<std::string, std::string>;

const std::array<ToolSpec, kNumTools> bigfoot::kTools = {{
    {"fasttrack", PlacementKind::FastTrack,
     [](ProxyMap) { return fastTrackConfig(); }},
    {"redcard", PlacementKind::RedCard, redCardConfig},
    {"slimstate", PlacementKind::FastTrack,
     [](ProxyMap) { return slimStateConfig(); }},
    {"slimcard", PlacementKind::RedCard, slimCardConfig},
    {"bigfoot", PlacementKind::BigFoot, bigFootConfig},
    {"djit", PlacementKind::FastTrack, [](ProxyMap) { return djitConfig(); }},
}};

const ToolSpec *bigfoot::findTool(std::string_view Name) {
  for (const ToolSpec &T : kTools)
    if (Name == T.Name)
      return &T;
  return nullptr;
}

InstrumentedProgram bigfoot::instrumentTool(const Program &P,
                                            const ToolSpec &T) {
  InstrumentedProgram Out = instrumentPlacement(P, T.Placement);
  Out.Tool = T.Config(std::move(Out.Tool.FieldProxy));
  return Out;
}
