//===- CompilerTest.cpp - Bytecode compiler and executor edge cases ----------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Unit tests for the AST → register bytecode lowering (vm/Compiler.h) and
// the bytecode execution mode, concentrating on the structural edge cases
// the big differential test reaches only incidentally: empty bodies,
// await inside nested loops, fork/join under conditionals, strided-range
// check statements, error-message parity, and the UseBytecode=false
// escape hatch. Most tests run the same program in both execution modes
// and require identical observable results including the scheduler step
// count — the contract the dispatch benchmark's denominator rests on.
//
//===----------------------------------------------------------------------===//

#include "vm/Compiler.h"

#include "bfj/Parser.h"
#include "events/TraceCodec.h"
#include "instrument/Instrumenters.h"
#include "vm/Vm.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

using namespace bigfoot;

namespace {

VmOptions modeOpts(bool UseBytecode, uint64_t Seed = 1) {
  VmOptions Opts;
  Opts.Seed = Seed;
  Opts.UseBytecode = UseBytecode;
  return Opts;
}

/// A run plus the BFT1 bytes of its whole event stream, ground-truth
/// accesses included (\p Tool null runs uninstrumented).
struct RecordedRun {
  VmResult Run;
  std::vector<uint8_t> Trace;
};

RecordedRun runRecorded(const Program &Prog, const DetectorConfig *Tool,
                        VmOptions Opts) {
  Prog.ensureInterned(); // The trace header needs the symbol table.
  TraceWriter Writer(Prog.symbols(), Tool ? *Tool : DetectorConfig());
  Opts.EnableGroundTruth = true;
  Opts.RecordSink = &Writer;
  RecordedRun Out;
  Out.Run = Tool ? runProgram(Prog, *Tool, Opts) : runProgramBase(Prog, Opts);
  Writer.finish(Out.Run.traceSummary());
  Out.Trace = Writer.buffer();
  return Out;
}

/// Runs \p Source uninstrumented in both modes (three seeds) and checks
/// that everything observable matches; returns the bytecode result of the
/// last seed for additional assertions.
VmResult expectModesAgree(const char *Source) {
  auto Prog = parseProgramOrDie(Source);
  VmResult LastBc;
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    RecordedRun Ast = runRecorded(*Prog, nullptr, modeOpts(false, Seed));
    RecordedRun Bc = runRecorded(*Prog, nullptr, modeOpts(true, Seed));
    std::string Tag = "seed " + std::to_string(Seed);
    EXPECT_EQ(Ast.Run.Ok, Bc.Run.Ok) << Tag;
    EXPECT_EQ(Ast.Run.Error, Bc.Run.Error) << Tag;
    EXPECT_EQ(Ast.Run.Output, Bc.Run.Output) << Tag;
    EXPECT_EQ(Ast.Run.StatementsExecuted, Bc.Run.StatementsExecuted) << Tag;
    EXPECT_EQ(Ast.Run.Counters.all(), Bc.Run.Counters.all()) << Tag;
    EXPECT_TRUE(Ast.Trace == Bc.Trace) << Tag << ": event streams differ";
    LastBc = std::move(Bc.Run);
  }
  return LastBc;
}

} // namespace

//===--- Compiler structure ---------------------------------------------------

TEST(Compiler, CompilesEveryBodyWithTerminalReturn) {
  auto Prog = parseProgramOrDie(R"(
class Worker {
  fields n;
  method nothing() { }
  method incr(d) {
    v = this.n;
    this.n = v + d;
  }
}
thread {
  w = new Worker;
  w.incr(2);
}
thread { }
)");
  Prog->ensureInterned();
  CompiledProgram CP = compileProgram(*Prog);
  ASSERT_EQ(CP.ThreadChunks.size(), 2u);
  ASSERT_EQ(CP.MethodChunks.size(), 2u);
  for (const auto &Ch : CP.Chunks) {
    ASSERT_FALSE(Ch->Code.empty());
    const Insn &Last = Ch->Code.back();
    EXPECT_EQ(Last.Op, Opcode::Return);
    EXPECT_TRUE(Last.Step);
    // Registers cover at least the whole symbol namespace.
    EXPECT_GE(Ch->NumRegs, Prog->symbols().size());
  }
  // An empty body compiles to exactly its Return.
  const MethodDecl *Nothing =
      Prog->Classes[0]->findMethod("nothing");
  ASSERT_NE(Nothing, nullptr);
  const Chunk *NothingCh = CP.chunkFor(Nothing);
  ASSERT_NE(NothingCh, nullptr);
  EXPECT_EQ(NothingCh->Code.size(), 1u);
}

TEST(Compiler, DisassembleNamesEveryInstruction) {
  auto Prog = parseProgramOrDie(R"(
thread {
  a = new_array(4);
  a[1] = 2 * 3;
  x = a[1];
  n = len(a);
  if (x == 6 && n > 0) { print x; } else { skip; }
}
)");
  Prog->ensureInterned();
  CompiledProgram CP = compileProgram(*Prog);
  std::string Text = disassemble(*CP.ThreadChunks[0]);
  for (const char *Mnemonic :
       {"newarray", "arraywrite", "arrayread", "arraylen", "br", "print",
        "return"})
    EXPECT_NE(Text.find(Mnemonic), std::string::npos)
        << "missing '" << Mnemonic << "' in:\n"
        << Text;
  // No instruction renders as unknown.
  EXPECT_EQ(Text.find(" ? "), std::string::npos) << Text;
}

//===--- Instruction shapes ---------------------------------------------------

namespace {

const Chunk &onlyThreadChunk(const CompiledProgram &CP) {
  EXPECT_EQ(CP.ThreadChunks.size(), 1u);
  return *CP.ThreadChunks[0];
}

size_t countOps(const Chunk &Ch, Opcode Op) {
  return std::count_if(Ch.Code.begin(), Ch.Code.end(),
                       [&](const Insn &I) { return I.Op == Op; });
}

/// The register an instruction writes, if any.
std::optional<uint32_t> writtenReg(const Chunk &Ch, const Insn &I) {
  switch (I.Op) {
  case Opcode::Nop:
  case Opcode::Jmp:
  case Opcode::JmpIfFalse:
  case Opcode::JmpIfTrue:
  case Opcode::Br:
  case Opcode::FieldWrite:
  case Opcode::FieldWriteVol:
  case Opcode::ArrayWrite:
  case Opcode::Acquire:
  case Opcode::Release:
  case Opcode::Join:
  case Opcode::Await:
  case Opcode::Check:
  case Opcode::Print:
  case Opcode::Assert:
  case Opcode::Return:
    return std::nullopt;
  case Opcode::Call:
  case Opcode::Fork: {
    uint32_t Target = Ch.Calls[I.A].TargetReg;
    if (Target == kNoReg)
      return std::nullopt;
    return Target;
  }
  default:
    return I.A;
  }
}

} // namespace

TEST(Compiler, LiteralOperandsReadConstantRegisters) {
  auto Prog = parseProgramOrDie(R"(
thread {
  i = 0;
  x = i + 5;
  y = 7 < i;
  print 9;
}
)");
  CompiledProgram CP = compileProgram(*Prog);
  const Chunk &Ch = onlyThreadChunk(CP);
  // Only the assignment `i = 0` loads a literal.
  EXPECT_EQ(countOps(Ch, Opcode::LoadInt), 1u) << disassemble(Ch);
  ASSERT_EQ(Ch.NumRegs, Ch.ConstBase + Ch.Ints.size());
  auto ConstReg = [&](int64_t V) {
    auto It = std::find(Ch.Ints.begin(), Ch.Ints.end(), V);
    EXPECT_NE(It, Ch.Ints.end()) << V;
    return Ch.ConstBase + static_cast<uint32_t>(It - Ch.Ints.begin());
  };
  bool SawAdd = false, SawLt = false, SawPrint = false;
  for (const Insn &I : Ch.Code) {
    if (I.Op == Opcode::Add) {
      SawAdd = true;
      EXPECT_EQ(I.C, ConstReg(5));
    } else if (I.Op == Opcode::Lt) {
      SawLt = true;
      EXPECT_EQ(I.B, ConstReg(7));
    } else if (I.Op == Opcode::Print) {
      SawPrint = true;
      EXPECT_EQ(I.A, ConstReg(9));
    }
  }
  EXPECT_TRUE(SawAdd && SawLt && SawPrint) << disassemble(Ch);

  VmResult R = expectModesAgree(R"(
class C {
  method add(a, b) { r = a + b; return r; }
}
thread {
  c = new C;
  s = c.add(2, 40);
  fork h = c.add(1, true);
  join h;
  print s;
  print 3 * 4;
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"42", "12"}));
}

TEST(Compiler, WhileExitTestIsOneStepBranchOutOfTheLoop) {
  auto Prog = parseProgramOrDie(R"(
thread {
  i = 0;
  while (i < 3) {
    i = i + 1;
  }
}
)");
  CompiledProgram CP = compileProgram(*Prog);
  const Chunk &Ch = onlyThreadChunk(CP);
  std::string Listing = disassemble(Ch);
  // `while` desugars to `if (c) do { body } while (c)`: exit on !c.
  EXPECT_EQ(countOps(Ch, Opcode::Not), 0u) << Listing;
  // The back edge is the only backward jump; its predecessor is the exit
  // test, which leaves the loop directly.
  size_t Back = Ch.Code.size();
  for (size_t I = 0; I < Ch.Code.size(); ++I)
    if (Ch.Code[I].Op == Opcode::Jmp && Ch.Code[I].A <= I)
      Back = I;
  ASSERT_LT(Back, Ch.Code.size()) << Listing;
  ASSERT_GT(Back, 0u) << Listing;
  const Insn &Exit = Ch.Code[Back - 1];
  EXPECT_EQ(Exit.Op, Opcode::Br) << Listing;
  EXPECT_TRUE(Exit.Step) << Listing;
  EXPECT_EQ(Exit.B, Back + 1) << Listing;
  // Between the loop head and the exit test only the condition operator
  // is free; every other instruction retires a statement.
  uint32_t Head = Ch.Code[Back].A;
  size_t Free = 0;
  for (size_t I = Head; I < Back; ++I)
    Free += !Ch.Code[I].Step;
  EXPECT_EQ(Free, 1u) << Listing;
}

TEST(Compiler, NonNegatedExitTestIsStepFlaggedJmpIfTrue) {
  auto Prog = parseProgramOrDie(R"(
thread {
  i = 0;
  loop {
    i = i + 1;
    exit_if (i >= 3);
    print i;
  }
}
)");
  CompiledProgram CP = compileProgram(*Prog);
  const Chunk &Ch = onlyThreadChunk(CP);
  std::string Listing = disassemble(Ch);
  size_t Exits = 0;
  for (size_t I = 0; I < Ch.Code.size(); ++I) {
    const Insn &In = Ch.Code[I];
    if (In.Op != Opcode::JmpIfTrue)
      continue;
    ++Exits;
    EXPECT_TRUE(In.Step) << Listing;
    // Leaves past the back edge, which stays free: the post-body is not
    // a skip.
    ASSERT_LT(In.B, Ch.Code.size()) << Listing;
    const Insn &Back = Ch.Code[In.B - 1];
    EXPECT_EQ(Back.Op, Opcode::Jmp) << Listing;
    EXPECT_FALSE(Back.Step) << Listing;
  }
  EXPECT_EQ(Exits, 1u) << Listing;
  EXPECT_EQ(countOps(Ch, Opcode::Not), 0u) << Listing;

  VmResult R = expectModesAgree(R"(
thread {
  i = 0;
  loop {
    i = i + 1;
    exit_if (i >= 3);
    print i;
  }
  loop { exit_if (true); }
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"1", "2"}));
}

TEST(Compiler, SkipPostBodyFusesWithTheBackEdge) {
  // A do-while's post-body is a bare skip; an explicit loop's is a block,
  // and instrumentation leaves the do-while's wrapped in one too.
  auto Prog = parseProgramOrDie(R"(
class C {
  method run(a) {
    i = 0;
    do {
      a[i] = i;
      i = i + 1;
    } while (i < 3);
    loop {
      i = i - 1;
      exit_if (i <= 0);
      { skip; }
    }
  }
}
thread {
  a = new_array(3);
  c = new C;
  c.run(a);
}
)");
  InstrumentedProgram Checked = instrumentFastTrack(*Prog);
  for (const Program *P : {Prog.get(), Checked.Prog.get()}) {
    P->ensureInterned();
    CompiledProgram CP = compileProgram(*P);
    const Chunk &Ch = *CP.chunkFor(P->Classes[0]->findMethod("run"));
    std::string Listing = disassemble(Ch);
    EXPECT_EQ(countOps(Ch, Opcode::Nop), 0u) << Listing;
    size_t BackEdges = 0;
    for (size_t I = 0; I < Ch.Code.size(); ++I) {
      const Insn &In = Ch.Code[I];
      if (In.Op != Opcode::Jmp || In.A > I)
        continue;
      ++BackEdges;
      EXPECT_TRUE(In.Step) << Listing;
    }
    EXPECT_EQ(BackEdges, 2u) << Listing;
  }
}

TEST(Compiler, NoInstructionWritesAConstantRegister) {
  std::vector<Workload> Suite = standardSuite(SuiteScale::Test);
  for (Workload &W : racyVariants())
    Suite.push_back(std::move(W));
  for (const Workload &W : Suite) {
    auto Prog = parseProgramOrDie(W.Source);
    for (const InstrumentedProgram &IP :
         {instrumentFastTrack(*Prog), instrumentBigFoot(*Prog)}) {
      CompiledProgram CP = compileProgram(*IP.Prog);
      for (const auto &Ch : CP.Chunks) {
        ASSERT_EQ(Ch->NumRegs, Ch->ConstBase + Ch->Ints.size()) << W.Name;
        for (size_t I = 0; I < Ch->Code.size(); ++I) {
          if (std::optional<uint32_t> Reg = writtenReg(*Ch, Ch->Code[I])) {
            EXPECT_LT(*Reg, Ch->ConstBase)
                << W.Name << " instruction " << I << ":\n"
                << disassemble(*Ch);
          }
        }
      }
    }
  }
}

//===--- Execution-mode agreement on structural edge cases --------------------

TEST(Compiler, EmptyThreadAndEmptyMethodBodies) {
  VmResult R = expectModesAgree(R"(
class C {
  method nothing() { }
}
thread { }
thread {
  o = new C;
  o.nothing();
  x = o.nothing();
  print x;
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  // Methods without a return statement yield 0.
  EXPECT_EQ(R.Output, (std::vector<std::string>{"0"}));
}

TEST(Compiler, EmptyBlocksAndBareBranches) {
  VmResult R = expectModesAgree(R"(
thread {
  i = 0;
  while (i < 3) {
    if (i == 1) { } else { skip; }
    { { } }
    i = i + 1;
  }
  print i;
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"3"}));
}

TEST(Compiler, AwaitInsideNestedLoops) {
  VmResult R = expectModesAgree(R"(
class Task {
  method run(b, rounds) {
    r = 0;
    while (r < rounds) {
      p = 0;
      do {
        await b;
        p = p + 1;
      } while (p < 2);
      r = r + 1;
    }
  }
}
thread {
  b = new_barrier(2);
  t = new Task;
  fork h = t.run(b, 3);
  r = 0;
  while (r < 6) {
    await b;
    r = r + 1;
  }
  join h;
  print r;
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"6"}));
}

TEST(Compiler, ForkAndJoinInsideConditionals) {
  VmResult R = expectModesAgree(R"(
class Adder {
  method bump(g) {
    acq (g);
    v = g.total;
    g.total = v + 1;
    rel (g);
  }
}
thread {
  $g.total = 0;
  a = new Adder;
  i = 0;
  h1 = 0 - 1;
  h2 = 0 - 1;
  while (i < 2) {
    if (i == 0) {
      fork h1 = a.bump($g);
    } else {
      fork h2 = a.bump($g);
    }
    i = i + 1;
  }
  if (h1 >= 0) { join h1; } else { skip; }
  if (h2 >= 0) { join h2; } else { skip; }
  acq ($g);
  t = $g.total;
  rel ($g);
  print t;
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"2"}));
}

TEST(Compiler, ShortCircuitOperatorsMatchWalkerStepForStep) {
  VmResult R = expectModesAgree(R"(
thread {
  a = new_array(3);
  a[0] = 7;
  i = 0;
  hits = 0;
  while (i < 6) {
    ok = i < 3 && i != 1;
    other = i > 4 || ok;
    nested = (i < 2 || i > 3) && !(i == 5);
    hits = hits + ok + other + nested;
    i = i + 1;
  }
  print hits;
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
}

TEST(Compiler, StridedRangeChecksUnderBigFoot) {
  auto Prog = parseProgramOrDie(R"(
class Sweep {
  method go(a, n) {
    i = 0;
    while (i < n) {
      a[i] = i;
      i = i + 2;
    }
    j = 1;
    while (j < n) {
      x = a[j];
      j = j + 2;
    }
  }
}
thread {
  a = new_array(64);
  s = new Sweep;
  s.go(a, 64);
}
)");
  InstrumentedProgram IP = instrumentBigFoot(*Prog);
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    RecordedRun Ast = runRecorded(*IP.Prog, &IP.Tool, modeOpts(false, Seed));
    RecordedRun Bc = runRecorded(*IP.Prog, &IP.Tool, modeOpts(true, Seed));
    ASSERT_TRUE(Bc.Run.Ok) << Bc.Run.Error;
    EXPECT_EQ(Ast.Run.Counters.all(), Bc.Run.Counters.all());
    EXPECT_EQ(Ast.Run.ToolRacyLocations, Bc.Run.ToolRacyLocations);
    EXPECT_TRUE(Ast.Trace == Bc.Trace) << "event streams differ";
    EXPECT_GT(Bc.Run.Counters.get("tool.checkEvents.array"), 0u);
  }
}

//===--- Error parity and the escape hatch ------------------------------------

TEST(Compiler, RuntimeErrorsMatchWalkerWording) {
  for (const char *Source : {
           "thread { x = 1 / 0; }",
           "thread { x = 5 % 0; }",
           "thread { x = -null; }",
           "thread { a = new_array(2); x = a[5]; }",
           "thread { o = 3; y = o.f; }",
           "thread { h = 99; join h; }",
           "thread { b = 1; await b; }",
           "thread { assert 1 == 2; }",
           "thread { a = new_array(99999999999); }",
       }) {
    VmResult R = expectModesAgree(Source);
    EXPECT_FALSE(R.Ok) << Source;
    EXPECT_FALSE(R.Error.empty()) << Source;
  }
}

TEST(Compiler, CallStackOverflowParity) {
  VmResult R = expectModesAgree(R"(
class R {
  method rec(self) {
    self.rec(self);
  }
}
thread {
  r = new R;
  r.rec(r);
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "call stack overflow");
}

TEST(Compiler, AstWalkerEscapeHatchStillWorks) {
  auto Prog = parseProgramOrDie("thread { x = 6 * 7; print x; }");
  VmOptions Opts;
  Opts.UseBytecode = false;
  VmResult R = runProgramBase(*Prog, Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"42"}));
  EXPECT_GT(R.StatementsExecuted, 0u);
}
