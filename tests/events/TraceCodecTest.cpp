//===- TraceCodecTest.cpp - Round-trip fuzz for the trace codec --------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Seeded-RNG round-trip fuzz: generate random event streams exercising
// every kind, maximum-width thread ids, field ids across the symbol
// table, full-range int64 array bounds (stride >= 1, as StridedRange
// requires), and random batch splits — then decode and demand exact
// field-for-field equality. Separately, every truncation prefix of a
// valid trace, a set of targeted corruptions (at the end of the data
// and inside the decoder's unchecked window), ids a detector cannot
// index, and random byte flips in a recorded trace must surface as decode
// errors, never as crashes, hangs, or out-of-bounds reads. Every event
// must decode alike on the windowed and on the byte-checked path.
//
//===----------------------------------------------------------------------===//

#include "events/TraceCodec.h"
#include "bfj/Parser.h"
#include "events/Replay.h"
#include "instrument/Instrumenters.h"
#include "support/Symbol.h"
#include "vm/Vm.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

using namespace bigfoot;

namespace {

/// One generated event plus the payload words it owns (self-contained so
/// the expected stream survives re-batching on decode).
struct FuzzEvent {
  Event E;
  std::vector<uint32_t> Words;
};

using Rng = std::mt19937_64;

uint64_t pick(Rng &R, uint64_t Lo, uint64_t Hi) {
  return std::uniform_int_distribution<uint64_t>(Lo, Hi)(R);
}

/// A random event; \p ArrayBudget is what is left of the summed array
/// length a trace may allocate (kMaxArrayLength), and shrinks by any
/// ArrayAlloc's length.
FuzzEvent randomEvent(Rng &R, uint32_t NumSyms, uint64_t &ArrayBudget) {
  FuzzEvent F;
  Event &E = F.E;
  E.Kind = static_cast<EventKind>(pick(R, 0, kNumEventKinds - 1));
  E.Target = static_cast<uint8_t>(pick(R, 1, 3));
  E.Access = pick(R, 0, 1) ? AccessKind::Write : AccessKind::Read;
  // Max-width tids: the scheduler never exceeds 2^16-1 threads.
  E.Tid = static_cast<ThreadId>(pick(R, 0, 0xFFFF));
  // Object ids stay below the locKey ceiling (64 - kLocFieldBits bits);
  // only the kinds whose encoding carries one get a nonzero id, matching
  // what the VM's emission populates.
  auto randomObj = [&] {
    E.Obj = pick(R, 0, (uint64_t(1) << (64 - kLocFieldBits)) - 1);
  };

  switch (E.Kind) {
  case EventKind::FieldCheck: {
    randomObj();
    uint32_t N = static_cast<uint32_t>(pick(R, 1, 12));
    for (uint32_t I = 0; I < N; ++I)
      F.Words.push_back(static_cast<uint32_t>(pick(R, 0, NumSyms - 1)));
    break;
  }
  case EventKind::ArrayCheck: {
    randomObj();
    // Full-range bounds; deltas between consecutive events span the whole
    // signed domain, which is exactly what zigzag must survive.
    E.Begin = static_cast<int64_t>(pick(R, 0, UINT64_MAX) >> 2) *
              (pick(R, 0, 1) ? 1 : -1);
    E.End = E.Begin + static_cast<int64_t>(pick(R, 0, 1u << 20));
    E.Stride = static_cast<int64_t>(pick(R, 1, 1u << 16));
    break;
  }
  case EventKind::ArrayAlloc:
    randomObj();
    E.Tid = 0; // The codec does not record an allocating thread.
    // Any length the VM can allocate; the reader rejects longer ones,
    // and a longer sum.
    E.Aux = pick(R, 0, ArrayBudget);
    ArrayBudget -= E.Aux;
    break;
  case EventKind::Acquire:
  case EventKind::Release:
    randomObj();
    break;
  case EventKind::VolatileRead:
  case EventKind::VolatileWrite:
    randomObj();
    // Any recorded symbol; the reader rejects ids past the table.
    E.Field = static_cast<FieldId>(pick(R, 0, NumSyms - 1));
    break;
  case EventKind::Fork:
  case EventKind::Join:
    E.Aux = pick(R, 0, 0xFFFF);
    break;
  case EventKind::Barrier: {
    E.Tid = 0; // Barriers are collective; no single acting thread.
    uint32_t N = static_cast<uint32_t>(pick(R, 0, 8));
    for (uint32_t I = 0; I < N; ++I)
      F.Words.push_back(static_cast<uint32_t>(pick(R, 0, 0xFFFF)));
    break;
  }
  case EventKind::ThreadBegin:
  case EventKind::ThreadExit:
  case EventKind::Commit:
    break;
  }
  return F;
}

/// \p Len random events, their arrays within the reader's summed cap.
std::vector<FuzzEvent> randomStream(Rng &R, size_t Len, uint32_t NumSyms) {
  std::vector<FuzzEvent> Stream;
  uint64_t ArrayBudget = kMaxArrayLength;
  for (size_t I = 0; I < Len; ++I)
    Stream.push_back(randomEvent(R, NumSyms, ArrayBudget));
  return Stream;
}

/// Encodes \p Stream into a finished trace using random batch splits.
std::vector<uint8_t> encode(const std::vector<FuzzEvent> &Stream,
                            const SymbolTable &Syms,
                            const DetectorConfig &Cfg,
                            const TraceSummary &Summary, Rng &R) {
  TraceWriter Writer(Syms, Cfg);
  size_t I = 0;
  while (I < Stream.size()) {
    size_t N = std::min<size_t>(Stream.size() - I, pick(R, 1, 17));
    std::vector<Event> Batch;
    std::vector<uint32_t> Payload;
    for (size_t J = 0; J < N; ++J) {
      Event E = Stream[I + J].E;
      E.PayloadIndex = static_cast<uint32_t>(Payload.size());
      E.PayloadCount = static_cast<uint32_t>(Stream[I + J].Words.size());
      Payload.insert(Payload.end(), Stream[I + J].Words.begin(),
                     Stream[I + J].Words.end());
      Batch.push_back(E);
    }
    Writer.consumeBatch(Batch.data(), Batch.size(),
                        Payload.empty() ? nullptr : Payload.data());
    I += N;
  }
  Writer.finish(Summary);
  return Writer.buffer();
}

void expectEventEq(const Event &Got, const std::vector<uint32_t> &GotWords,
                   const FuzzEvent &Want, size_t Index) {
  std::string Tag = "event " + std::to_string(Index);
  ASSERT_EQ(Got.Kind, Want.E.Kind) << Tag;
  EXPECT_EQ(Got.Target, Want.E.Target) << Tag;
  EXPECT_EQ(Got.Tid, Want.E.Tid) << Tag;
  EXPECT_EQ(Got.Obj, Want.E.Obj) << Tag;
  switch (Want.E.Kind) {
  case EventKind::FieldCheck:
    EXPECT_EQ(Got.Access, Want.E.Access) << Tag;
    EXPECT_EQ(GotWords, Want.Words) << Tag;
    break;
  case EventKind::ArrayCheck:
    EXPECT_EQ(Got.Access, Want.E.Access) << Tag;
    EXPECT_EQ(Got.Begin, Want.E.Begin) << Tag;
    EXPECT_EQ(Got.End, Want.E.End) << Tag;
    EXPECT_EQ(Got.Stride, Want.E.Stride) << Tag;
    break;
  case EventKind::ArrayAlloc:
  case EventKind::Fork:
  case EventKind::Join:
    EXPECT_EQ(Got.Aux, Want.E.Aux) << Tag;
    break;
  case EventKind::VolatileRead:
  case EventKind::VolatileWrite:
    EXPECT_EQ(Got.Field, Want.E.Field) << Tag;
    break;
  case EventKind::Barrier:
    EXPECT_EQ(GotWords, Want.Words) << Tag;
    break;
  case EventKind::Acquire:
  case EventKind::Release:
  case EventKind::ThreadBegin:
  case EventKind::ThreadExit:
  case EventKind::Commit:
    break;
  }
}

SymbolTable fuzzSymbols(uint32_t N) {
  SymbolTable Syms;
  for (uint32_t I = 0; I < N; ++I)
    Syms.intern("field_" + std::to_string(I));
  return Syms;
}

DetectorConfig fuzzConfig() {
  DetectorConfig Cfg;
  Cfg.Name = "fuzz";
  Cfg.DeferArrayChecks = true;
  Cfg.AdaptiveArrayShadow = false;
  Cfg.VectorClocksOnly = true;
  Cfg.FieldProxy = {{"field_1", "field_0"}, {"field_2", "field_0"}};
  return Cfg;
}

TraceSummary fuzzSummary() {
  TraceSummary S;
  S.Ok = true;
  S.StatementsExecuted = 123456789;
  S.Output = {"hello", "", "line with spaces"};
  S.Counters = {{"vm.accesses", 42}, {"vm.steps", UINT64_MAX}};
  return S;
}

TEST(TraceCodec, RoundTripFuzz) {
  constexpr uint32_t kNumSyms = 64;
  SymbolTable Syms = fuzzSymbols(kNumSyms);
  DetectorConfig Cfg = fuzzConfig();
  TraceSummary Summary = fuzzSummary();

  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Rng R(Seed);
    size_t Len = static_cast<size_t>(pick(R, 0, 400));
    std::vector<FuzzEvent> Stream = randomStream(R, Len, kNumSyms);

    std::vector<uint8_t> Buf = encode(Stream, Syms, Cfg, Summary, R);

    TraceReader Reader;
    ASSERT_TRUE(Reader.open(Buf.data(), Buf.size()))
        << "seed " << Seed << ": " << Reader.error();

    // Header round-trip.
    ASSERT_EQ(Reader.symbols().size(), Syms.size()) << "seed " << Seed;
    for (SymId Id = 0; Id < Syms.size(); ++Id)
      EXPECT_EQ(Reader.symbols().name(Id), Syms.name(Id));
    EXPECT_EQ(Reader.config().Name, Cfg.Name);
    EXPECT_EQ(Reader.config().DeferArrayChecks, Cfg.DeferArrayChecks);
    EXPECT_EQ(Reader.config().AdaptiveArrayShadow, Cfg.AdaptiveArrayShadow);
    EXPECT_EQ(Reader.config().VectorClocksOnly, Cfg.VectorClocksOnly);
    EXPECT_EQ(Reader.config().FieldProxy, Cfg.FieldProxy);

    // Event round-trip under a decode batch size unrelated to the encode
    // splits.
    size_t BatchSize = static_cast<size_t>(pick(R, 1, 33));
    std::vector<Event> Batch(BatchSize);
    std::vector<uint32_t> Payload;
    size_t Next = 0, N;
    while ((N = Reader.nextBatch(Batch.data(), BatchSize, Payload)) > 0) {
      for (size_t I = 0; I < N; ++I) {
        ASSERT_LT(Next, Stream.size()) << "seed " << Seed << ": extra events";
        std::vector<uint32_t> Words(
            Payload.begin() + Batch[I].PayloadIndex,
            Payload.begin() + Batch[I].PayloadIndex + Batch[I].PayloadCount);
        expectEventEq(Batch[I], Words, Stream[Next], Next);
        ++Next;
      }
    }
    ASSERT_TRUE(Reader.ok()) << "seed " << Seed << ": " << Reader.error();
    EXPECT_EQ(Next, Stream.size()) << "seed " << Seed;
    EXPECT_EQ(Reader.eventsDecoded(), Stream.size()) << "seed " << Seed;

    // Summary round-trip.
    ASSERT_TRUE(Reader.summaryReady()) << "seed " << Seed;
    EXPECT_EQ(Reader.summary().Ok, Summary.Ok);
    EXPECT_EQ(Reader.summary().Error, Summary.Error);
    EXPECT_EQ(Reader.summary().Output, Summary.Output);
    EXPECT_EQ(Reader.summary().StatementsExecuted,
              Summary.StatementsExecuted);
    EXPECT_EQ(Reader.summary().Counters, Summary.Counters);
  }
}

/// Drains a reader until it stops; returns true iff the stream decoded
/// cleanly end to end (summary included).
bool drainsCleanly(TraceReader &Reader) {
  Event Batch[32];
  std::vector<uint32_t> Payload;
  while (Reader.nextBatch(Batch, 32, Payload) > 0)
    ;
  return Reader.ok() && Reader.summaryReady();
}

TEST(TraceCodec, EveryTruncationFailsCleanly) {
  Rng R(7);
  SymbolTable Syms = fuzzSymbols(8);
  std::vector<FuzzEvent> Stream = randomStream(R, 40, 8);
  std::vector<uint8_t> Buf =
      encode(Stream, Syms, fuzzConfig(), fuzzSummary(), R);

  for (size_t Cut = 0; Cut < Buf.size(); ++Cut) {
    TraceReader Reader;
    if (!Reader.open(Buf.data(), Cut)) {
      EXPECT_FALSE(Reader.error().empty()) << "cut " << Cut;
      continue; // Header truncation: rejected at open().
    }
    // Header survived the cut; the event stream or summary must not
    // decode to a complete, clean result.
    EXPECT_FALSE(drainsCleanly(Reader)) << "cut " << Cut;
    EXPECT_FALSE(Reader.ok()) << "cut " << Cut;
    EXPECT_FALSE(Reader.error().empty()) << "cut " << Cut;
  }

  // The untruncated buffer still decodes, so the loop above was not
  // passing vacuously.
  TraceReader Full;
  ASSERT_TRUE(Full.open(Buf.data(), Buf.size())) << Full.error();
  EXPECT_TRUE(drainsCleanly(Full)) << Full.error();
}

TEST(TraceCodec, TargetedCorruptionsFailCleanly) {
  Rng R(11);
  SymbolTable Syms = fuzzSymbols(4);
  std::vector<FuzzEvent> Stream = randomStream(R, 10, 4);
  std::vector<uint8_t> Good =
      encode(Stream, Syms, fuzzConfig(), fuzzSummary(), R);

  // Bad magic.
  {
    std::vector<uint8_t> Bad = Good;
    Bad[0] = 'X';
    TraceReader Reader;
    EXPECT_FALSE(Reader.open(Bad.data(), Bad.size()));
    EXPECT_NE(Reader.error().find("magic"), std::string::npos);
  }
  // Empty input.
  {
    TraceReader Reader;
    EXPECT_FALSE(Reader.open(nullptr, 0));
  }
  // Unknown section tag where SYMBOLS should start.
  {
    std::vector<uint8_t> Bad = Good;
    Bad[4] = 0x77;
    TraceReader Reader;
    EXPECT_FALSE(Reader.open(Bad.data(), Bad.size()));
  }
  // A zero stride in an ArrayCheck must be rejected (StridedRange asserts
  // on it, so the reader has to catch it first). Build a minimal trace by
  // hand-encoding one bad event: kind=ArrayCheck, target=tool.
  {
    TraceWriter Writer(Syms, fuzzConfig());
    std::vector<uint8_t> Bad = Writer.buffer(); // magic + header + EVENTS tag
    Bad.push_back(static_cast<uint8_t>(
        static_cast<unsigned>(EventKind::ArrayCheck) | (1u << 6)));
    Bad.push_back(0); // tid
    Bad.push_back(0); // obj delta
    Bad.push_back(0); // access
    Bad.push_back(0); // begin delta
    Bad.push_back(2); // end - begin = 1
    Bad.push_back(0); // stride 0 — invalid
    TraceReader Reader;
    ASSERT_TRUE(Reader.open(Bad.data(), Bad.size())) << Reader.error();
    Event Batch[4];
    std::vector<uint32_t> Payload;
    EXPECT_EQ(Reader.nextBatch(Batch, 4, Payload), 0u);
    EXPECT_FALSE(Reader.ok());
    EXPECT_NE(Reader.error().find("stride"), std::string::npos);
  }
  // Nonexistent file path.
  {
    TraceReader Reader;
    EXPECT_FALSE(Reader.openFile("/nonexistent/trace.bft"));
    EXPECT_FALSE(Reader.error().empty());
  }
}

/// The decoder reads an event's fixed fields unchecked while this many
/// bytes remain (head, access and five 10-byte varints).
constexpr size_t kEventWindow = 52;

/// A copy of \p Buf in a heap block of exactly its size, so a read past
/// the end is an out-of-bounds access that AddressSanitizer reports.
std::unique_ptr<uint8_t[]> exactCopy(const std::vector<uint8_t> &Buf) {
  auto Copy = std::make_unique<uint8_t[]>(Buf.size());
  std::copy(Buf.begin(), Buf.end(), Copy.get());
  return Copy;
}

/// Encodes \p Stream one event per batch and records in \p Ends the
/// buffer size after each event, i.e. where its encoding ends.
std::vector<uint8_t> encodeEach(const std::vector<FuzzEvent> &Stream,
                                const SymbolTable &Syms,
                                std::vector<size_t> &Ends) {
  TraceWriter Writer(Syms, fuzzConfig());
  for (const FuzzEvent &F : Stream) {
    Event E = F.E;
    E.PayloadIndex = 0;
    E.PayloadCount = static_cast<uint32_t>(F.Words.size());
    Writer.consumeBatch(&E, 1, F.Words.data());
    Ends.push_back(Writer.buffer().size());
  }
  Writer.finish(fuzzSummary());
  return Writer.buffer();
}

FuzzEvent threadBegin() {
  FuzzEvent F;
  F.E.Kind = EventKind::ThreadBegin;
  return F;
}

void expectSameEvent(const Event &Got, const std::vector<uint32_t> &GotWords,
                     const Event &Want,
                     const std::vector<uint32_t> &WantWords,
                     const std::string &Tag) {
  EXPECT_EQ(Got.Kind, Want.Kind) << Tag;
  EXPECT_EQ(Got.Target, Want.Target) << Tag;
  EXPECT_EQ(Got.Access, Want.Access) << Tag;
  EXPECT_EQ(Got.Tid, Want.Tid) << Tag;
  EXPECT_EQ(Got.Obj, Want.Obj) << Tag;
  EXPECT_EQ(Got.Aux, Want.Aux) << Tag;
  EXPECT_EQ(Got.Field, Want.Field) << Tag;
  EXPECT_EQ(Got.PayloadIndex, Want.PayloadIndex) << Tag;
  ASSERT_EQ(Got.PayloadCount, Want.PayloadCount) << Tag;
  EXPECT_EQ(Got.Begin, Want.Begin) << Tag;
  EXPECT_EQ(Got.End, Want.End) << Tag;
  EXPECT_EQ(Got.Stride, Want.Stride) << Tag;
  auto Words = [](const std::vector<uint32_t> &W, const Event &E) {
    return std::vector<uint32_t>(W.begin() + E.PayloadIndex,
                                 W.begin() + E.PayloadIndex + E.PayloadCount);
  };
  EXPECT_EQ(Words(GotWords, Got), Words(WantWords, Want)) << Tag;
}

TEST(TraceCodec, WindowAndCheckedPathsDecodeAlike) {
  constexpr uint32_t kNumSyms = 64;
  SymbolTable Syms = fuzzSymbols(kNumSyms);

  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Rng R(Seed);
    size_t Len = static_cast<size_t>(pick(R, 0, 400));
    std::vector<FuzzEvent> Stream = randomStream(R, Len, kNumSyms);
    // 200 bytes of trailing events put every fuzzed event, payload
    // included (at most 12 words of at most 10 bytes), inside the window.
    for (size_t I = 0; I < 100; ++I)
      Stream.push_back(threadBegin());
    std::vector<size_t> Ends;
    std::vector<uint8_t> Buf = encodeEach(Stream, Syms, Ends);
    auto Data = exactCopy(Buf);

    std::vector<Event> Deep(Stream.size());
    std::vector<uint32_t> DeepWords;
    TraceReader Whole;
    ASSERT_TRUE(Whole.open(Data.get(), Buf.size())) << Whole.error();
    ASSERT_EQ(Whole.nextBatch(Deep.data(), Deep.size(), DeepWords),
              Stream.size())
        << "seed " << Seed << ": " << Whole.error();

    // The same bytes cut right after event I: fewer than a window's bytes
    // remain at its start, so it takes the checked path.
    for (size_t I = 0; I < Len; ++I) {
      std::string Tag =
          "seed " + std::to_string(Seed) + " event " + std::to_string(I);
      size_t Start = I ? Ends[I - 1] : Ends[0] - 1;
      ASSERT_LT(Ends[I] - Start, kEventWindow) << Tag;
      std::vector<uint8_t> Cut(Buf.begin(), Buf.begin() + Ends[I]);
      auto CutData = exactCopy(Cut);
      TraceReader Tail;
      ASSERT_TRUE(Tail.open(CutData.get(), Cut.size())) << Tail.error();
      std::vector<Event> Got(I + 1);
      std::vector<uint32_t> Words;
      ASSERT_EQ(Tail.nextBatch(Got.data(), I + 1, Words), I + 1)
          << Tag << ": " << Tail.error();
      expectSameEvent(Got[I], Words, Deep[I], DeepWords, Tag);
    }
  }
}

/// A trace whose events section starts with the raw bytes \p Bad over a
/// symbol table of \p NumSyms fields. With \p Pad > 0, Pad ThreadBegin
/// events, the terminator and a summary follow, so the bad event sits
/// inside the decoder's window; with Pad == 0 the data ends after it.
std::vector<uint8_t> traceWith(const std::vector<uint8_t> &Bad, size_t Pad,
                               uint32_t NumSyms = 4) {
  SymbolTable Syms = fuzzSymbols(NumSyms);
  TraceWriter Writer(Syms, fuzzConfig());
  size_t HeaderSize = Writer.buffer().size();
  std::vector<uint8_t> Buf = Writer.buffer();
  Buf.insert(Buf.end(), Bad.begin(), Bad.end());
  if (Pad) {
    std::vector<Event> Pads(Pad, threadBegin().E);
    Writer.consumeBatch(Pads.data(), Pads.size(), nullptr);
    Writer.finish(fuzzSummary());
    Buf.insert(Buf.end(), Writer.buffer().begin() + HeaderSize,
               Writer.buffer().end());
  }
  return Buf;
}

/// The error that draining \p Buf with nextBatch ends in ("" if none).
std::string decodeError(const std::vector<uint8_t> &Buf) {
  auto Data = exactCopy(Buf);
  TraceReader Reader;
  if (!Reader.open(Data.get(), Buf.size()))
    return "open: " + Reader.error();
  drainsCleanly(Reader);
  return Reader.error();
}

uint8_t head(EventKind K, unsigned Target = kTargetTool) {
  return static_cast<uint8_t>(static_cast<unsigned>(K) | (Target << 6));
}

std::vector<uint8_t> varint(uint64_t V) {
  std::vector<uint8_t> Out;
  for (; V >= 0x80; V >>= 7)
    Out.push_back(static_cast<uint8_t>(V) | 0x80);
  Out.push_back(static_cast<uint8_t>(V));
  return Out;
}

/// Concatenates byte groups into one event encoding.
std::vector<uint8_t> bytes(std::initializer_list<std::vector<uint8_t>> Parts) {
  std::vector<uint8_t> Out;
  for (const std::vector<uint8_t> &P : Parts)
    Out.insert(Out.end(), P.begin(), P.end());
  return Out;
}

TEST(TraceCodec, CorruptionsInsideTheWindowFailAsAtTheTail) {
  std::vector<uint8_t> TooLong(10, 0x80);
  TooLong.push_back(0x01);
  // As many bytes as the count, all continuation bytes: each word runs
  // ten bytes, so the list would read past the data at the tail.
  std::vector<uint8_t> Run(60, 0x80);
  struct Case {
    const char *Name;
    std::vector<uint8_t> Bad;
    const char *Error;
  } Cases[] = {
      {"zero stride",
       {head(EventKind::ArrayCheck), 0, 0, 0, 0, 2, 0},
       "malformed trace: non-positive range stride"},
      {"unknown kind", {0x3F | (1u << 6)}, "malformed trace: unknown event kind"},
      {"target mask 0",
       {head(EventKind::FieldCheck, 0), 0, 0, 0, 1, 0},
       "malformed trace: bad event target mask"},
      {"11-byte varint",
       bytes({{head(EventKind::ThreadBegin)}, TooLong}),
       "malformed trace: varint longer than 64 bits"},
      {"field count past the end",
       bytes({{head(EventKind::FieldCheck), 0, 0, 0}, varint(1000000)}),
       "truncated trace: field list runs past end of data"},
      {"party count past the end",
       bytes({{head(EventKind::Barrier, kTargetBoth)}, varint(1000000)}),
       "truncated trace: barrier party list runs past end"},
      {"array check of continuation bytes",
       bytes({{head(EventKind::ArrayCheck)},
              std::vector<uint8_t>(kEventWindow - 7, 0x80)}),
       "malformed trace: varint longer than 64 bits"},
      {"field words running on",
       bytes({{head(EventKind::FieldCheck), 0, 0, 0, 60}, Run}),
       "malformed trace: varint longer than 64 bits"},
      {"party words running on",
       bytes({{head(EventKind::Barrier, kTargetBoth), 60}, Run}),
       "malformed trace: varint longer than 64 bits"},
  };
  for (const Case &C : Cases) {
    std::vector<uint8_t> Tail = traceWith(C.Bad, 0);
    std::vector<uint8_t> Window = traceWith(C.Bad, 40);
    ASSERT_GE(Window.size() - Tail.size(), 64u) << C.Name;
    EXPECT_EQ(decodeError(Tail), C.Error) << C.Name;
    EXPECT_EQ(decodeError(Window), C.Error) << C.Name;
  }
}

TEST(TraceCodec, HostileIdsFailCleanly) {
  const char *BadThread = "malformed trace: thread id out of range";
  const char *BadField = "malformed trace: field id out of range";
  const char *BadLength = "malformed trace: array length out of range";
  struct Case {
    const char *Name;
    std::vector<uint8_t> Bad;
    const char *Error;
  } Cases[] = {
      {"check by thread 0xFFFFFFFF",
       bytes({{head(EventKind::FieldCheck)}, varint(0xFFFFFFFF), {0, 0, 1, 0}}),
       BadThread},
      {"check by thread 50,000,000",
       bytes({{head(EventKind::FieldCheck)}, varint(50000000), {0, 0, 1, 0}}),
       BadThread},
      {"thread at the limit",
       bytes({{head(EventKind::ThreadBegin)}, varint(kMaxThreads)}),
       BadThread},
      {"fork of thread 0xFFFFFFFF",
       bytes({{head(EventKind::Fork, kTargetBoth), 0}, varint(0xFFFFFFFF)}),
       BadThread},
      {"join of thread 0xFFFFFFFF",
       bytes({{head(EventKind::Join, kTargetBoth), 0}, varint(0xFFFFFFFF)}),
       BadThread},
      {"barrier party 0xFFFFFFFF",
       bytes({{head(EventKind::Barrier, kTargetBoth), 1}, varint(0xFFFFFFFF)}),
       BadThread},
      {"checked field 1000",
       bytes({{head(EventKind::FieldCheck), 0, 0, 0, 1}, varint(1000)}),
       BadField},
      {"volatile field 0xFFFFFFFF",
       bytes({{head(EventKind::VolatileRead, kTargetBoth), 0, 0},
              varint(0xFFFFFFFF)}),
       BadField},
      {"object past a LocId",
       bytes({{head(EventKind::Acquire, kTargetBoth), 0},
              varint(uint64_t(1) << (64 - kLocFieldBits + 1))}),
       "malformed trace: object id out of range"},
      {"array of 2^40 elements",
       bytes({{head(EventKind::ArrayAlloc, kTargetBoth), 0},
              varint(uint64_t(1) << 40)}),
       BadLength},
      {"array one past the length limit",
       bytes({{head(EventKind::ArrayAlloc, kTargetBoth), 0},
              varint(kMaxArrayLength + 1)}),
       BadLength},
      {"two arrays of 2^25 + 1 elements",
       bytes({{head(EventKind::ArrayAlloc, kTargetBoth), 0},
              varint(kMaxArrayLength / 2 + 1),
              {head(EventKind::ArrayAlloc, kTargetBoth), 2},
              varint(kMaxArrayLength / 2 + 1)}),
       "malformed trace: arrays exceed the VM heap cap"},
  };
  for (const Case &C : Cases) {
    // One symbol: every field id but 0 lies past the table.
    std::vector<uint8_t> Tail = traceWith(C.Bad, 0, 1);
    std::vector<uint8_t> Window = traceWith(C.Bad, 40, 1);
    EXPECT_EQ(decodeError(Tail), C.Error) << C.Name;
    EXPECT_EQ(decodeError(Window), C.Error) << C.Name;

    auto Data = exactCopy(Window);
    TraceReader Reader;
    ASSERT_TRUE(Reader.open(Data.get(), Window.size())) << C.Name;
    ReplayOptions Opts;
    Opts.EnableGroundTruth = true;
    ReplayResult R = replayTrace(Reader, Reader.config(), Opts);
    EXPECT_FALSE(R.Ok) << C.Name;
    EXPECT_EQ(R.Error, std::string("trace replay failed: ") + C.Error)
        << C.Name;
  }
}

/// \p Name's Bench-scale trace under FastTrack placement, with the
/// oracle's events; \p EventsBegin and \p EventsEnd bound its events.
std::vector<uint8_t> recordBench(const std::string &Name, size_t &EventsBegin,
                                 size_t &EventsEnd) {
  ParseResult PR = parseProgram(workloadByName(Name, SuiteScale::Bench).Source);
  EXPECT_TRUE(PR.ok()) << PR.Error;
  InstrumentedProgram IP = instrumentFastTrack(*PR.Prog);
  IP.Prog->internSymbols();
  TraceWriter Writer(IP.Prog->symbols(), IP.Tool);
  EventsBegin = Writer.buffer().size();
  VmOptions Opts;
  Opts.Seed = 1;
  Opts.EnableGroundTruth = true;
  Opts.RecordSink = &Writer;
  VmResult Run = runProgram(*IP.Prog, IP.Tool, Opts);
  EXPECT_TRUE(Run.Ok) << Run.Error;
  EventsEnd = Writer.buffer().size();
  Writer.finish(Run.traceSummary());
  return Writer.buffer();
}

TEST(TraceCodec, ByteMutationsDecodeOrFail) {
  // avrora brings volatiles and locks; lufact array checks, forks, joins
  // and barriers.
  for (const char *Name : {"avrora", "lufact"}) {
    size_t EventsBegin = 0, EventsEnd = 0;
    std::vector<uint8_t> Good = recordBench(Name, EventsBegin, EventsEnd);
    ASSERT_GT(EventsEnd - EventsBegin, 10000u) << Name;

    Rng R(2017);
    size_t Failed = 0;
    for (int M = 0; M < 48; ++M) {
      std::string Tag = std::string(Name) + " mutant " + std::to_string(M);
      std::vector<uint8_t> Bad = Good;
      size_t Last = 0;
      for (uint64_t F = pick(R, 1, 4); F > 0; --F) {
        size_t At = static_cast<size_t>(pick(R, EventsBegin, EventsEnd - 1));
        Bad[At] ^= static_cast<uint8_t>(pick(R, 1, 255));
        Last = std::max(Last, At);
      }
      // Half the mutants also end early, so flips meet the end of data.
      if (pick(R, 0, 1))
        Bad.resize(static_cast<size_t>(pick(R, Last + 1, Bad.size())));
      auto Data = exactCopy(Bad);
      TraceReader Reader;
      ASSERT_TRUE(Reader.open(Data.get(), Bad.size())) << Tag;
      std::vector<Event> Batch(256);
      std::vector<uint32_t> Payload;
      while (Reader.nextBatch(Batch.data(), Batch.size(), Payload) > 0)
        ;
      if (Reader.ok()) {
        EXPECT_TRUE(Reader.summaryReady()) << Tag;
      } else {
        EXPECT_FALSE(Reader.error().empty()) << Tag;
        ++Failed;
      }
    }
    EXPECT_GT(Failed, 0u) << Name; // The flips did reach the decoder.
  }
}

} // namespace
