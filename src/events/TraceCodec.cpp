//===- TraceCodec.cpp - Binary event-trace record format ------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "events/TraceCodec.h"

#include <cassert>
#include <cstdio>
#include <cstring>

using namespace bigfoot;

namespace {

constexpr uint8_t kMagic[4] = {'B', 'F', 'T', '1'};
constexpr uint8_t kSecSymbols = 0x01;
constexpr uint8_t kSecConfig = 0x02;
constexpr uint8_t kSecEvents = 0x03;
constexpr uint8_t kSecSummary = 0x04;
constexpr uint8_t kSecEnd = 0xFE;
/// Terminates the EVENTS section; its low 6 bits are not a valid kind.
constexpr uint8_t kEventsEnd = 0xFF;

uint64_t zigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^ static_cast<uint64_t>(V >> 63);
}

int64_t unzigzag(uint64_t V) {
  return static_cast<int64_t>((V >> 1) ^ (~(V & 1) + 1));
}

/// A + B with two's-complement wraparound: hostile deltas must not
/// overflow a signed add.
int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}

/// Ten 7-bit groups cover 64 bits; a longer varint is corrupt.
constexpr size_t kMaxVarBytes = 10;

/// The longest event encoding without a payload: head byte, access byte
/// and five varints (ArrayCheck). While this many bytes remain, an
/// event's fixed fields cannot run past the data, so they decode with no
/// per-byte bounds check.
constexpr ptrdiff_t kEventWindow = 2 + 5 * kMaxVarBytes;

/// Object ids must fit beside a field id in a LocId (support/Symbol.h).
constexpr uint64_t kMaxObjects = uint64_t(1) << (64 - kLocFieldBits);

constexpr const char *kTruncated = "truncated trace: unexpected end of data";
constexpr const char *kBadThread = "malformed trace: thread id out of range";

/// A read position over [P, End). A checked cursor tests every byte
/// against End; an unchecked one relies on its caller having proven that
/// enough bytes remain. The first error sticks, and a checked read past
/// End yields 0 without advancing, so a failed decode winds down without
/// reading further.
template <bool Checked> struct Cursor {
  const uint8_t *P;
  const uint8_t *End;
  const char *Err = nullptr;

  void fail(const char *Why) {
    if (!Err)
      Err = Why;
  }
  size_t left() const { return static_cast<size_t>(End - P); }
  uint8_t byte() {
    if constexpr (Checked) {
      if (P == End) [[unlikely]] {
        fail(kTruncated);
        return 0;
      }
    }
    return *P++;
  }
};

template <bool Checked> uint64_t readVar(Cursor<Checked> &C) {
  uint64_t B = C.byte();
  if (!(B & 0x80)) [[likely]]
    return B;
  uint64_t V = B & 0x7F;
  for (unsigned Shift = 7; Shift < 64; Shift += 7) {
    B = C.byte();
    V |= (B & 0x7F) << Shift;
    if (!(B & 0x80))
      return V;
  }
  C.fail("malformed trace: varint longer than 64 bits");
  return V;
}

template <bool Checked> int64_t readSVar(Cursor<Checked> &C) {
  return unzigzag(readVar(C));
}

enum class Step { Event, End, Error, Retry };

/// Decodes the event at C.P into \p E, against the delta state \p LastObj
/// and \p LastBegin; field ids must be below \p NumFields. \p ArrayElems
/// is the length of every array allocated so far, which must stay within
/// kMaxArrayLength: the VM charges each element against its heap cap, so
/// no run allocates more. The delta state and \p ArrayElems change only
/// on Step::Event. An unchecked cursor returns Step::Retry,
/// having changed nothing but \p E, when a payload list may reach past
/// the bytes it has proven; the event then decodes again from its first
/// byte under a checked cursor.
template <bool Checked>
Step decodeEvent(Cursor<Checked> &C, Event &E, uint64_t &LastObj,
                 int64_t &LastBegin, uint64_t &ArrayElems, uint64_t NumFields,
                 std::vector<uint32_t> &Payload) {
  uint8_t Head = C.byte();
  if (Head == kEventsEnd)
    return Step::End;
  unsigned KindBits = Head & 0x3F;
  unsigned Target = Head >> 6;
  if (KindBits >= kNumEventKinds)
    C.fail("malformed trace: unknown event kind");
  else if (Target == 0)
    C.fail("malformed trace: bad event target mask");
  if (C.Err)
    return Step::Error;
  E = Event();
  E.Kind = static_cast<EventKind>(KindBits);
  E.Target = static_cast<uint8_t>(Target);

  uint64_t Obj = LastObj;
  int64_t Begin = LastBegin;
  auto Tid = [&] {
    uint64_t U = readVar(C);
    if (U >= kMaxThreads)
      C.fail(kBadThread);
    return static_cast<ThreadId>(U);
  };
  auto Field = [&] {
    uint64_t U = readVar(C);
    if (U >= NumFields)
      C.fail("malformed trace: field id out of range");
    return static_cast<FieldId>(U);
  };
  auto NextObj = [&] {
    Obj += static_cast<uint64_t>(readSVar(C));
    if (Obj >= kMaxObjects)
      C.fail("malformed trace: object id out of range");
    return Obj;
  };
  // A count, then that many words, each read by Word; one check of the
  // count against the remaining bytes (every word takes at least one)
  // bounds the whole list.
  auto List = [&](const char *PastEnd, auto Word) {
    uint64_t Count = readVar(C);
    if (Count > C.left()) {
      C.fail(PastEnd);
      return Step::Error;
    }
    if constexpr (!Checked)
      if (Count > C.left() / kMaxVarBytes)
        return Step::Retry;
    size_t Base = Payload.size();
    E.PayloadIndex = static_cast<uint32_t>(Base);
    E.PayloadCount = static_cast<uint32_t>(Count);
    Payload.resize(Base + Count);
    for (size_t I = Base; I != Payload.size(); ++I)
      Payload[I] = Word();
    return Step::Event;
  };

  switch (E.Kind) {
  case EventKind::FieldCheck: {
    E.Tid = Tid();
    E.Obj = NextObj();
    E.Access = static_cast<AccessKind>(C.byte());
    Step S = List("truncated trace: field list runs past end of data", Field);
    if (S != Step::Event)
      return S;
    break;
  }
  case EventKind::ArrayCheck:
    E.Tid = Tid();
    E.Obj = NextObj();
    E.Access = static_cast<AccessKind>(C.byte());
    Begin = wrapAdd(Begin, readSVar(C));
    E.Begin = Begin;
    E.End = wrapAdd(Begin, readSVar(C));
    E.Stride = readSVar(C);
    if (E.Stride < 1) // StridedRange requires a positive stride.
      C.fail("malformed trace: non-positive range stride");
    break;
  case EventKind::ArrayAlloc:
    E.Obj = NextObj();
    E.Aux = readVar(C);
    if (E.Aux > kMaxArrayLength)
      C.fail("malformed trace: array length out of range");
    else if (E.Aux > kMaxArrayLength - ArrayElems)
      C.fail("malformed trace: arrays exceed the VM heap cap");
    else if (!C.Err) // Nothing after the length can fail: this commits.
      ArrayElems += E.Aux;
    break;
  case EventKind::Acquire:
  case EventKind::Release:
    E.Tid = Tid();
    E.Obj = NextObj();
    break;
  case EventKind::VolatileRead:
  case EventKind::VolatileWrite:
    E.Tid = Tid();
    E.Obj = NextObj();
    E.Field = Field();
    break;
  case EventKind::Fork:
  case EventKind::Join:
    E.Tid = Tid();
    E.Aux = Tid();
    break;
  case EventKind::Barrier: {
    Step S = List("truncated trace: barrier party list runs past end", Tid);
    if (S != Step::Event)
      return S;
    break;
  }
  case EventKind::ThreadBegin:
  case EventKind::ThreadExit:
  case EventKind::Commit:
    E.Tid = Tid();
    break;
  }
  if (C.Err)
    return Step::Error;
  LastObj = Obj;
  LastBegin = Begin;
  return Step::Event;
}

} // namespace

//===--- TraceWriter ----------------------------------------------------------

TraceWriter::TraceWriter(const SymbolTable &Symbols,
                         const DetectorConfig &Config) {
  Buf.assign(kMagic, kMagic + 4);

  putByte(kSecSymbols);
  putVar(Symbols.size());
  for (SymId Id = 0; Id < Symbols.size(); ++Id)
    putStr(Symbols.name(Id));

  putByte(kSecConfig);
  putStr(Config.Name);
  uint8_t Flags = (Config.DeferArrayChecks ? 1u : 0u) |
                  (Config.AdaptiveArrayShadow ? 2u : 0u) |
                  (Config.VectorClocksOnly ? 4u : 0u);
  putByte(Flags);
  putVar(Config.FieldProxy.size());
  for (const auto &[Field, Rep] : Config.FieldProxy) {
    putStr(Field);
    putStr(Rep);
  }

  putByte(kSecEvents);
}

void TraceWriter::putVar(uint64_t V) {
  while (V >= 0x80) {
    putByte(static_cast<uint8_t>(V) | 0x80);
    V >>= 7;
  }
  putByte(static_cast<uint8_t>(V));
}

void TraceWriter::putSVar(int64_t V) { putVar(zigzag(V)); }

void TraceWriter::putStr(const std::string &S) {
  putVar(S.size());
  Buf.insert(Buf.end(), S.begin(), S.end());
}

void TraceWriter::putEvent(const Event &E, const uint32_t *Payload) {
  assert(static_cast<unsigned>(E.Kind) < kNumEventKinds && "unknown kind");
  assert(E.Target >= 1 && E.Target <= 3 && "target is a 2-bit mask");
  putByte(static_cast<uint8_t>(static_cast<unsigned>(E.Kind) |
                               (static_cast<unsigned>(E.Target) << 6)));
  switch (E.Kind) {
  case EventKind::FieldCheck:
    putVar(E.Tid);
    putSVar(static_cast<int64_t>(E.Obj - LastObj));
    LastObj = E.Obj;
    putByte(static_cast<uint8_t>(E.Access));
    putVar(E.PayloadCount);
    for (uint32_t I = 0; I < E.PayloadCount; ++I)
      putVar(Payload[E.PayloadIndex + I]);
    break;
  case EventKind::ArrayCheck:
    putVar(E.Tid);
    putSVar(static_cast<int64_t>(E.Obj - LastObj));
    LastObj = E.Obj;
    putByte(static_cast<uint8_t>(E.Access));
    putSVar(E.Begin - LastBegin);
    LastBegin = E.Begin;
    putSVar(E.End - E.Begin);
    putSVar(E.Stride);
    break;
  case EventKind::ArrayAlloc:
    putSVar(static_cast<int64_t>(E.Obj - LastObj));
    LastObj = E.Obj;
    putVar(E.Aux);
    break;
  case EventKind::Acquire:
  case EventKind::Release:
    putVar(E.Tid);
    putSVar(static_cast<int64_t>(E.Obj - LastObj));
    LastObj = E.Obj;
    break;
  case EventKind::VolatileRead:
  case EventKind::VolatileWrite:
    putVar(E.Tid);
    putSVar(static_cast<int64_t>(E.Obj - LastObj));
    LastObj = E.Obj;
    putVar(E.Field);
    break;
  case EventKind::Fork:
  case EventKind::Join:
    putVar(E.Tid);
    putVar(E.Aux);
    break;
  case EventKind::Barrier:
    putVar(E.PayloadCount);
    for (uint32_t I = 0; I < E.PayloadCount; ++I)
      putVar(Payload[E.PayloadIndex + I]);
    break;
  case EventKind::ThreadBegin:
  case EventKind::ThreadExit:
  case EventKind::Commit:
    putVar(E.Tid);
    break;
  }
}

void TraceWriter::consumeBatch(const Event *Events, size_t N,
                               const uint32_t *Payload) {
  assert(!Finished && "no events after finish()");
  for (size_t I = 0; I < N; ++I)
    putEvent(Events[I], Payload);
}

void TraceWriter::finish(const TraceSummary &Summary) {
  assert(!Finished && "finish() called twice");
  Finished = true;
  putByte(kEventsEnd);

  putByte(kSecSummary);
  putByte(Summary.Ok ? 1 : 0);
  putStr(Summary.Error);
  putVar(Summary.StatementsExecuted);
  putVar(Summary.Output.size());
  for (const std::string &Line : Summary.Output)
    putStr(Line);
  putVar(Summary.Counters.size());
  for (const auto &[Name, Value] : Summary.Counters) {
    putStr(Name);
    putVar(Value);
  }

  putByte(kSecEnd);
}

bool TraceWriter::writeFile(const std::string &Path) const {
  assert(Finished && "write the summary before the file");
  FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  size_t Written = Buf.empty() ? 0 : std::fwrite(Buf.data(), 1, Buf.size(), F);
  bool Ok = Written == Buf.size() && std::fclose(F) == 0;
  if (!Ok && Written != Buf.size())
    std::fclose(F);
  return Ok;
}

//===--- TraceReader ----------------------------------------------------------

bool TraceReader::fail(const std::string &Message) {
  if (Err.empty())
    Err = Message;
  return false;
}

bool TraceReader::getByte(uint8_t &B) {
  if (Pos >= Size)
    return fail("truncated trace: unexpected end of data");
  B = Data[Pos++];
  return true;
}

bool TraceReader::getVar(uint64_t &V) {
  Cursor<true> C{Data + Pos, Data + Size};
  V = readVar(C);
  Pos = static_cast<size_t>(C.P - Data);
  return C.Err ? fail(C.Err) : true;
}

bool TraceReader::getStr(std::string &S) {
  uint64_t Len;
  if (!getVar(Len))
    return false;
  if (Len > Size - Pos)
    return fail("truncated trace: string runs past end of data");
  S.assign(reinterpret_cast<const char *>(Data + Pos),
           static_cast<size_t>(Len));
  Pos += static_cast<size_t>(Len);
  return true;
}

bool TraceReader::open(const uint8_t *D, size_t N) {
  Data = D;
  Size = N;
  Pos = 0;
  Err.clear();
  EventsDone = false;
  HaveSummary = false;
  NumEvents = 0;
  LastObj = 0;
  LastBegin = 0;
  ArrayElems = 0;
  Syms = SymbolTable();
  Config = DetectorConfig();
  Summary = TraceSummary();

  if (Size < 4 || std::memcmp(Data, kMagic, 4) != 0)
    return fail("not a BigFoot trace (bad magic)");
  Pos = 4;
  return parseSections();
}

bool TraceReader::openFile(const std::string &Path) {
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return fail("cannot open trace file: " + Path);
  FileBuf.clear();
  uint8_t Chunk[1 << 16];
  size_t Got;
  while ((Got = std::fread(Chunk, 1, sizeof(Chunk), F)) > 0)
    FileBuf.insert(FileBuf.end(), Chunk, Chunk + Got);
  bool ReadOk = !std::ferror(F);
  std::fclose(F);
  if (!ReadOk)
    return fail("read error on trace file: " + Path);
  return open(FileBuf.data(), FileBuf.size());
}

/// Parses the header sections up to (and including) the EVENTS tag, after
/// which nextBatch() takes over.
bool TraceReader::parseSections() {
  for (;;) {
    uint8_t Tag;
    if (!getByte(Tag))
      return false;
    switch (Tag) {
    case kSecSymbols: {
      uint64_t Count;
      if (!getVar(Count))
        return false;
      if (Count > Size) // More symbols than bytes: corrupt, not just big.
        return fail("malformed trace: symbol count exceeds file size");
      std::string Name;
      for (uint64_t I = 0; I < Count; ++I) {
        if (!getStr(Name))
          return false;
        // Interning in recorded order reproduces the recorded ids.
        Syms.intern(Name);
      }
      break;
    }
    case kSecConfig: {
      if (!getStr(Config.Name))
        return false;
      uint8_t Flags;
      if (!getByte(Flags))
        return false;
      Config.DeferArrayChecks = Flags & 1;
      Config.AdaptiveArrayShadow = Flags & 2;
      Config.VectorClocksOnly = Flags & 4;
      uint64_t NumProxies;
      if (!getVar(NumProxies))
        return false;
      if (NumProxies > Size)
        return fail("malformed trace: proxy count exceeds file size");
      std::string Field, Rep;
      for (uint64_t I = 0; I < NumProxies; ++I) {
        if (!getStr(Field) || !getStr(Rep))
          return false;
        Config.FieldProxy[Field] = Rep;
      }
      break;
    }
    case kSecEvents:
      return true; // Header done; the stream starts here.
    default:
      return fail("malformed trace: unknown section tag before events");
    }
  }
}

size_t TraceReader::nextBatch(Event *Out, size_t Max,
                              std::vector<uint32_t> &Payload) {
  Payload.clear();
  if (!ok() || EventsDone)
    return 0;
  const uint8_t *P = Data + Pos;
  const uint8_t *End = Data + Size;
  const uint64_t NumFields = Syms.size();
  uint64_t Obj = LastObj;
  int64_t Begin = LastBegin;
  const char *Why = nullptr;
  size_t N = 0;
  auto Decode = [&](auto C) {
    Step S =
        decodeEvent(C, Out[N], Obj, Begin, ArrayElems, NumFields, Payload);
    if (S != Step::Retry) {
      P = C.P;
      Why = C.Err;
    }
    return S;
  };
  // Events decode unchecked while a whole window remains; the stream's
  // last bytes, and an event whose payload the window does not cover,
  // take the checked cursor.
  Step S = Step::Event;
  for (; N < Max; ++N) {
    S = End - P >= kEventWindow ? Decode(Cursor<false>{P, End}) : Step::Retry;
    if (S == Step::Retry)
      S = Decode(Cursor<true>{P, End});
    if (S != Step::Event)
      break;
  }
  Pos = static_cast<size_t>(P - Data);
  LastObj = Obj;
  LastBegin = Begin;
  NumEvents += N;
  if (S == Step::Error) {
    fail(Why);
  } else if (S == Step::End) {
    EventsDone = true;
    parseSummarySection();
  }
  return ok() ? N : 0;
}

bool TraceReader::parseSummarySection() {
  uint8_t Tag;
  if (!getByte(Tag))
    return false;
  if (Tag != kSecSummary)
    return fail("malformed trace: expected summary after events");
  uint8_t Ok;
  if (!getByte(Ok))
    return false;
  Summary.Ok = Ok != 0;
  if (!getStr(Summary.Error))
    return false;
  if (!getVar(Summary.StatementsExecuted))
    return false;
  uint64_t NumLines;
  if (!getVar(NumLines))
    return false;
  if (NumLines > Size - Pos)
    return fail("truncated trace: output line count exceeds data");
  Summary.Output.resize(static_cast<size_t>(NumLines));
  for (std::string &Line : Summary.Output)
    if (!getStr(Line))
      return false;
  uint64_t NumCounters;
  if (!getVar(NumCounters))
    return false;
  if (NumCounters > Size - Pos)
    return fail("truncated trace: counter count exceeds data");
  std::string Name;
  for (uint64_t I = 0; I < NumCounters; ++I) {
    uint64_t Value;
    if (!getStr(Name) || !getVar(Value))
      return false;
    Summary.Counters[Name] = Value;
  }
  if (!getByte(Tag))
    return false;
  if (Tag != kSecEnd)
    return fail("malformed trace: missing end marker");
  HaveSummary = true;
  return true;
}
