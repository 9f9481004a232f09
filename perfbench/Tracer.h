//===- Tracer.h - In-memory spans around the pipeline's layers --*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// The benchmark opens one span around each call into a layer (parse,
// placement, compile, execution, trace decode, replay). Spans nest by
// call order, are kept in memory and are written out only after the run
// ends. A span's self time is its duration minus the time its child
// spans cover; summed per name and per round, self times form the
// per-layer ledger. A disabled tracer records nothing and reads no
// clock, which is how the end-to-end run is timed.
//
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_PERFBENCH_TRACER_H
#define BIGFOOT_PERFBENCH_TRACER_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <time.h>

namespace perfbench {

class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  /// Closes its span when it goes out of scope.
  class Scope {
  public:
    Scope(Tracer *Owner, int Index) : Owner(Owner), Index(Index) {}
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    ~Scope() {
      if (Owner)
        Owner->close(Index);
    }

  private:
    Tracer *Owner;
    int Index;
  };

  /// Opens a span named \p Name (a string literal) as a child of the
  /// innermost open span. \p Op identifies the (program x seed) op the
  /// call serves, or -1.
  Scope span(const char *Name, int Op = -1) {
    if (!Enabled)
      return Scope(nullptr, -1);
    Spans.push_back({Name, Open, Round, Op, now(), 0, 0});
    Open = static_cast<int>(Spans.size()) - 1;
    return Scope(this, Open);
  }

  /// Starts a new round; spans opened from now on belong to it.
  void nextRound() { ++Round; }
  void setEnabled(bool On) { Enabled = On; }

  /// Self seconds summed per span name, for each round that has spans.
  std::map<int, std::map<std::string, double>> selfSecondsByRound() const {
    std::map<int, std::map<std::string, double>> Out;
    for (const Span &S : Spans)
      Out[S.Round][S.Name] += selfSeconds(S);
    return Out;
  }

  /// For spans named \p Name: each op's minimum self time over all
  /// rounds, summed over ops.
  double sumOfOpMinima(const char *Name) const {
    std::map<int, double> Min;
    for (const Span &S : Spans) {
      if (std::strcmp(S.Name, Name) != 0)
        continue;
      auto [It, New] = Min.emplace(S.Op, selfSeconds(S));
      if (!New)
        It->second = std::min(It->second, selfSeconds(S));
    }
    double Sum = 0;
    for (const auto &[Op, Seconds] : Min)
      Sum += Seconds;
    return Sum;
  }

  /// Writes every span as one JSON object: `{<Meta>,"spans":[...]}`,
  /// where \p Meta is a comma-separated list of members.
  bool writeJson(const std::string &Path, const std::string &Meta) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "{%s,\"spans\":[", Meta.c_str());
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "%s\n{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                   "\"round\":%d,\"op\":%d,\"begin_ns\":%lld,"
                   "\"end_ns\":%lld}",
                   I ? "," : "", I, S.Name, S.Parent, S.Round, S.Op,
                   static_cast<long long>(S.Begin),
                   static_cast<long long>(S.End));
    }
    std::fprintf(F, "\n]}\n");
    return std::fclose(F) == 0;
  }

private:
  struct Span {
    const char *Name;
    int Parent;
    int Round;
    int Op;
    int64_t Begin, End;
    int64_t ChildNs; ///< Time covered by direct children.
  };

  bool Enabled;
  std::vector<Span> Spans;
  int Open = -1;
  int Round = 0;
  static double selfSeconds(const Span &S) {
    return 1e-9 * static_cast<double>(S.End - S.Begin - S.ChildNs);
  }

  /// The calling thread's CPU time, like the end-to-end timings
  /// (HostSpeed.h); spans are only opened on the benchmark's main thread.
  static int64_t now() {
    timespec T;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
    return static_cast<int64_t>(T.tv_sec) * 1000000000 + T.tv_nsec;
  }

  void close(int Index) {
    Span &S = Spans[static_cast<size_t>(Index)];
    S.End = now();
    Open = S.Parent;
    if (Open >= 0)
      Spans[static_cast<size_t>(Open)].ChildNs += S.End - S.Begin;
  }
};

} // namespace perfbench

#endif // BIGFOOT_PERFBENCH_TRACER_H
