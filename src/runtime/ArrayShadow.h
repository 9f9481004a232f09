//===- ArrayShadow.h - Adaptive compressed array shadow ---------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adaptively compressed array shadow representation of Section 4,
/// after SlimState [ASE'15]. An array starts as one coarse shadow
/// location covering every element and is refined when a committed check
/// is inconsistent with the current representation. The refined form is a
/// two-level grid: contiguous segments × residue classes mod K, which
/// covers the common block (K = 1), strided (one segment), and
/// block-strided (sor's per-worker red/black chunks) patterns with one
/// location per (segment, class). Patternless access falls back to one
/// location per element.
///
/// Refinement copies the covering location's state into each finer
/// location, which preserves the recorded access history exactly. States
/// are pool-backed PODs (FastTrackState), so those copies are pool clones
/// and the dropped originals release their slots back to the pool.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_RUNTIME_ARRAYSHADOW_H
#define BIGFOOT_RUNTIME_ARRAYSHADOW_H

#include "bfj/Path.h"
#include "runtime/ClockPool.h"
#include "runtime/FastTrackState.h"
#include "support/StridedRange.h"

#include <vector>

namespace bigfoot {

/// How long one array, and all of a run's arrays together, may be: the
/// VM's 1 GiB heap cap at 16 bytes per element. The VM refuses a longer
/// allocation and the trace reader rejects a longer ArrayAlloc or a
/// longer sum, so a replay never sizes shadows that no run could.
inline constexpr uint64_t kMaxArrayLength = uint64_t(1) << 26;

/// Result of applying one range check to an array shadow.
struct ShadowOpResult {
  unsigned ShadowOps = 0;    ///< Location check-and-update operations.
  unsigned Refinements = 0;  ///< Representation changes triggered.
  std::vector<RaceInfo> Races;
};

/// The shadow state of one array.
class ArrayShadow {
public:
  /// Coarse: one location. Segments: grid with stride 1. Strided: grid
  /// with stride > 1 (one or more segments). Fine: one location per
  /// element.
  enum class Mode { Coarse, Segments, Strided, Fine };

  /// \p Length is the array length; \p Adaptive false forces Fine mode
  /// from the start (the representation FastTrack and RedCard use).
  /// \p Pool owns the inflated clocks of every location and must outlive
  /// the shadow. \p VcOnly puts every location in DJIT+ vector-clock mode.
  ArrayShadow(int64_t Length, bool Adaptive, ClockPool &Pool,
              bool VcOnly = false);

  // States hold pool indices: copying would alias them, moving is fine.
  ArrayShadow(const ArrayShadow &) = delete;
  ArrayShadow &operator=(const ArrayShadow &) = delete;
  ArrayShadow(ArrayShadow &&) = default;
  ArrayShadow &operator=(ArrayShadow &&) = default;

  /// Applies a read/write check over \p R at epoch \p Cur (thread
  /// Cur.tid()) with full clock \p C, refining the representation when
  /// \p R does not fit it.
  ShadowOpResult apply(const StridedRange &R, AccessKind K, Epoch Cur,
                       const VectorClock &C);

  /// Convenience computing the epoch from \p C (tests, ad-hoc drivers).
  ShadowOpResult apply(const StridedRange &R, AccessKind K, ThreadId T,
                       const VectorClock &C) {
    return apply(R, K, C.epochOf(T), C);
  }

  Mode mode() const;

  /// Number of live shadow locations.
  size_t locationCount() const { return States.size(); }

  /// Approximate footprint in bytes. O(1): the per-state contribution is
  /// maintained incrementally across ops and refinements.
  size_t memoryBytes() const {
    return sizeof(ArrayShadow) + Bounds.size() * sizeof(int64_t) +
           StateBytes;
  }

  /// Recomputes the footprint by walking every state; must always equal
  /// memoryBytes() (asserted by the accounting test).
  size_t auditMemoryBytes() const;

private:
  int64_t Length;
  /// The detector-owned clock pool backing every state's inflated clocks.
  ClockPool *Pool;
  bool Coarse = false; ///< Single location covering everything.
  bool Fine = false;   ///< One location per element.
  /// Grid representation (when neither Coarse nor Fine): segments are
  /// [Bounds[i], Bounds[i+1]) with interior bounds aligned to StrideK;
  /// each segment holds StrideK residue-class locations, stored at
  /// States[Seg * StrideK + Class].
  std::vector<int64_t> Bounds;
  int64_t StrideK = 1;
  std::vector<FastTrackState> States;
  /// Sum of shadowcost::stateBytes over States, maintained incrementally.
  size_t StateBytes = 0;

  static constexpr size_t MaxGridStates = 256;

  size_t stateSum(const std::vector<FastTrackState> &V) const;

  void toFine();
  /// Converts Coarse into a one-segment grid with stride \p K.
  void toGrid(int64_t K);
  /// Splits the grid segment containing \p At (which must be aligned to
  /// StrideK or be inside the last ragged segment). Returns false when
  /// the state budget is exhausted.
  bool splitAt(int64_t At, ShadowOpResult &Result);

  bool isWhole(const StridedRange &R) const {
    return R.stride() == 1 && R.begin() <= 0 && R.end() >= Length;
  }

  void opOn(FastTrackState &State, AccessKind K, Epoch Cur,
            const VectorClock &C, ShadowOpResult &Result);

  /// Re-runs apply after a representation change, folding the recursive
  /// result into \p Result.
  ShadowOpResult reapply(const StridedRange &R, AccessKind K, Epoch Cur,
                         const VectorClock &C, ShadowOpResult Result);
};

} // namespace bigfoot

#endif // BIGFOOT_RUNTIME_ARRAYSHADOW_H
