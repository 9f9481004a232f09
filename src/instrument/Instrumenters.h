//===- Instrumenters.h - Check placement and the six tools ------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Produces the instrumented program each detector runs (Figure 2's
/// placement column). There are three placements:
///
///   FastTrack  — a check immediately before every heap access,
///   RedCard    — per-access checks minus statically redundant ones
///                (already checked in the same release-free span), plus
///                static field proxies,
///   BigFoot    — the full Section 3 check motion and coalescing.
///
/// The six tools are declared once, in kTools: each names its placement
/// and builds its detector config from that placement's field-proxy map.
/// SlimState and DJIT+ ride FastTrack's placement, SlimCard rides
/// RedCard's, and a trace recorded under one tool replays under any tool
/// that shares its placement.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_INSTRUMENT_INSTRUMENTERS_H
#define BIGFOOT_INSTRUMENT_INSTRUMENTERS_H

#include "analysis/CheckPlacement.h"
#include "bfj/Program.h"
#include "runtime/Detector.h"

#include <array>
#include <map>
#include <memory>
#include <string>
#include <string_view>

namespace bigfoot {

/// An instrumented program plus the detector configuration that matches
/// its placement.
struct InstrumentedProgram {
  std::unique_ptr<Program> Prog;
  DetectorConfig Tool;
  PlacementStats Placement; ///< Meaningful for BigFoot; partial otherwise.
};

InstrumentedProgram instrumentFastTrack(const Program &P);
InstrumentedProgram instrumentRedCard(const Program &P);
InstrumentedProgram
instrumentBigFoot(const Program &P,
                  const PlacementOptions &Opts = PlacementOptions());

/// The three check placements the tools share.
enum class PlacementKind : uint8_t { FastTrack, RedCard, BigFoot };
inline constexpr size_t kNumPlacements = 3;

/// "fasttrack", "redcard" or "bigfoot": the name of the tool whose own
/// placement it is.
const char *placementName(PlacementKind K);

/// \p P under placement \p K, with that placement's own tool config.
InstrumentedProgram instrumentPlacement(const Program &P, PlacementKind K);

/// One detector configuration: a tool name, the placement it runs on, and
/// its detector config built from the placement's field-proxy map (a
/// tool without proxies ignores the map).
struct ToolSpec {
  const char *Name;
  PlacementKind Placement;
  DetectorConfig (*Config)(std::map<std::string, std::string> Proxies);
};

/// Figure 2's five tools plus the DJIT+ baseline, in the harness's column
/// order: fasttrack, redcard, slimstate, slimcard, bigfoot, djit.
inline constexpr size_t kNumTools = 6;
extern const std::array<ToolSpec, kNumTools> kTools;

/// The tool called \p Name, or null.
const ToolSpec *findTool(std::string_view Name);

/// \p P under \p T's placement, with \p T's detector config.
InstrumentedProgram instrumentTool(const Program &P, const ToolSpec &T);

} // namespace bigfoot

#endif // BIGFOOT_INSTRUMENT_INSTRUMENTERS_H
