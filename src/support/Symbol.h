//===- Symbol.h - Program-wide symbol interning -----------------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense interning of program identifiers (field names, local variables,
/// proxy representatives) into 32-bit symbol ids, plus the packed 64-bit
/// shadow-location id combining an object id with a field id.
///
/// Everything downstream of parsing — instrumented checks, the VM's
/// dispatch, the detector's shadow maps — works on these dense ids; the
/// interned strings are consulted only when a race report or an event
/// trace needs rendering. See DESIGN.md ("Shadow representation & symbol
/// interning").
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_SUPPORT_SYMBOL_H
#define BIGFOOT_SUPPORT_SYMBOL_H

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bigfoot {

/// Dense id of an interned identifier. Field names and local variables
/// share one namespace (BFJ identifiers are program-wide strings).
using SymId = uint32_t;

/// A field name's symbol id. An alias, not a distinct type: a field check
/// carries the same id the symbol table handed out at intern time.
using FieldId = SymId;

/// "Not a symbol": unset caches and discarded call targets.
inline constexpr SymId kNoSym = 0xFFFFFFFFu;

/// Interns strings to dense ids. Lookup is an open-addressed hash index
/// over a dense name vector; ids are assigned in first-intern order, so a
/// deterministic interning walk yields deterministic ids.
class SymbolTable {
public:
  SymbolTable() = default;

  /// Returns the id of \p Name, interning it if new.
  SymId intern(std::string_view Name) {
    if (std::optional<SymId> Id = lookup(Name))
      return *Id;
    if ((Names.size() + 1) * 4 > Buckets.size() * 3)
      grow();
    SymId Id = static_cast<SymId>(Names.size());
    Names.emplace_back(Name);
    insertIndex(Id);
    return Id;
  }

  /// The id of \p Name if already interned.
  std::optional<SymId> lookup(std::string_view Name) const {
    if (Buckets.empty())
      return std::nullopt;
    size_t Mask = Buckets.size() - 1;
    for (size_t I = hashOf(Name) & Mask;; I = (I + 1) & Mask) {
      uint32_t Slot = Buckets[I];
      if (Slot == 0)
        return std::nullopt;
      if (Names[Slot - 1] == Name)
        return Slot - 1;
    }
  }

  /// The interned string for \p Id (render/report paths only).
  const std::string &name(SymId Id) const {
    assert(Id < Names.size() && "unknown symbol id");
    return Names[Id];
  }

  /// Number of interned symbols; valid ids are [0, size()).
  size_t size() const { return Names.size(); }

private:
  std::vector<std::string> Names;
  /// Open-addressed index: value is id + 1, 0 means empty.
  std::vector<uint32_t> Buckets;

  static size_t hashOf(std::string_view Name) {
    // FNV-1a; identifiers are short, so this beats std::hash setup cost.
    size_t H = 1469598103934665603ull;
    for (char C : Name) {
      H ^= static_cast<unsigned char>(C);
      H *= 1099511628211ull;
    }
    return H;
  }

  void insertIndex(SymId Id);
  void grow();
};

//===--- Packed shadow-location ids -------------------------------------------

/// A shadow location: an (object, field) pair packed into 64 bits. The low
/// kLocFieldBits hold the FieldId, the rest the object id. Field-name
/// counts are static program properties (at most a few hundred), while
/// object ids grow with allocation, hence the asymmetric split.
using LocId = uint64_t;

inline constexpr unsigned kLocFieldBits = 20;
inline constexpr uint64_t kLocFieldMask = (uint64_t(1) << kLocFieldBits) - 1;

inline LocId packLoc(uint64_t Obj, FieldId Field) {
  assert(Field <= kLocFieldMask && "field id overflows LocId packing");
  assert(Obj < (uint64_t(1) << (64 - kLocFieldBits)) &&
         "object id overflows LocId packing");
  return (Obj << kLocFieldBits) | Field;
}

} // namespace bigfoot

#endif // BIGFOOT_SUPPORT_SYMBOL_H
