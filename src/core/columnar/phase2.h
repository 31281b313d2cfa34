#pragma once

/// \file
/// Phase 2 has one engine per generalizer (DESIGN.md §15): TDS scans rows,
/// Incognito folds the columnar base frequency set through a
/// LatticeCounter. Nothing selects between engines; the names below are
/// ignored; kept so the frozen perfbench driver compiles.
namespace pgpub::columnar {

/// Ignored; kept so the frozen perfbench driver compiles.
enum class Phase2Impl {
  kAuto = 0,
  kRowwise,
  kColumnar,
};

/// Ignored; kept so the frozen perfbench driver compiles.
inline Phase2Impl ResolvePhase2Impl(Phase2Impl) {
  return Phase2Impl::kColumnar;
}

}  // namespace pgpub::columnar
