#pragma once

#include <cstdlib>
#include <string_view>

/// \file
/// Incognito's Phase-2 implementation selector (DESIGN.md §15); TDS has
/// one engine and ignores it. The columnar engine and the row-wise search
/// produce byte-identical recodings — the row-wise path stays compiled and
/// selectable as the differential-testing oracle
/// (tests/phase2_equivalence_test.cc holds the two to it).
namespace pgpub::columnar {

/// Which Phase-2 search engine evaluates Incognito's lattice nodes.
enum class Phase2Impl {
  /// Resolve from the environment: PGPUB_PHASE2=rowwise selects the
  /// oracle path; anything else (including unset or malformed, mirroring
  /// PGPUB_THREADS leniency) selects columnar — the production default.
  kAuto = 0,
  /// Historical row-wise scan: per-candidate hash-map frequency counting.
  kRowwise,
  /// Dictionary-encoded base frequency set + radix group counter with
  /// pooled per-request scratch (src/core/columnar).
  kColumnar,
};

/// Collapses kAuto against PGPUB_PHASE2; kRowwise/kColumnar pass through.
inline Phase2Impl ResolvePhase2Impl(Phase2Impl requested) {
  if (requested != Phase2Impl::kAuto) return requested;
  if (const char* env = std::getenv("PGPUB_PHASE2");
      env != nullptr && std::string_view(env) == "rowwise") {
    return Phase2Impl::kRowwise;
  }
  return Phase2Impl::kColumnar;
}

inline const char* Phase2ImplName(Phase2Impl impl) {
  switch (impl) {
    case Phase2Impl::kAuto:
      return "auto";
    case Phase2Impl::kRowwise:
      return "rowwise";
    case Phase2Impl::kColumnar:
      return "columnar";
  }
  return "unknown";
}

}  // namespace pgpub::columnar
