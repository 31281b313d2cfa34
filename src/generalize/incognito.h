#pragma once

#include <vector>

#include "common/parallel/thread_pool.h"
#include "common/result.h"
#include "core/columnar/arena.h"
#include "core/columnar/phase2.h"
#include "core/columnar/qi_index.h"
#include "generalize/qi_groups.h"
#include "hierarchy/recoding.h"
#include "hierarchy/taxonomy.h"
#include "table/table.h"

namespace pgpub {

/// Options for full-domain generalization search.
struct IncognitoOptions {
  int k = 2;
  /// Safety bound on lattice nodes examined; InvalidArgument when the
  /// lattice is larger (use TDS for wide schemas).
  int max_lattice_nodes = 250000;
  /// Optional worker pool for the per-level k-anonymity checks (nullptr =
  /// serial). Levels are swept in the same BFS order either way, so the
  /// chosen node is bit-identical at every thread count.
  ThreadPool* pool = nullptr;

  /// Ignored; kept so the frozen perfbench driver compiles.
  columnar::Phase2Impl phase2 = columnar::Phase2Impl::kAuto;

  /// Optional prebuilt QI index over (table, qi_attrs), typically shared
  /// by a PublicationEngine. Null (or an index over other attributes) =
  /// build one per search.
  const columnar::QiIndex* qi_index = nullptr;

  /// Optional shared scratch pool for the per-node counters. Null = the
  /// search owns a private pool.
  columnar::ScratchPool* scratch = nullptr;
};

/// \brief Full-domain generalization search in the spirit of Incognito
/// (LeFevre et al., SIGMOD'05).
///
/// Every QI attribute is generalized to one uniform taxonomy depth; a
/// lattice node is a vector of depths. Exploits the generalization
/// monotonicity property (if a node is k-anonymous, so is every more
/// general node) to explore the lattice top-down, and returns the
/// k-anonymous node with the lowest NCP among the *minimal* k-anonymous
/// nodes (those none of whose specializations are k-anonymous).
///
/// Each node's k-anonymity verdict comes from one columnar::LatticeCounter
/// fold over the table's distinct QI tuples (DESIGN.md §15); the naive
/// row-wise verdict is the test oracle in tests/phase2_equivalence_test.cc.
///
/// Suited to few QI attributes with shallow hierarchies; the paper's SAL
/// pipeline uses TDS instead (both satisfy G1–G3).
[[nodiscard]] Result<GlobalRecoding> IncognitoSearch(
    const Table& table, const std::vector<int>& qi_attrs,
    const std::vector<const Taxonomy*>& taxonomies,
    const IncognitoOptions& options);

/// Helper: the global recoding induced by cutting each taxonomy at the
/// given depth (depth is clamped to each taxonomy's height).
GlobalRecoding RecodingAtDepths(const std::vector<int>& qi_attrs,
                                const std::vector<const Taxonomy*>& taxonomies,
                                const std::vector<int>& depths);

}  // namespace pgpub
