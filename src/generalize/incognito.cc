#include "generalize/incognito.h"

#include <map>
#include <memory>

#include "common/failpoint.h"
#include "generalize/metrics.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace pgpub {

GlobalRecoding RecodingAtDepths(
    const std::vector<int>& qi_attrs,
    const std::vector<const Taxonomy*>& taxonomies,
    const std::vector<int>& depths) {
  PGPUB_CHECK_EQ(qi_attrs.size(), taxonomies.size());
  PGPUB_CHECK_EQ(qi_attrs.size(), depths.size());
  GlobalRecoding out;
  out.qi_attrs = qi_attrs;
  for (size_t i = 0; i < qi_attrs.size(); ++i) {
    const Taxonomy* tax = taxonomies[i];
    PGPUB_CHECK(tax != nullptr) << "Incognito requires a taxonomy per attr";
    const int depth = std::min(depths[i], tax->height());
    std::vector<int> cut = tax->CutAtDepth(depth);
    std::vector<int32_t> starts;
    starts.reserve(cut.size());
    for (int node : cut) starts.push_back(tax->node(node).range.lo);
    out.per_attr.push_back(
        AttributeRecoding::FromStarts(tax->domain_size(), std::move(starts))
            // Starts come from a valid taxonomy cut; cannot fail.
            // pgpub-lint: allow(unchecked-result)
            .ValueOrDie());
  }
  return out;
}

Result<GlobalRecoding> IncognitoSearch(
    const Table& table, const std::vector<int>& qi_attrs,
    const std::vector<const Taxonomy*>& taxonomies,
    const IncognitoOptions& options) {
  PGPUB_FAILPOINT(failpoints::kPublishGeneralizeIncognito);
  if (qi_attrs.size() != taxonomies.size()) {
    return Status::InvalidArgument("qi_attrs/taxonomies size mismatch");
  }
  const size_t d = qi_attrs.size();
  if (d == 0) return Status::InvalidArgument("no QI attributes");
  for (size_t i = 0; i < d; ++i) {
    if (taxonomies[i] == nullptr) {
      return Status::InvalidArgument(
          "Incognito requires a taxonomy for every QI attribute");
    }
    if (taxonomies[i]->domain_size() != table.domain(qi_attrs[i]).size()) {
      return Status::InvalidArgument("taxonomy domain size mismatch");
    }
  }
  if (table.num_rows() < static_cast<size_t>(options.k)) {
    return Status::FailedPrecondition(
        "table has fewer rows than k; no k-anonymous publication exists");
  }

  // Lattice size check: node coordinates are depths 0..height per attr.
  uint64_t lattice = 1;
  for (size_t i = 0; i < d; ++i) {
    lattice *= static_cast<uint64_t>(taxonomies[i]->height()) + 1;
    if (lattice > static_cast<uint64_t>(options.max_lattice_nodes)) {
      return Status::InvalidArgument(
          "generalization lattice too large for Incognito search; "
          "use TopDownSpecializer");
    }
  }

  // Build the base frequency set and the per-(attr, depth) remap tables
  // once (DESIGN.md §15); every node check below is then a fold over
  // distinct tuples instead of a rescan of rows.
  std::unique_ptr<columnar::QiIndex> owned_index;
  const columnar::QiIndex* index = options.qi_index;
  if (index == nullptr || index->qi_attrs() != qi_attrs) {
    owned_index = std::make_unique<columnar::QiIndex>(
        columnar::QiIndex::Build(table, qi_attrs));
    index = owned_index.get();
  }
  const columnar::LatticeCounter counter(index, taxonomies);
  std::unique_ptr<columnar::ScratchPool> owned_scratch;
  columnar::ScratchPool* scratch = options.scratch;
  if (scratch == nullptr) {
    owned_scratch = std::make_unique<columnar::ScratchPool>();
    scratch = owned_scratch.get();
  }

  // Memoized k-anonymity per lattice node. The anonymity of a node is a
  // pure function of (table, node), so a level's unknown nodes can be
  // checked in parallel and merged into the memo afterwards without
  // changing any answer.
  std::map<std::vector<int>, bool> anon_memo;
  auto check_anonymous = [&](const std::vector<int>& depths) -> bool {
    columnar::ScratchPool::Lease lease = scratch->Acquire();
    return counter.IsKAnonymousAtDepths(depths, options.k, lease.get());
  };

  // BFS from the root (all depths 0 = most general). A node is *minimal*
  // k-anonymous when it is k-anonymous and none of its children (one attr
  // one level deeper) is. Every edge goes from level L (= depth sum) to
  // level L+1, so the FIFO BFS of the serial implementation is exactly a
  // level-order sweep — which is how the parallel version runs it: check
  // all of a level's unseen children at once, then walk the level in the
  // original order.
  std::vector<int> root(d, 0);
  anon_memo[root] = check_anonymous(root);
  if (!anon_memo[root]) {
    return Status::Internal(
        "fully generalized table is not k-anonymous despite n >= k");
  }
  std::map<std::vector<int>, bool> visited;
  std::vector<std::vector<int>> level;
  level.push_back(root);
  visited[root] = true;

  double best_ncp = 2.0;
  GlobalRecoding best;
  bool found = false;
  uint64_t nodes_examined = 0;
  uint64_t children_pruned = 0;
  uint64_t minimal_nodes = 0;

  while (!level.empty()) {
    // Phase A: collect this level's children whose anonymity is unknown,
    // in first-encounter order (dedup within the batch via the memo
    // placeholder trick is avoided — a std::map keyed scratch keeps it
    // simple and deterministic).
    std::vector<std::vector<int>> unknown;
    std::map<std::vector<int>, size_t> unknown_index;
    for (const std::vector<int>& node : level) {
      for (size_t i = 0; i < d; ++i) {
        if (node[i] >= taxonomies[i]->height()) continue;
        std::vector<int> child = node;
        child[i]++;
        if (anon_memo.count(child) || unknown_index.count(child)) continue;
        unknown_index.emplace(child, unknown.size());
        unknown.push_back(std::move(child));
      }
    }

    // Phase B: check the batch, fanned out over the pool when one is
    // given. Results land in per-node slots; the memo itself is only
    // touched serially.
    std::vector<char> batch_anon(unknown.size(), 0);
    RETURN_IF_ERROR(ParallelFor(
        options.pool, IndexRange(0, unknown.size()), /*grain=*/1,
        [&](size_t begin, size_t end) -> Status {
          for (size_t i = begin; i < end; ++i) {
            batch_anon[i] = check_anonymous(unknown[i]) ? 1 : 0;
          }
          return Status::OK();
        }));
    for (size_t i = 0; i < unknown.size(); ++i) {
      anon_memo.emplace(unknown[i], batch_anon[i] != 0);
    }

    // Phase C: the original BFS body, now with every lookup memoized.
    std::vector<std::vector<int>> next_level;
    for (const std::vector<int>& node : level) {
      ++nodes_examined;
      bool has_anonymous_child = false;
      for (size_t i = 0; i < d; ++i) {
        if (node[i] >= taxonomies[i]->height()) continue;
        std::vector<int> child = node;
        child[i]++;
        if (anon_memo.at(child)) {
          has_anonymous_child = true;
          if (!visited[child]) {
            visited[child] = true;
            next_level.push_back(std::move(child));
          }
        } else {
          // Non-anonymous child: its entire sub-lattice is cut off here.
          ++children_pruned;
        }
      }
      if (!has_anonymous_child) {
        // Minimal k-anonymous node: candidate answer.
        ++minimal_nodes;
        GlobalRecoding rec = RecodingAtDepths(qi_attrs, taxonomies, node);
        double ncp = GlobalNcp(table, rec);
        if (!found || ncp < best_ncp) {
          best_ncp = ncp;
          best = std::move(rec);
          found = true;
        }
      }
    }
    level = std::move(next_level);
  }
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("incognito.nodes_examined")->Add(nodes_examined);
  metrics.GetCounter("incognito.children_pruned")->Add(children_pruned);
  metrics.GetCounter("incognito.minimal_nodes")->Add(minimal_nodes);
  PGPUB_LOG_DEBUG("incognito.done")
      .Field("nodes_examined", nodes_examined)
      .Field("children_pruned", children_pruned)
      .Field("minimal_nodes", minimal_nodes)
      .Field("best_ncp", best_ncp);
  if (!found) {
    return Status::Internal(
        "Incognito explored the lattice without finding a minimal "
        "k-anonymous node");
  }
  return best;
}

}  // namespace pgpub
