#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/parallel/thread_pool.h"
#include "common/result.h"
#include "core/columnar/phase2.h"
#include "core/columnar/qi_index.h"
#include "generalize/qi_groups.h"
#include "hierarchy/recoding.h"
#include "hierarchy/taxonomy.h"
#include "table/table.h"

namespace pgpub {

/// Options for TopDownSpecializer.
struct TdsOptions {
  /// Minimum QI-group size maintained throughout (Property G2).
  int k = 2;

  /// Upper bound on the number of specialization steps (safety valve; the
  /// algorithm normally stops when no valid specialization remains).
  int max_specializations = std::numeric_limits<int>::max();

  /// Optional extra per-group requirement (e.g. (c,ℓ)-diversity). Checked
  /// on every group produced by a candidate specialization; a candidate
  /// violating it is invalid.
  const GroupConstraint* constraint = nullptr;

  /// Attribute whose per-group histogram feeds `constraint` (typically the
  /// sensitive attribute). Required when `constraint` is set.
  int constraint_attr = -1;

  /// Specialization scoring. true (default): significance-debiased
  /// information gain plus a stratum-balancing bonus (see DESIGN.md §5) —
  /// deterministic given the table and robust to perturbation noise.
  /// false: the classic Fung et al. InfoGain/(AnonyLoss+1) greedy, kept
  /// for the `ablation_design` bench.
  bool balance_aware = true;

  /// Optional worker pool for candidate-split scoring (nullptr = serial).
  /// Each dirty candidate is re-scored independently and the winner is
  /// still selected serially with the key tie-break, so the chosen
  /// specialization sequence — and therefore the recoding — is
  /// bit-identical at every thread count.
  ThreadPool* pool = nullptr;

  /// Ignored; kept so the frozen perfbench driver compiles.
  columnar::Phase2Impl phase2 = columnar::Phase2Impl::kAuto;

  /// Ignored; kept so the frozen perfbench driver compiles.
  const columnar::QiIndex* qi_index = nullptr;
};

/// \brief Top-Down Specialization (Fung, Wang & Yu, ICDE'05) producing a
/// k-anonymous global recoding — the algorithm the paper adapts for
/// Phase 2 of perturbed generalization.
///
/// Starts from the fully generalized table (every QI attribute collapsed to
/// one value) and greedily applies the valid specialization with the best
/// score = InfoGain / (AnonyLoss + 1), until none remains. A specialization
/// replaces one generalized value of one attribute by (a) its taxonomy
/// children, or (b) for attributes without a taxonomy, the best binary
/// interval split chosen by information gain on `class_labels` — the
/// treatment of continuous attributes in the original TDS.
///
/// The result satisfies G1 (same cardinality, tuple-wise generalization),
/// G2 (k-anonymity) and G3 (global recoding) from Section IV of the paper.
class TopDownSpecializer {
 public:
  /// `taxonomies` is parallel to `qi_attrs`; entries may be nullptr to
  /// request data-driven binary splits. `class_labels` (one label in
  /// [0, num_classes) per row) drives the information-gain score.
  TopDownSpecializer(const Table& table, std::vector<int> qi_attrs,
                     std::vector<const Taxonomy*> taxonomies,
                     std::vector<int32_t> class_labels, int num_classes,
                     TdsOptions options);

  /// Runs the search. Fails with FailedPrecondition when even the fully
  /// generalized table violates k-anonymity (n < k) or the constraint.
  [[nodiscard]] Result<GlobalRecoding> Run();

  /// Number of specializations applied by the last Run().
  int num_specializations() const { return num_specializations_; }

 private:
  struct Group {
    std::vector<uint32_t> rows;   ///< Table row ids.
    std::vector<int32_t> seg_lo;  ///< Per QI attr: start code of its segment.
    bool alive = true;
  };

  struct Candidate {
    bool dirty = true;
    bool valid = false;
    double score = 0.0;
    double gain = 0.0;
    int64_t min_new_size = 0;
    /// Reduction in the sum of squared group sizes the split would
    /// achieve. Once information gain is exhausted (the usual end-game),
    /// the balance-aware score ranks candidates by it: carving the biggest
    /// strata equalizes the published G-weights, which maximizes the
    /// effective sample size of the Phase-3 output.
    double ss_reduction = 0.0;
    double gain_per_row = 0.0;
    int taxonomy_node = -1;  ///< >=0: specialize by this node's children.
    int32_t cut = -1;        ///< >=0: binary split, first code of the right part.
  };

  static uint64_t CandidateKey(int attr_idx, int32_t lo) {
    return (static_cast<uint64_t>(attr_idx) << 32) |
           static_cast<uint32_t>(lo);
  }

  /// Alive groups currently carrying segment `lo` of QI attribute `i`.
  /// Returns a reference into segment_groups_ valid until the next Apply.
  const std::vector<int32_t>& GroupsOfSegment(int attr_idx, int32_t lo);

  /// (Re)computes a candidate's validity/score.
  void Evaluate(int attr_idx, int32_t lo, Candidate* cand);

  /// Applies a winning candidate; updates recoding, groups, and dirt.
  void Apply(int attr_idx, int32_t lo, const Candidate& cand);

  /// Child intervals a candidate splits segment `s` into.
  std::vector<Interval> ChildIntervals(int attr_idx, const Interval& s,
                                       const Candidate& cand) const;

  int64_t GlobalMinGroupSize() const;

  const Table& table_;
  std::vector<int> qi_attrs_;
  std::vector<const Taxonomy*> taxonomies_;
  std::vector<int32_t> class_labels_;
  int num_classes_;
  TdsOptions options_;

  std::vector<AttributeRecoding> recodings_;
  std::vector<Group> groups_;
  /// Per QI attr: segment lo -> group ids (lazy-deleted).
  std::vector<std::unordered_map<int32_t, std::vector<int32_t>>>
      segment_groups_;
  std::unordered_map<uint64_t, Candidate> candidates_;
  int64_t global_min_cache_ = 0;
  int num_specializations_ = 0;
};

}  // namespace pgpub
