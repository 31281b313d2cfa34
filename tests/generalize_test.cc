#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/random.h"
#include "diversity/ldiversity.h"
#include "generalize/incognito.h"
#include "generalize/metrics.h"
#include "generalize/qi_groups.h"
#include "generalize/tds.h"

namespace pgpub {
namespace {

/// Small synthetic microdata: two numeric QI attributes plus a numeric
/// sensitive column; values clustered so k-anonymity is non-trivial.
struct Fixture {
  Table table;
  std::vector<int> qi;
  int sens;
  Taxonomy tax_a;
  Taxonomy tax_b;
};

Fixture MakeFixture(size_t n, uint64_t seed) {
  Schema schema;
  schema.AddAttribute(
      {"A", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"B", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"S", AttributeType::kNumeric, AttributeRole::kSensitive});
  std::vector<AttributeDomain> domains = {AttributeDomain::Numeric(0, 15),
                                          AttributeDomain::Numeric(0, 7),
                                          AttributeDomain::Numeric(0, 4)};
  Rng rng(seed);
  std::vector<std::vector<int32_t>> cols(3);
  for (size_t i = 0; i < n; ++i) {
    int32_t a = static_cast<int32_t>(rng.UniformU64(16));
    int32_t b = static_cast<int32_t>(rng.UniformU64(8));
    // Sensitive correlates with A so info gain is meaningful.
    int32_t s = std::min<int32_t>(4, (a / 4 + static_cast<int32_t>(
                                                  rng.UniformU64(2))));
    cols[0].push_back(a);
    cols[1].push_back(b);
    cols[2].push_back(s);
  }
  Fixture f{
      Table::Create(schema, domains, std::move(cols)).ValueOrDie(),
      {0, 1},
      2,
      Taxonomy::Binary(16, "A:*"),
      Taxonomy::Binary(8, "B:*")};
  return f;
}

QiGroups GroupsOf(const Fixture& f, const GlobalRecoding& rec) {
  return ComputeQiGroups(f.table, rec);
}

// --------------------------------------------------------------- QiGroups

TEST(QiGroupsTest, GroupsPartitionRows) {
  Fixture f = MakeFixture(500, 1);
  GlobalRecoding rec = GlobalRecoding::AllIdentity(f.table, f.qi);
  QiGroups g = GroupsOf(f, rec);
  size_t covered = 0;
  for (size_t gid = 0; gid < g.num_groups(); ++gid) {
    for (uint32_t r : g.group_rows[gid]) {
      EXPECT_EQ(g.row_to_group[r], static_cast<int32_t>(gid));
      ++covered;
    }
  }
  EXPECT_EQ(covered, f.table.num_rows());
}

TEST(QiGroupsTest, IdentityGroupsShareExactQi) {
  Fixture f = MakeFixture(300, 2);
  GlobalRecoding rec = GlobalRecoding::AllIdentity(f.table, f.qi);
  QiGroups g = GroupsOf(f, rec);
  for (const auto& rows : g.group_rows) {
    for (uint32_t r : rows) {
      EXPECT_EQ(f.table.value(r, 0), f.table.value(rows[0], 0));
      EXPECT_EQ(f.table.value(r, 1), f.table.value(rows[0], 1));
    }
  }
}

TEST(QiGroupsTest, SingleRecodingYieldsOneGroup) {
  Fixture f = MakeFixture(100, 3);
  QiGroups g = GroupsOf(f, GlobalRecoding::AllSingle(f.table, f.qi));
  EXPECT_EQ(g.num_groups(), 1u);
  EXPECT_EQ(g.MinGroupSize(), 100u);
  EXPECT_EQ(g.MaxGroupSize(), 100u);
}

// ---------------------------------------------------------------- Metrics

TEST(MetricsTest, KAnonymityThreshold) {
  Fixture f = MakeFixture(64, 4);
  QiGroups g = GroupsOf(f, GlobalRecoding::AllSingle(f.table, f.qi));
  EXPECT_TRUE(IsKAnonymous(g, 64));
  EXPECT_FALSE(IsKAnonymous(g, 65));
}

TEST(MetricsTest, DiscernibilityPenalty) {
  QiGroups g;
  g.group_rows = {{0, 1}, {2, 3, 4}};
  EXPECT_EQ(DiscernibilityPenalty(g), 4 + 9);
}

TEST(MetricsTest, AverageGroupRatio) {
  QiGroups g;
  g.group_rows = {{0, 1}, {2, 3, 4, 5}};
  EXPECT_DOUBLE_EQ(AverageGroupRatio(g, 3), 1.0);
}

TEST(MetricsTest, NcpBoundsAndExtremes) {
  Fixture f = MakeFixture(200, 5);
  EXPECT_DOUBLE_EQ(
      GlobalNcp(f.table, GlobalRecoding::AllIdentity(f.table, f.qi)), 0.0);
  EXPECT_DOUBLE_EQ(
      GlobalNcp(f.table, GlobalRecoding::AllSingle(f.table, f.qi)), 1.0);
}

// -------------------------------------------------------------------- TDS

class TdsKSweep : public ::testing::TestWithParam<int> {};

TEST_P(TdsKSweep, ProducesKAnonymousGlobalRecoding) {
  const int k = GetParam();
  Fixture f = MakeFixture(800, 10 + k);
  TdsOptions opt;
  opt.k = k;
  TopDownSpecializer tds(f.table, f.qi, {&f.tax_a, &f.tax_b},
                         f.table.column(f.sens), 5, opt);
  GlobalRecoding rec = tds.Run().ValueOrDie();
  QiGroups g = GroupsOf(f, rec);
  EXPECT_TRUE(IsKAnonymous(g, k)) << "k=" << k;
  // G3 (global recoding): gen values partition each domain by construction;
  // verify distinct signatures have disjoint generalized boxes.
  for (size_t i = 0; i < rec.per_attr.size(); ++i) {
    const AttributeRecoding& ar = rec.per_attr[i];
    int32_t expect_lo = 0;
    for (int32_t gv = 0; gv < ar.num_gen_values(); ++gv) {
      EXPECT_EQ(ar.GenInterval(gv).lo, expect_lo);
      expect_lo = ar.GenInterval(gv).hi + 1;
    }
    EXPECT_EQ(expect_lo, f.table.domain(rec.qi_attrs[i]).size());
  }
}

INSTANTIATE_TEST_SUITE_P(KValues, TdsKSweep,
                         ::testing::Values(2, 3, 4, 6, 8, 10, 16, 25));

TEST(TdsTest, RefinesBeyondTrivialWhenDataAllows) {
  Fixture f = MakeFixture(2000, 42);
  TdsOptions opt;
  opt.k = 4;
  TopDownSpecializer tds(f.table, f.qi, {&f.tax_a, &f.tax_b},
                         f.table.column(f.sens), 5, opt);
  GlobalRecoding rec = tds.Run().ValueOrDie();
  EXPECT_GT(tds.num_specializations(), 0);
  QiGroups g = GroupsOf(f, rec);
  EXPECT_GT(g.num_groups(), 8u);
}

TEST(TdsTest, RespectsMaxSpecializations) {
  Fixture f = MakeFixture(1000, 7);
  TdsOptions opt;
  opt.k = 2;
  opt.max_specializations = 3;
  TopDownSpecializer tds(f.table, f.qi, {&f.tax_a, &f.tax_b},
                         f.table.column(f.sens), 5, opt);
  GlobalRecoding rec = tds.Run().ValueOrDie();
  EXPECT_LE(tds.num_specializations(), 3);
  int total_segments = 0;
  for (const auto& ar : rec.per_attr) total_segments += ar.num_gen_values();
  EXPECT_LE(total_segments, 2 + 3);  // each binary spec adds one segment
}

TEST(TdsTest, FailsWhenFewerRowsThanK) {
  Fixture f = MakeFixture(5, 8);
  TdsOptions opt;
  opt.k = 10;
  TopDownSpecializer tds(f.table, f.qi, {&f.tax_a, &f.tax_b},
                         f.table.column(f.sens), 5, opt);
  EXPECT_TRUE(tds.Run().status().IsFailedPrecondition());
}

TEST(TdsTest, DynamicBinarySplitsWithoutTaxonomy) {
  Fixture f = MakeFixture(800, 9);
  TdsOptions opt;
  opt.k = 5;
  TopDownSpecializer tds(f.table, f.qi, {nullptr, nullptr},
                         f.table.column(f.sens), 5, opt);
  GlobalRecoding rec = tds.Run().ValueOrDie();
  EXPECT_TRUE(IsKAnonymous(GroupsOf(f, rec), 5));
  EXPECT_GT(tds.num_specializations(), 0);
}

TEST(TdsTest, ClassicScoringRanksBinarySplitsByClassicScore) {
  // Under balance_aware=false a binary split must be ranked by the classic
  // InfoGain/(AnonyLoss+1) score alone. The table is built so the first
  // valid cut carries a large balance bonus but almost no gain; a later
  // cut has the best classic score and must win.
  Schema schema;
  schema.AddAttribute(
      {"A", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  // Per code of A: rows of class 0, rows of class 1.
  const int32_t per_code[4][2] = {{4, 4}, {4, 6}, {4, 2}, {3, 4}};
  std::vector<std::vector<int32_t>> cols(1);
  std::vector<int32_t> labels;
  for (int32_t code = 0; code < 4; ++code) {
    for (int32_t cls = 0; cls < 2; ++cls) {
      for (int32_t i = 0; i < per_code[code][cls]; ++i) {
        cols[0].push_back(code);
        labels.push_back(cls);
      }
    }
  }
  Table t = Table::Create(schema, {AttributeDomain::Numeric(0, 3)},
                          std::move(cols))
                .ValueOrDie();
  const int k = 2;

  // Naive ranking: every cut of the root segment, scored from scratch.
  // At the root the global minimum group size is n.
  auto entropy_rows = [](double c0, double c1) {
    double h = 0.0;
    for (double c : {c0, c1}) {
      if (c > 0.0) h -= c * std::log2(c / (c0 + c1));
    }
    return h;
  };
  const double n = static_cast<double>(labels.size());
  double total[2] = {0.0, 0.0};
  for (const auto& code : per_code) {
    total[0] += code[0];
    total[1] += code[1];
  }
  int32_t first_valid_cut = -1;
  int32_t best_cut = -1;
  double best_score = -1.0;
  double left[2] = {0.0, 0.0};
  for (int32_t cut = 1; cut < 4; ++cut) {  // right part starts at `cut`
    left[0] += per_code[cut - 1][0];
    left[1] += per_code[cut - 1][1];
    const double nl = left[0] + left[1];
    const double nr = n - nl;
    if (nl < k || nr < k) continue;
    if (first_valid_cut < 0) first_valid_cut = cut;
    const double gain = entropy_rows(total[0], total[1]) -
                        entropy_rows(left[0], left[1]) -
                        entropy_rows(total[0] - left[0], total[1] - left[1]);
    const double score = gain / (n - std::min(nl, nr) + 1.0);
    if (score > best_score) {
      best_score = score;
      best_cut = cut;
    }
  }
  ASSERT_NE(best_cut, first_valid_cut) << "table no longer discriminates";

  TdsOptions opt;
  opt.k = k;
  opt.balance_aware = false;
  opt.max_specializations = 1;
  TopDownSpecializer tds(t, {0}, {nullptr}, labels, 2, opt);
  GlobalRecoding rec = tds.Run().ValueOrDie();
  ASSERT_EQ(tds.num_specializations(), 1);
  EXPECT_EQ(rec.per_attr[0].starts(), (std::vector<int32_t>{0, best_cut}));
}

TEST(TdsTest, MixedTaxonomyAndDynamic) {
  Fixture f = MakeFixture(600, 10);
  TdsOptions opt;
  opt.k = 4;
  TopDownSpecializer tds(f.table, f.qi, {&f.tax_a, nullptr},
                         f.table.column(f.sens), 5, opt);
  GlobalRecoding rec = tds.Run().ValueOrDie();
  EXPECT_TRUE(IsKAnonymous(GroupsOf(f, rec), 4));
}

TEST(TdsTest, DeterministicAcrossRuns) {
  Fixture f = MakeFixture(500, 11);
  TdsOptions opt;
  opt.k = 3;
  auto run = [&]() {
    TopDownSpecializer tds(f.table, f.qi, {&f.tax_a, &f.tax_b},
                           f.table.column(f.sens), 5, opt);
    return tds.Run().ValueOrDie();
  };
  GlobalRecoding r1 = run(), r2 = run();
  for (size_t i = 0; i < r1.per_attr.size(); ++i) {
    EXPECT_EQ(r1.per_attr[i].starts(), r2.per_attr[i].starts());
  }
}

TEST(TdsTest, ConstraintBlocksSpecialization) {
  Fixture f = MakeFixture(600, 12);
  // Require every group to keep at least 3 distinct sensitive values.
  DistinctLDiversity diversity(3);
  TdsOptions opt;
  opt.k = 2;
  opt.constraint = &diversity;
  opt.constraint_attr = f.sens;
  TopDownSpecializer tds(f.table, f.qi, {&f.tax_a, &f.tax_b},
                         f.table.column(f.sens), 5, opt);
  GlobalRecoding rec = tds.Run().ValueOrDie();
  QiGroups g = GroupsOf(f, rec);
  EXPECT_TRUE(IsKAnonymous(g, 2));
  EXPECT_TRUE(AllGroupsSatisfy(f.table, g, f.sens, diversity));
  EXPECT_GE(MinDistinctSensitive(f.table, g, f.sens), 3);
}

TEST(TdsTest, UnsatisfiableConstraintFailsUpfront) {
  Fixture f = MakeFixture(100, 13);
  DistinctLDiversity diversity(50);  // sensitive domain has only 5 values
  TdsOptions opt;
  opt.k = 2;
  opt.constraint = &diversity;
  opt.constraint_attr = f.sens;
  TopDownSpecializer tds(f.table, f.qi, {&f.tax_a, &f.tax_b},
                         f.table.column(f.sens), 5, opt);
  EXPECT_TRUE(tds.Run().status().IsFailedPrecondition());
}

TEST(TdsTest, TaxonomyDomainMismatchRejected) {
  Fixture f = MakeFixture(100, 14);
  Taxonomy wrong = Taxonomy::Binary(5, "wrong");
  TdsOptions opt;
  opt.k = 2;
  TopDownSpecializer tds(f.table, f.qi, {&wrong, &f.tax_b},
                         f.table.column(f.sens), 5, opt);
  EXPECT_TRUE(tds.Run().status().IsInvalidArgument());
}

// -------------------------------------------------------------- Incognito

class IncognitoKSweep : public ::testing::TestWithParam<int> {};

TEST_P(IncognitoKSweep, MinimalKAnonymousFullDomain) {
  const int k = GetParam();
  Fixture f = MakeFixture(400, 20 + k);
  IncognitoOptions opt;
  opt.k = k;
  GlobalRecoding rec =
      IncognitoSearch(f.table, f.qi, {&f.tax_a, &f.tax_b}, opt)
          .ValueOrDie();
  QiGroups g = GroupsOf(f, rec);
  EXPECT_TRUE(IsKAnonymous(g, k));
}

INSTANTIATE_TEST_SUITE_P(KValues, IncognitoKSweep,
                         ::testing::Values(2, 5, 10, 40));

TEST(IncognitoTest, ResultIsMinimalOnItsPath) {
  Fixture f = MakeFixture(300, 33);
  IncognitoOptions opt;
  opt.k = 5;
  GlobalRecoding rec =
      IncognitoSearch(f.table, f.qi, {&f.tax_a, &f.tax_b}, opt)
          .ValueOrDie();
  // Depths of the found node.
  auto depth_of = [](const Taxonomy& t, const AttributeRecoding& ar) {
    // Full-domain cut: the depth of the node matching the first interval.
    return t.node(t.FindNode(ar.GenInterval(0))).depth;
  };
  std::vector<int> depths = {depth_of(f.tax_a, rec.per_attr[0]),
                             depth_of(f.tax_b, rec.per_attr[1])};
  // Specializing any single attribute one more level must break
  // k-anonymity (minimality).
  std::vector<const Taxonomy*> taxonomies = {&f.tax_a, &f.tax_b};
  for (size_t i = 0; i < depths.size(); ++i) {
    if (depths[i] >= taxonomies[i]->height()) continue;
    std::vector<int> deeper = depths;
    deeper[i]++;
    GlobalRecoding child = RecodingAtDepths(f.qi, taxonomies, deeper);
    EXPECT_FALSE(IsKAnonymous(ComputeQiGroups(f.table, child), opt.k));
  }
}

TEST(IncognitoTest, RequiresTaxonomies) {
  Fixture f = MakeFixture(100, 34);
  IncognitoOptions opt;
  EXPECT_TRUE(IncognitoSearch(f.table, f.qi, {&f.tax_a, nullptr}, opt)
                  .status()
                  .IsInvalidArgument());
}

TEST(IncognitoTest, FewerRowsThanKFails) {
  Fixture f = MakeFixture(3, 35);
  IncognitoOptions opt;
  opt.k = 10;
  EXPECT_TRUE(IncognitoSearch(f.table, f.qi, {&f.tax_a, &f.tax_b}, opt)
                  .status()
                  .IsFailedPrecondition());
}

TEST(IncognitoTest, NeverWorseNcpThanFullSuppression) {
  Fixture f = MakeFixture(400, 36);
  IncognitoOptions opt;
  opt.k = 3;
  GlobalRecoding rec =
      IncognitoSearch(f.table, f.qi, {&f.tax_a, &f.tax_b}, opt)
          .ValueOrDie();
  EXPECT_LE(GlobalNcp(f.table, rec), 1.0);
}

}  // namespace
}  // namespace pgpub
