/// The differential proof behind DESIGN.md §15: for every dataset ×
/// generalizer × thread count, the published table, the timing-normalized
/// PublishReport JSON, and the Phase-2 search counters are byte-identical
/// under either Phase-2 engine selection (row-wise oracle or columnar
/// default). Incognito has two engines; TDS has one, so for it the grid
/// pins thread-count and selector invariance. A seeded property test
/// additionally pins the columnar LatticeCounter to the naive hash-map
/// verdict on random tables, and an allocation-counter test pins the
/// scratch-pool reuse contract of Incognito's engine.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/columnar/arena.h"
#include "core/columnar/phase2.h"
#include "core/columnar/qi_index.h"
#include "core/report_io.h"
#include "core/robust_publisher.h"
#include "datagen/census.h"
#include "datagen/clinic.h"
#include "datagen/hospital.h"
#include "generalize/incognito.h"
#include "generalize/metrics.h"
#include "generalize/qi_groups.h"
#include "generalize/tds.h"
#include "hierarchy/taxonomy.h"
#include "obs/metrics.h"
#include "table/table.h"

namespace pgpub {
namespace {

using columnar::Phase2Impl;

/// Search-relevant counters: the engines must agree not only on the
/// published bytes but on how much work the search reported doing (same
/// specialization count, same lattice walk).
std::map<std::string, uint64_t> SearchCounters() {
  std::map<std::string, uint64_t> out;
  const obs::MetricsRegistry::Snapshot snapshot =
      obs::MetricsRegistry::Global().TakeSnapshot();
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("tds.", 0) == 0 || name.rfind("incognito.", 0) == 0 ||
        name.rfind("publish.", 0) == 0) {
      out[name] = value;
    }
  }
  return out;
}

std::map<std::string, uint64_t> CounterDelta(
    const std::map<std::string, uint64_t>& before,
    const std::map<std::string, uint64_t>& after) {
  std::map<std::string, uint64_t> delta;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const uint64_t prior = it == before.end() ? 0 : it->second;
    if (value != prior) delta[name] = value - prior;
  }
  return delta;
}

/// One full RobustPublisher run under a pinned Phase-2 engine.
struct RunOutput {
  PublishedTable table;
  std::string report_json;  ///< Timing-normalized.
  std::map<std::string, uint64_t> counters;
};

/// Zeroes the wall-clock fields — the only legitimate run-to-run
/// difference — so the rest of the report must match byte-for-byte.
void NormalizeTimings(PublishReport* report) {
  report->total_ms = 0.0;
  for (PublishReport::Attempt& attempt : report->attempts) {
    attempt.elapsed_ms = 0.0;
  }
}

std::string Label(Phase2Impl impl, int threads) {
  return std::string(columnar::Phase2ImplName(impl)) + "/t" +
         std::to_string(threads);
}

RunOutput PublishWith(const Table& microdata,
                      const std::vector<const Taxonomy*>& taxonomies,
                      PgOptions options, Phase2Impl impl, int threads) {
  options.phase2_impl = impl;
  options.num_threads = threads;
  const std::map<std::string, uint64_t> before = SearchCounters();
  RobustPublisher publisher(options);
  PublishReport report;
  Result<PublishedTable> published =
      publisher.Publish(microdata, taxonomies, &report);
  EXPECT_TRUE(published.ok())
      << Label(impl, threads) << ": " << published.status().message();
  NormalizeTimings(&report);
  return RunOutput{std::move(*published), PublishReportToJsonString(report),
                   CounterDelta(before, SearchCounters())};
}

/// Byte-level equality of everything a release publishes, plus the
/// search-counter deltas both runs recorded.
void ExpectIdenticalRelease(const RunOutput& oracle, const RunOutput& other,
                            const std::string& label) {
  const PublishedTable& a = oracle.table;
  const PublishedTable& b = other.table;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
  ASSERT_EQ(a.num_qi_attrs(), b.num_qi_attrs()) << label;
  EXPECT_EQ(a.retention_p(), b.retention_p()) << label;
  EXPECT_EQ(a.k(), b.k()) << label;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    ASSERT_EQ(a.sensitive(r), b.sensitive(r)) << "row " << r << " " << label;
    ASSERT_EQ(a.group_size(r), b.group_size(r)) << "row " << r << " " << label;
    for (int i = 0; i < a.num_qi_attrs(); ++i) {
      ASSERT_EQ(a.qi_gen(r, i), b.qi_gen(r, i))
          << "row " << r << " attr " << i << " " << label;
    }
  }
  EXPECT_EQ(oracle.report_json, other.report_json) << label;
  EXPECT_EQ(oracle.counters, other.counters) << label;
}

/// The full differential grid: row-wise serial is the oracle; row-wise
/// threaded and columnar at both thread counts must reproduce it exactly.
void CheckImplEquivalence(const Table& microdata,
                          const std::vector<const Taxonomy*>& taxonomies,
                          const PgOptions& options) {
  const RunOutput oracle =
      PublishWith(microdata, taxonomies, options, Phase2Impl::kRowwise, 1);
  for (Phase2Impl impl : {Phase2Impl::kRowwise, Phase2Impl::kColumnar}) {
    for (int threads : {1, 8}) {
      if (impl == Phase2Impl::kRowwise && threads == 1) continue;
      const RunOutput run =
          PublishWith(microdata, taxonomies, options, impl, threads);
      ExpectIdenticalRelease(oracle, run, Label(impl, threads));
    }
  }
}

TEST(Phase2EquivalenceTest, CensusTdsAcrossImplsAndThreadCounts) {
  CensusDataset census = GenerateCensus(3000, 11).ValueOrDie();
  for (uint64_t seed : {42u, 1337u}) {
    PgOptions options;
    options.k = 8;
    options.p = 0.3;
    options.seed = seed;
    CheckImplEquivalence(census.table, census.TaxonomyPointers(), options);
  }
}

TEST(Phase2EquivalenceTest, ClinicTdsAcrossImplsAndThreadCounts) {
  CensusDataset clinic = GenerateClinic(1200, 12).ValueOrDie();
  PgOptions options;
  options.k = 5;
  options.p = 0.4;
  options.seed = 42;
  CheckImplEquivalence(clinic.table, clinic.TaxonomyPointers(), options);
}

TEST(Phase2EquivalenceTest, HospitalRunningExampleAcrossImpls) {
  HospitalDataset hospital = MakeHospitalDataset().ValueOrDie();
  PgOptions options;
  options.s = 0.5;
  options.p = 0.25;
  options.seed = 42;
  CheckImplEquivalence(hospital.table, hospital.TaxonomyPointers(), options);
}

TEST(Phase2EquivalenceTest, CensusIncognitoAcrossImplsAndThreadCounts) {
  // Narrow 3-attribute schema so the full-domain lattice stays small —
  // the same construction as the publisher Incognito test.
  CensusDataset census = GenerateCensus(3000, 13).ValueOrDie();
  Schema schema;
  schema.AddAttribute(
      {"Age", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  schema.AddAttribute({"Gender", AttributeType::kCategorical,
                       AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"Income", AttributeType::kNumeric, AttributeRole::kSensitive});
  std::vector<AttributeDomain> domains = {
      census.table.domain(CensusColumns::kAge),
      census.table.domain(CensusColumns::kGender),
      census.table.domain(CensusColumns::kIncome)};
  std::vector<std::vector<int32_t>> cols = {
      census.table.column(CensusColumns::kAge),
      census.table.column(CensusColumns::kGender),
      census.table.column(CensusColumns::kIncome)};
  Table narrow = Table::Create(schema, domains, std::move(cols)).ValueOrDie();
  const std::vector<const Taxonomy*> taxonomies = {
      &census.taxonomies[CensusColumns::kAge],
      &census.taxonomies[CensusColumns::kGender]};

  PgOptions options;
  options.k = 10;
  options.p = 0.3;
  options.seed = 42;
  options.generalizer = PgOptions::Generalizer::kIncognito;
  CheckImplEquivalence(narrow, taxonomies, options);
}

TEST(Phase2EquivalenceTest, RandomizedOptionSweep) {
  // Seeded sweep across the option space: random k, p, seed, and class
  // categories. Columnar must track the oracle on every combination, not
  // just the hand-picked ones above.
  CensusDataset census = GenerateCensus(1500, 17).ValueOrDie();
  Rng rng(0xd1ff);
  for (int trial = 0; trial < 8; ++trial) {
    PgOptions options;
    options.k = rng.UniformInt(2, 12);
    options.p = 0.1 + 0.8 * rng.UniformDouble();
    options.seed = rng.Next64();
    if (trial % 2 == 1) {
      // Coarse income classes change the TDS information-gain labels.
      options.class_category_starts = {0, 10, 25};
    }
    SCOPED_TRACE("trial " + std::to_string(trial) +
                 " k=" + std::to_string(options.k));
    const RunOutput oracle = PublishWith(census.table,
                                         census.TaxonomyPointers(), options,
                                         Phase2Impl::kRowwise, 1);
    for (int threads : {1, 8}) {
      const RunOutput run =
          PublishWith(census.table, census.TaxonomyPointers(), options,
                      Phase2Impl::kColumnar, threads);
      ExpectIdenticalRelease(oracle, run, Label(Phase2Impl::kColumnar,
                                                threads));
    }
  }
}

/// Builds a random QI-only table plus matching taxonomies for the
/// LatticeCounter property test.
struct RandomLattice {
  Table table;
  std::vector<Taxonomy> taxonomies;
  std::vector<int> qi_attrs;
};

RandomLattice MakeRandomLattice(Rng& rng) {
  const int num_attrs = rng.UniformInt(1, 3);
  Schema schema;
  std::vector<AttributeDomain> domains;
  std::vector<Taxonomy> taxonomies;
  std::vector<int> qi_attrs;
  for (int a = 0; a < num_attrs; ++a) {
    const int32_t domain = rng.UniformInt(2, 9);
    schema.AddAttribute({"q" + std::to_string(a), AttributeType::kNumeric,
                         AttributeRole::kQuasiIdentifier});
    domains.push_back(AttributeDomain::Numeric(0, domain - 1));
    taxonomies.push_back(rng.UniformInt(0, 1) == 0
                             ? Taxonomy::Flat(domain, "*")
                             : Taxonomy::Binary(domain, "*"));
    qi_attrs.push_back(a);
  }
  const int num_rows = rng.UniformInt(0, 60);
  std::vector<std::vector<int32_t>> columns(num_attrs);
  for (int a = 0; a < num_attrs; ++a) {
    columns[a].reserve(num_rows);
    for (int r = 0; r < num_rows; ++r) {
      columns[a].push_back(
          rng.UniformInt(0, domains[a].size() - 1));
    }
  }
  Table table =
      Table::Create(schema, domains, std::move(columns)).ValueOrDie();
  return RandomLattice{std::move(table), std::move(taxonomies),
                       std::move(qi_attrs)};
}

TEST(Phase2EquivalenceTest, LatticeCounterMatchesNaiveOnRandomTables) {
  // ~200 random (table, depths, k) triples, including empty tables and
  // depths beyond the taxonomy height (both sides clamp identically).
  // The naive side is the exact row-wise oracle the counter replaces.
  Rng rng(4242);
  columnar::ScratchPool pool;
  for (int trial = 0; trial < 200; ++trial) {
    const RandomLattice lat = MakeRandomLattice(rng);
    std::vector<const Taxonomy*> tax_ptrs;
    for (const Taxonomy& t : lat.taxonomies) tax_ptrs.push_back(&t);
    const columnar::QiIndex index =
        columnar::QiIndex::Build(lat.table, lat.qi_attrs);
    const columnar::LatticeCounter counter(&index, tax_ptrs);

    for (int probe = 0; probe < 4; ++probe) {
      std::vector<int> depths;
      for (size_t a = 0; a < lat.qi_attrs.size(); ++a) {
        depths.push_back(rng.UniformInt(0, tax_ptrs[a]->height() + 2));
      }
      const int k = rng.UniformInt(1, 6);
      const bool naive = IsKAnonymous(
          ComputeQiGroups(lat.table,
                          RecodingAtDepths(lat.qi_attrs, tax_ptrs, depths)),
          k);
      columnar::ScratchPool::Lease lease = pool.Acquire();
      const bool columnar_verdict =
          counter.IsKAnonymousAtDepths(depths, k, lease.get());
      ASSERT_EQ(naive, columnar_verdict)
          << "trial " << trial << " probe " << probe << " k=" << k
          << " rows=" << lat.table.num_rows();
    }
  }
}

TEST(Phase2EquivalenceTest, LatticeCounterSparseFallbackMatchesNaive) {
  // 4 flat attributes of domain 40 at depth 0 give 40^4 = 2.56M cells —
  // above kDenseCellBudget (2^21), forcing the hash-map fallback. The
  // verdict must be the same exact count either way.
  Rng rng(77);
  Schema schema;
  std::vector<AttributeDomain> domains;
  std::vector<Taxonomy> taxonomies;
  std::vector<int> qi_attrs = {0, 1, 2, 3};
  std::vector<std::vector<int32_t>> columns(4);
  for (int a = 0; a < 4; ++a) {
    schema.AddAttribute({"q" + std::to_string(a), AttributeType::kNumeric,
                         AttributeRole::kQuasiIdentifier});
    domains.push_back(AttributeDomain::Numeric(0, 39));
    taxonomies.push_back(Taxonomy::Binary(40, "*"));
    for (int r = 0; r < 400; ++r) {
      columns[a].push_back(rng.UniformInt(0, 39));
    }
  }
  ASSERT_GT(uint64_t{40} * 40 * 40 * 40, columnar::kDenseCellBudget);
  Table table =
      Table::Create(schema, domains, std::move(columns)).ValueOrDie();
  std::vector<const Taxonomy*> tax_ptrs;
  for (const Taxonomy& t : taxonomies) tax_ptrs.push_back(&t);
  const columnar::QiIndex index = columnar::QiIndex::Build(table, qi_attrs);
  const columnar::LatticeCounter counter(&index, tax_ptrs);
  columnar::ScratchPool pool;
  for (std::vector<int> depths :
       {std::vector<int>{0, 0, 0, 0}, std::vector<int>{1, 0, 0, 0},
        std::vector<int>{2, 1, 0, 3}}) {
    for (int k : {1, 2, 5}) {
      const bool naive = IsKAnonymous(
          ComputeQiGroups(table, RecodingAtDepths(qi_attrs, tax_ptrs, depths)),
          k);
      columnar::ScratchPool::Lease lease = pool.Acquire();
      EXPECT_EQ(naive, counter.IsKAnonymousAtDepths(depths, k, lease.get()))
          << "k=" << k;
    }
  }
}

TEST(Phase2EquivalenceTest, IncognitoScratchPoolIsReusedAcrossSearches) {
  CensusDataset census = GenerateCensus(1200, 23).ValueOrDie();
  const std::vector<int> qi_attrs = {CensusColumns::kAge,
                                     CensusColumns::kGender};
  const std::vector<const Taxonomy*> tax_ptrs = {
      &census.taxonomies[CensusColumns::kAge],
      &census.taxonomies[CensusColumns::kGender]};

  columnar::ScratchPool pool;
  IncognitoOptions options;
  options.k = 8;
  options.phase2 = Phase2Impl::kColumnar;
  options.scratch = &pool;

  GlobalRecoding first =
      IncognitoSearch(census.table, qi_attrs, tax_ptrs, options).ValueOrDie();
  const uint64_t created_before = pool.scratches_created();
  GlobalRecoding second =
      IncognitoSearch(census.table, qi_attrs, tax_ptrs, options).ValueOrDie();
  // The serial search needs exactly the scratches it already pooled.
  EXPECT_EQ(pool.scratches_created(), created_before);
  EXPECT_EQ(ComputeQiGroups(census.table, first).num_groups(),
            ComputeQiGroups(census.table, second).num_groups());
}

TEST(Phase2EquivalenceTest, EnvSelectorResolvesAutoOnly) {
  // PGPUB_PHASE2 steers kAuto; explicit requests pass through untouched.
  const char* saved = std::getenv("PGPUB_PHASE2");
  const std::string saved_value = saved == nullptr ? "" : saved;

  ::setenv("PGPUB_PHASE2", "rowwise", 1);
  EXPECT_EQ(columnar::ResolvePhase2Impl(Phase2Impl::kAuto),
            Phase2Impl::kRowwise);
  EXPECT_EQ(columnar::ResolvePhase2Impl(Phase2Impl::kColumnar),
            Phase2Impl::kColumnar);

  ::setenv("PGPUB_PHASE2", "columnar", 1);
  EXPECT_EQ(columnar::ResolvePhase2Impl(Phase2Impl::kAuto),
            Phase2Impl::kColumnar);
  EXPECT_EQ(columnar::ResolvePhase2Impl(Phase2Impl::kRowwise),
            Phase2Impl::kRowwise);

  ::setenv("PGPUB_PHASE2", "definitely-not-an-engine", 1);
  EXPECT_EQ(columnar::ResolvePhase2Impl(Phase2Impl::kAuto),
            Phase2Impl::kColumnar);

  ::unsetenv("PGPUB_PHASE2");
  EXPECT_EQ(columnar::ResolvePhase2Impl(Phase2Impl::kAuto),
            Phase2Impl::kColumnar);

  if (saved != nullptr) {
    ::setenv("PGPUB_PHASE2", saved_value.c_str(), 1);
  }
}

}  // namespace
}  // namespace pgpub
