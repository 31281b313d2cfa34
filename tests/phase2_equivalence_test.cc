/// The equivalence proof behind DESIGN.md §15. Phase 2 has one engine
/// per generalizer, so the grid here is thread counts: for every dataset
/// x generalizer, the published table, the timing-normalized
/// PublishReport JSON, and the Phase-2 search counters are byte-identical
/// serial and on 8 workers. Incognito's oracle is the naive row-wise
/// verdict IsKAnonymous(ComputeQiGroups(t, RecodingAtDepths(...)), k):
/// it is held against the LatticeCounter on every node of two real
/// lattices and on seeded random tables, and a pinned digest fixes the
/// census Incognito release. An allocation-counter test pins the
/// scratch-pool reuse contract of Incognito's engine.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/columnar/arena.h"
#include "core/columnar/qi_index.h"
#include "core/report_io.h"
#include "core/robust_publisher.h"
#include "datagen/census.h"
#include "datagen/clinic.h"
#include "datagen/hospital.h"
#include "engine/fingerprint.h"
#include "generalize/incognito.h"
#include "generalize/metrics.h"
#include "generalize/qi_groups.h"
#include "generalize/tds.h"
#include "hierarchy/taxonomy.h"
#include "obs/metrics.h"
#include "table/table.h"

namespace pgpub {
namespace {

/// Search-relevant counters: thread counts must agree not only on the
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

/// One full RobustPublisher run at a pinned thread count.
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

std::string Label(int threads) { return "t" + std::to_string(threads); }

RunOutput PublishWith(const Table& microdata,
                      const std::vector<const Taxonomy*>& taxonomies,
                      PgOptions options, int threads) {
  options.num_threads = threads;
  const std::map<std::string, uint64_t> before = SearchCounters();
  RobustPublisher publisher(options);
  PublishReport report;
  Result<PublishedTable> published =
      publisher.Publish(microdata, taxonomies, &report);
  EXPECT_TRUE(published.ok())
      << Label(threads) << ": " << published.status().message();
  NormalizeTimings(&report);
  return RunOutput{std::move(*published), PublishReportToJsonString(report),
                   CounterDelta(before, SearchCounters())};
}

/// Byte-level equality of everything a release publishes, plus the
/// search-counter deltas both runs recorded.
void ExpectIdenticalRelease(const RunOutput& serial, const RunOutput& other,
                            const std::string& label) {
  const PublishedTable& a = serial.table;
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
  EXPECT_EQ(serial.report_json, other.report_json) << label;
  EXPECT_EQ(serial.counters, other.counters) << label;
}

/// The thread-count grid: the serial release is the reference; 8 workers
/// must reproduce it exactly.
void CheckThreadInvariance(const Table& microdata,
                           const std::vector<const Taxonomy*>& taxonomies,
                           const PgOptions& options) {
  const RunOutput serial = PublishWith(microdata, taxonomies, options, 1);
  const RunOutput parallel = PublishWith(microdata, taxonomies, options, 8);
  ExpectIdenticalRelease(serial, parallel, Label(8));
}

/// The census table cut down to Age and Gender (QI) plus Income, so the
/// full-domain lattice stays small — the same construction as the
/// publisher Incognito test.
struct NarrowCensus {
  CensusDataset census;
  Table table;
  std::vector<const Taxonomy*> taxonomies;
};

NarrowCensus MakeNarrowCensus() {
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
  NarrowCensus out{std::move(census), std::move(narrow), {}};
  // The pointers target census.taxonomies' heap buffer, which stays put
  // when `out` is moved.
  out.taxonomies = {&out.census.taxonomies[CensusColumns::kAge],
                    &out.census.taxonomies[CensusColumns::kGender]};
  return out;
}

PgOptions NarrowCensusIncognitoOptions() {
  PgOptions options;
  options.k = 10;
  options.p = 0.3;
  options.seed = 42;
  options.generalizer = PgOptions::Generalizer::kIncognito;
  return options;
}

TEST(Phase2EquivalenceTest, CensusTdsAcrossImplsAndThreadCounts) {
  CensusDataset census = GenerateCensus(3000, 11).ValueOrDie();
  for (uint64_t seed : {42u, 1337u}) {
    PgOptions options;
    options.k = 8;
    options.p = 0.3;
    options.seed = seed;
    CheckThreadInvariance(census.table, census.TaxonomyPointers(), options);
  }
}

TEST(Phase2EquivalenceTest, ClinicTdsAcrossImplsAndThreadCounts) {
  CensusDataset clinic = GenerateClinic(1200, 12).ValueOrDie();
  PgOptions options;
  options.k = 5;
  options.p = 0.4;
  options.seed = 42;
  CheckThreadInvariance(clinic.table, clinic.TaxonomyPointers(), options);
}

TEST(Phase2EquivalenceTest, HospitalRunningExampleAcrossImpls) {
  HospitalDataset hospital = MakeHospitalDataset().ValueOrDie();
  PgOptions options;
  options.s = 0.5;
  options.p = 0.25;
  options.seed = 42;
  CheckThreadInvariance(hospital.table, hospital.TaxonomyPointers(), options);
}

TEST(Phase2EquivalenceTest, CensusIncognitoAcrossImplsAndThreadCounts) {
  const NarrowCensus narrow = MakeNarrowCensus();
  CheckThreadInvariance(narrow.table, narrow.taxonomies,
                        NarrowCensusIncognitoOptions());
}

TEST(Phase2EquivalenceTest, CensusIncognitoReleaseDigestPinned) {
  // Both of Incognito's former engines, row-wise and LatticeCounter,
  // produced this digest at every thread count.
  constexpr uint64_t kPinned = 0x7efea70c53459d67;
  const NarrowCensus narrow = MakeNarrowCensus();
  for (int threads : {1, 8}) {
    const RunOutput run = PublishWith(narrow.table, narrow.taxonomies,
                                      NarrowCensusIncognitoOptions(), threads);
    EXPECT_EQ(engine::FingerprintPublishedTable(run.table), kPinned)
        << Label(threads);
  }
}

TEST(Phase2EquivalenceTest, RandomizedOptionSweep) {
  // Seeded sweep across the option space: random k, p, seed, and class
  // categories. The parallel release must track the serial one on every
  // combination, not just the hand-picked ones above.
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
    CheckThreadInvariance(census.table, census.TaxonomyPointers(), options);
  }
}

/// The naive oracle for one lattice node: build the recoding, group the
/// rows, and count. This is exactly what the LatticeCounter replaces.
bool NaiveIsKAnonymous(const Table& table, const std::vector<int>& qi_attrs,
                       const std::vector<const Taxonomy*>& taxonomies,
                       const std::vector<int>& depths, int k) {
  return IsKAnonymous(
      ComputeQiGroups(table, RecodingAtDepths(qi_attrs, taxonomies, depths)),
      k);
}

/// Every node of the full-domain lattice: depth vectors with
/// 0 <= depths[i] <= taxonomies[i]->height().
std::vector<std::vector<int>> AllLatticeNodes(
    const std::vector<const Taxonomy*>& taxonomies) {
  std::vector<std::vector<int>> nodes = {{}};
  for (const Taxonomy* tax : taxonomies) {
    std::vector<std::vector<int>> extended;
    for (const std::vector<int>& prefix : nodes) {
      for (int depth = 0; depth <= tax->height(); ++depth) {
        extended.push_back(prefix);
        extended.back().push_back(depth);
      }
    }
    nodes = std::move(extended);
  }
  return nodes;
}

TEST(Phase2EquivalenceTest, LatticeCounterMatchesNaiveOnEveryNode) {
  // IncognitoSearch's answer is a function of these per-node verdicts and
  // an engine-independent NCP, so agreement on every node of a lattice
  // proves the whole search unchanged on that input.
  const NarrowCensus narrow = MakeNarrowCensus();
  const HospitalDataset hospital = MakeHospitalDataset().ValueOrDie();
  struct Case {
    const char* name;
    const Table* table;
    std::vector<int> qi_attrs;
    std::vector<const Taxonomy*> taxonomies;
  };
  const std::vector<Case> cases = {
      {"census", &narrow.table, {0, 1}, narrow.taxonomies},
      {"hospital",
       &hospital.table,
       {HospitalColumns::kAge, HospitalColumns::kGender,
        HospitalColumns::kZipcode},
       hospital.TaxonomyPointers()}};
  columnar::ScratchPool pool;
  for (const Case& c : cases) {
    const columnar::QiIndex index =
        columnar::QiIndex::Build(*c.table, c.qi_attrs);
    const columnar::LatticeCounter counter(&index, c.taxonomies);
    const std::vector<std::vector<int>> nodes = AllLatticeNodes(c.taxonomies);
    int anonymous_nodes = 0;
    for (int k : {2, 10, 50}) {
      for (const std::vector<int>& depths : nodes) {
        const bool naive =
            NaiveIsKAnonymous(*c.table, c.qi_attrs, c.taxonomies, depths, k);
        columnar::ScratchPool::Lease lease = pool.Acquire();
        ASSERT_EQ(counter.IsKAnonymousAtDepths(depths, k, lease.get()), naive)
            << c.name << " k=" << k
            << " node=" << ::testing::PrintToString(depths);
        anonymous_nodes += naive ? 1 : 0;
      }
    }
    // Both verdicts occur, so the comparison is not vacuous.
    EXPECT_GT(anonymous_nodes, 0) << c.name;
    EXPECT_LT(anonymous_nodes, static_cast<int>(3 * nodes.size())) << c.name;
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
      const bool naive =
          NaiveIsKAnonymous(lat.table, lat.qi_attrs, tax_ptrs, depths, k);
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
      const bool naive =
          NaiveIsKAnonymous(table, qi_attrs, tax_ptrs, depths, k);
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

}  // namespace
}  // namespace pgpub
