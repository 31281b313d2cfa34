/// Golden pins for the full-scale SAL reproduction (bench/sal_full): the
/// seed-42 generator fingerprints (row-sample digest + per-column code
/// histograms) and the cold-publication digest of the paper's main
/// workload, at smoke scale by default so ctest catches bench regressions
/// without paying the 700k run. Set PGPUB_SAL_ROWS=700000 to check the
/// full-scale pins (the generator check stays cheap; the publication adds
/// a few seconds). The pinned values were produced by bench/sal_full and
/// must stay equal to what it prints — both sides share
/// bench/sal_digest.h, so a drift in either the generator or the
/// publishing pipeline trips these tests.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>

#include "bench/sal_digest.h"
#include "core/robust_publisher.h"
#include "datagen/sal.h"

namespace pgpub {
namespace {

struct SalPins {
  uint64_t row_sample_digest = 0;
  uint64_t histogram_digest = 0;
  uint64_t publication_digest = 0;
};

/// Known (num_rows -> fingerprints) at seed 42. 20000 is the smoke scale
/// CI runs (and the committed bench/baselines/BENCH_sal_full.json);
/// 700000 is the paper's Section VII scale.
const std::map<size_t, SalPins>& Pins() {
  static const std::map<size_t, SalPins> pins = {
      {20000, {0xbcd6e0db66e8d302ull, 0xf43d6ffb118a9fefull,
               0x8e94fe3d1738f503ull}},
      {700000, {0x363bd306b69fcb47ull, 0xcca1cc8f35bc90eeull,
                0x393258b8d0101795ull}},
  };
  return pins;
}

size_t PinnedRows() {
  if (const char* env = std::getenv("PGPUB_SAL_ROWS");
      env != nullptr && *env != '\0') {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 20000;
}

CensusDataset GenerateAt(size_t rows, int threads = 0) {
  SalOptions options;
  options.num_rows = rows;
  options.seed = 42;
  options.num_threads = threads;
  return GenerateSal(options).ValueOrDie();
}

TEST(SalGoldenTest, GeneratorFingerprintsPinned) {
  const size_t rows = PinnedRows();
  const auto pin = Pins().find(rows);
  if (pin == Pins().end()) {
    GTEST_SKIP() << "no pinned fingerprints for PGPUB_SAL_ROWS=" << rows;
  }
  const CensusDataset sal = GenerateAt(rows);
  EXPECT_EQ(bench::Hex(bench::RowSampleDigest(sal.table)),
            bench::Hex(pin->second.row_sample_digest));
  EXPECT_EQ(bench::Hex(bench::HistogramDigest(sal.table)),
            bench::Hex(pin->second.histogram_digest));
}

TEST(SalGoldenTest, GeneratorIsAPureFunctionOfRowCountAndThreads) {
  // Row i is Rng::ForStream(seed, i): a shorter table is a strict prefix
  // of a longer one, and the thread count never changes a row. This is
  // what makes the smoke-scale pins above evidence about the full-scale
  // table: the 700k table extends the 20k table, it does not replace it.
  const CensusDataset small = GenerateAt(2000, 1);
  const CensusDataset large = GenerateAt(4000, 3);
  ASSERT_EQ(small.table.num_rows(), 2000u);
  ASSERT_EQ(large.table.num_rows(), 4000u);
  for (size_t r = 0; r < small.table.num_rows(); ++r) {
    for (int a = 0; a < small.table.num_attributes(); ++a) {
      ASSERT_EQ(small.table.value(r, a), large.table.value(r, a))
          << "row " << r << " attr " << a;
    }
  }
}

TEST(SalGoldenTest, ColdPublicationDigestPinned) {
  const size_t rows = PinnedRows();
  const auto pin = Pins().find(rows);
  if (pin == Pins().end()) {
    GTEST_SKIP() << "no pinned digest for PGPUB_SAL_ROWS=" << rows;
  }
  CensusDataset sal = GenerateAt(rows);
  const std::vector<const Taxonomy*> taxonomies = sal.TaxonomyPointers();

  const PgOptions options = bench::SalColdPublishOptions(1);
  const PublishedTable release =
      RobustPublisher(options).Publish(sal.table, taxonomies).ValueOrDie();
  EXPECT_EQ(bench::Hex(bench::PublicationDigest(release)),
            bench::Hex(pin->second.publication_digest));
}

}  // namespace
}  // namespace pgpub
