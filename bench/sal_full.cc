/// \file sal_full.cc
/// The full-scale Section VII reproduction in one artifact: cold-publishes
/// the 700k-row SAL table end-to-end (TDS Phase 2) and emits Table III
/// (closed-form guarantees) plus Figures 2–3 (utility vs k and vs p) as
/// one schema-v1 bench JSON with a tracked
/// publications/sec metric. The committed smoke baseline
/// (bench/baselines/BENCH_sal_full.json) runs the same harness at
/// PGPUB_SAL_ROWS=20000 so bench_diff can gate regressions in CI without
/// paying the full run; tests/sal_golden_test.cc pins the generator and
/// publication digests printed here.
///
/// Env knobs:
///   PGPUB_SAL_ROWS    table rows (default 700000 — the paper's scale)
///   PGPUB_SAL_RUNS    seeds per figure point (default 1; figures average
///                     the per-point median like fig2/fig3 do)
///   PGPUB_SAL_THREADS worker threads (0 = environment default)
///   PGPUB_SAL_FIGS    0 = skip the Figure 2–3 sweeps (cold-path timing
///                     only; default 1)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "bench/bench_util.h"
#include "bench/sal_digest.h"
#include "common/parallel/thread_pool.h"
#include "core/guarantees.h"
#include "core/robust_publisher.h"
#include "datagen/sal.h"

namespace pgpub {
namespace {

size_t EnvSize(const char* name, size_t fallback) {
  if (const char* env = std::getenv(name); env != nullptr && *env != '\0') {
    const long long v = std::atoll(env);
    if (v >= 0) return static_cast<size_t>(v);
  }
  return fallback;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

using bench::Hex;
using bench::HistogramDigest;
using bench::PublicationDigest;
using bench::RowSampleDigest;

int Main() {
  const size_t rows = EnvSize("PGPUB_SAL_ROWS", 700000);
  const int threads = static_cast<int>(EnvSize("PGPUB_SAL_THREADS", 0));
  const bool figures = EnvSize("PGPUB_SAL_FIGS", 1) != 0;
  const int runs = static_cast<int>(EnvSize("PGPUB_SAL_RUNS", 1));
  // AveragedUtilityPoint reads SAL_RUNS; forward our knob unless the
  // caller already set the legacy one.
  if (std::getenv("SAL_RUNS") == nullptr) {
    ::setenv("SAL_RUNS", std::to_string(runs).c_str(), 1);
  }

  bench::BenchReport report("sal_full");
  report.SetParam("rows", static_cast<uint64_t>(rows));
  report.SetParam("threads", static_cast<uint64_t>(threads));
  report.SetParam("runs", static_cast<uint64_t>(runs));
  report.SetParam("figures", figures);
  report.SetParam("hardware_threads",
                  static_cast<uint64_t>(ThreadPool::DefaultNumThreads()));

  // ---- Generate the SAL table (seed 42, thread-invariant rows).
  SalOptions sal_options;
  sal_options.num_rows = rows;
  sal_options.seed = 42;
  sal_options.num_threads = threads;
  const uint64_t gen_t0 = NowNs();
  CensusDataset sal = GenerateSal(sal_options).ValueOrDie();
  const uint64_t gen_ns = NowNs() - gen_t0;
  const uint64_t sample_digest = RowSampleDigest(sal.table);
  const uint64_t histogram_digest = HistogramDigest(sal.table);
  report.SetParam("generate_ns", gen_ns);
  report.SetParam("row_sample_digest", Hex(sample_digest));
  report.SetParam("histogram_digest", Hex(histogram_digest));
  std::fprintf(stderr,
               "sal_full: generated %zu rows in %.2f s  sample=%s  hist=%s\n",
               rows, gen_ns / 1e9, Hex(sample_digest).c_str(),
               Hex(histogram_digest).c_str());

  const std::vector<const Taxonomy*> taxonomies = sal.TaxonomyPointers();

  // ---- Cold end-to-end publication (no caches).
  const PgOptions cold_options = bench::SalColdPublishOptions(threads);
  const uint64_t cold_t0 = NowNs();
  const PublishedTable cold =
      RobustPublisher(cold_options).Publish(sal.table, taxonomies).ValueOrDie();
  const uint64_t cold_ns = NowNs() - cold_t0;
  const uint64_t cold_digest = PublicationDigest(cold);
  {
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("leg", "cold_publish");
    row.Set("phase2", "columnar");
    row.Set("rows_in", static_cast<uint64_t>(rows));
    row.Set("rows_out", static_cast<uint64_t>(cold.num_rows()));
    row.Set("wall_ns", cold_ns);
    row.Set("publications", uint64_t{1});
    row.Set("publications_per_sec", 1e9 / static_cast<double>(cold_ns));
    row.Set("publication_digest", Hex(cold_digest));
    report.AddResult(std::move(row));
  }
  std::fprintf(stderr,
               "sal_full: cold publication %.2f s (%.4f pub/s)  digest=%s\n",
               cold_ns / 1e9, 1e9 / static_cast<double>(cold_ns),
               Hex(cold_digest).c_str());

  // ---- Table III: the closed-form guarantees (lambda=0.1, rho1=0.2,
  // |U^s|=50), same grid as bench/table3_guarantees.
  constexpr double kLambda = 0.1;
  constexpr double kRho1 = 0.2;
  constexpr int kUs = 50;
  const int ks[] = {2, 4, 6, 8, 10};
  for (int k : ks) {
    PgParams params{0.3, k, kLambda, kUs};
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("table", "IIIa");
    row.Set("p", params.p);
    row.Set("k", params.k);
    row.Set("rho2", MinRho2(params, kRho1));
    row.Set("delta", MinDelta(params));
    report.AddResult(std::move(row));
  }
  const double ps[] = {0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45};
  for (double p : ps) {
    PgParams params{p, 6, kLambda, kUs};
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("table", "IIIb");
    row.Set("p", params.p);
    row.Set("k", params.k);
    row.Set("rho2", MinRho2(params, kRho1));
    row.Set("delta", MinDelta(params));
    report.AddResult(std::move(row));
  }
  std::fprintf(stderr, "sal_full: Table III rows emitted\n");

  // ---- Figures 2–3: utility vs k (p = 0.3) and vs p (k = 6) on the SAL
  // table itself, m = 2 and 3, same grids as fig2/fig3.
  if (figures) {
    for (int m : {2, 3}) {
      for (int k : ks) {
        const bench::UtilityPoint point =
            bench::AveragedUtilityPoint(sal, 0.3, k, m);
        obs::JsonValue row = obs::JsonValue::Object();
        row.Set("figure", "fig2");
        row.Set("m", m);
        row.Set("k", k);
        row.Set("pg_error", point.pg_error);
        row.Set("optimistic_error", point.optimistic_error);
        row.Set("pessimistic_error", point.pessimistic_error);
        report.AddResult(std::move(row));
        std::fprintf(stderr,
                     "sal_full: fig2 m=%d k=%-2d  pg=%.4f opt=%.4f pes=%.4f\n",
                     m, k, point.pg_error, point.optimistic_error,
                     point.pessimistic_error);
      }
      for (double p : ps) {
        const bench::UtilityPoint point =
            bench::AveragedUtilityPoint(sal, p, 6, m);
        obs::JsonValue row = obs::JsonValue::Object();
        row.Set("figure", "fig3");
        row.Set("m", m);
        row.Set("p", p);
        row.Set("pg_error", point.pg_error);
        row.Set("optimistic_error", point.optimistic_error);
        row.Set("pessimistic_error", point.pessimistic_error);
        report.AddResult(std::move(row));
        std::fprintf(stderr,
                     "sal_full: fig3 m=%d p=%.2f  pg=%.4f opt=%.4f pes=%.4f\n",
                     m, p, point.pg_error, point.optimistic_error,
                     point.pessimistic_error);
      }
    }
  }

  return report.WriteAndLog() ? 0 : 1;
}

}  // namespace
}  // namespace pgpub

int main(int argc, char** argv) {
  const std::string trace = pgpub::bench::TraceFromArgs(argc, argv);
  const int rc = pgpub::Main();
  return pgpub::bench::FinishTrace(trace) ? rc : 1;
}
