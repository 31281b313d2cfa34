/// \file throughput_engine.cc
/// Serving-throughput benchmark for engine::PublicationEngine (DESIGN.md
/// §10): how many publications/sec a SAL-scale dataset sustains when the
/// same request grid is served cold (one-shot RobustPublisher per request,
/// no caches) vs. warm (one engine, caches populated).
///
/// The grid sweeps k x generalizer with a solved-p ρ₁-to-ρ₂ target, so a
/// warm pass hits the engine's Phase-2 recoding cache on every request and
/// skips the O(rows) input screen. Both legs audit every release, as
/// pgpubd does. A built-in equality guard
/// re-checks that every warm release is byte-identical to its cold
/// counterpart before any timing is reported — a fast wrong answer is not
/// a speedup.
///
/// Emits BENCH_throughput_engine.json (schema_version 1) with one result
/// row per leg (cold / populate / warm), each carrying cache_hits,
/// cache_misses, cache_evictions and cache_hit_rate.
///
/// Env knobs: PGPUB_SAL_N (rows, default 700000), PGPUB_ENGINE_REPS
/// (warm passes, default 3), PGPUB_ENGINE_THREADS (0 = env default).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "common/parallel/thread_pool.h"
#include "core/robust_publisher.h"
#include "datagen/sal.h"
#include "engine/publication_engine.h"

namespace pgpub {
namespace {

size_t EnvSize(const char* name, size_t fallback) {
  if (const char* env = std::getenv(name); env != nullptr && *env != '\0') {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return fallback;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The request grid every leg serves: k x generalizer, solved-p target.
std::vector<engine::PublishRequest> MakeGrid() {
  std::vector<engine::PublishRequest> grid;
  uint64_t seed = 1000;
  for (const auto gen :
       {PgOptions::Generalizer::kTds, PgOptions::Generalizer::kIncognito}) {
    for (const int k : {4, 6, 8, 10}) {
      engine::PublishRequest request;
      request.options.k = k;
      request.options.generalizer = gen;
      request.options.p = -1.0;
      request.options.target.kind = PrivacyTarget::Kind::kRho;
      request.options.target.rho1 = 0.2;
      request.options.target.rho2 = 0.5;
      request.options.seed = seed++;
      grid.push_back(std::move(request));
    }
  }
  return grid;
}

/// Flattens a release into a comparable byte-identity witness.
std::vector<int32_t> Flatten(const PublishedTable& table) {
  std::vector<int32_t> flat;
  flat.reserve(table.num_rows() * (table.num_qi_attrs() + 2));
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (int i = 0; i < table.num_qi_attrs(); ++i) {
      flat.push_back(table.qi_gen(r, i));
    }
    flat.push_back(table.sensitive(r));
    flat.push_back(static_cast<int32_t>(table.group_size(r)));
  }
  return flat;
}

struct Leg {
  std::string name;
  uint64_t wall_ns = 0;
  size_t publications = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;

  double PublicationsPerSec() const {
    return wall_ns > 0
               ? static_cast<double>(publications) * 1e9 /
                     static_cast<double>(wall_ns)
               : 0.0;
  }
  double CacheHitRate() const {
    const uint64_t lookups = cache_hits + cache_misses;
    return lookups > 0
               ? static_cast<double>(cache_hits) /
                     static_cast<double>(lookups)
               : 0.0;
  }
};

void AccumulateCache(const PublishReport& report, Leg* leg) {
  leg->cache_hits += report.cache.hits;
  leg->cache_misses += report.cache.misses;
  leg->cache_evictions += report.cache.evictions;
}

int Main() {
  const size_t n = EnvSize("PGPUB_SAL_N", 700000);
  const int reps = static_cast<int>(EnvSize("PGPUB_ENGINE_REPS", 3));
  const int threads =
      static_cast<int>(EnvSize("PGPUB_ENGINE_THREADS", 0));

  bench::BenchReport report("throughput_engine");
  report.SetParam("rows", static_cast<uint64_t>(n));
  report.SetParam("reps", static_cast<uint64_t>(reps));
  report.SetParam("threads", static_cast<uint64_t>(threads));
  report.SetParam("hardware_threads",
                  static_cast<uint64_t>(ThreadPool::DefaultNumThreads()));

  SalOptions sal_options;
  sal_options.num_rows = n;
  sal_options.num_threads = threads;
  CensusDataset sal = GenerateSal(sal_options).ValueOrDie();
  const std::vector<engine::PublishRequest> grid = MakeGrid();
  report.SetParam("grid_size", static_cast<uint64_t>(grid.size()));

  // ---- Cold leg: one-shot RobustPublisher per request, no caches.
  Leg cold{"cold"};
  std::vector<std::vector<int32_t>> cold_outputs;
  {
    const std::vector<const Taxonomy*> taxonomies = sal.TaxonomyPointers();
    const uint64_t t0 = NowNs();
    for (const engine::PublishRequest& request : grid) {
      PgOptions options = request.options;
      options.num_threads = threads;
      PublishReport publish_report;
      const PublishedTable table =
          RobustPublisher(options)
              .Publish(sal.table, taxonomies, &publish_report)
              .ValueOrDie();
      cold_outputs.push_back(Flatten(table));
      AccumulateCache(publish_report, &cold);
    }
    cold.wall_ns = NowNs() - t0;
    cold.publications = grid.size();
  }

  // ---- Engine: pass 1 populates the caches, passes 2..reps+1 are warm.
  engine::EngineOptions engine_options;
  engine_options.num_threads = threads;
  std::unique_ptr<engine::PublicationEngine> eng =
      engine::PublicationEngine::Create(std::move(sal.table),
                                        std::move(sal.taxonomies),
                                        engine_options)
          .ValueOrDie();

  auto serve_pass = [&](Leg* leg) {
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < grid.size(); ++i) {
      PublishReport publish_report;
      const PublishedTable table =
          eng->Publish(grid[i], &publish_report).ValueOrDie();
      AccumulateCache(publish_report, leg);
      if (Flatten(table) != cold_outputs[i]) {
        std::fprintf(stderr,
                     "throughput_engine: %s output for request %zu diverged "
                     "from the cold release — refusing to report timings "
                     "for a wrong answer\n",
                     leg->name.c_str(), i);
        std::exit(1);
      }
    }
    return NowNs() - t0;
  };

  Leg populate{"populate"};
  populate.wall_ns = serve_pass(&populate);
  populate.publications = grid.size();

  Leg warm{"warm"};
  uint64_t best = ~0ull;
  for (int r = 0; r < reps; ++r) {
    Leg pass{"warm"};
    const uint64_t wall = serve_pass(&pass);
    if (wall < best) {
      best = wall;
      warm.cache_hits = pass.cache_hits;
      warm.cache_misses = pass.cache_misses;
      warm.cache_evictions = pass.cache_evictions;
    }
  }
  warm.wall_ns = best;
  warm.publications = grid.size();

  const double speedup =
      warm.wall_ns > 0 ? static_cast<double>(cold.wall_ns) /
                             static_cast<double>(warm.wall_ns)
                       : 0.0;
  report.SetParam("speedup_warm_vs_cold", speedup);

  for (const Leg* leg : {&cold, &populate, &warm}) {
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("leg", leg->name);
    row.Set("publications", static_cast<uint64_t>(leg->publications));
    row.Set("wall_ns", leg->wall_ns);
    row.Set("publications_per_sec", leg->PublicationsPerSec());
    row.Set("cache_hits", leg->cache_hits);
    row.Set("cache_misses", leg->cache_misses);
    row.Set("cache_evictions", leg->cache_evictions);
    row.Set("cache_hit_rate", leg->CacheHitRate());
    report.AddResult(std::move(row));
    std::fprintf(stderr,
                 "throughput_engine: %-8s %10.3f ms  %6.2f pub/s  "
                 "hit_rate=%.2f\n",
                 leg->name.c_str(), leg->wall_ns / 1e6,
                 leg->PublicationsPerSec(), leg->CacheHitRate());
  }
  std::fprintf(stderr, "throughput_engine: warm vs cold speedup %.2fx\n",
               speedup);
  return report.WriteAndLog() ? 0 : 1;
}

}  // namespace
}  // namespace pgpub

int main(int argc, char** argv) {
  const std::string trace = pgpub::bench::TraceFromArgs(argc, argv);
  const int rc = pgpub::Main();
  return pgpub::bench::FinishTrace(trace) ? rc : 1;
}
