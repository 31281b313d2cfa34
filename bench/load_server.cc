/// \file load_server.cc
/// pgpubd serving-core load benchmark (DESIGN.md §12): drives a large
/// request stream (default 1M) across three tenants into a deliberately
/// small ServerCore queue, so the run exercises the overload path —
/// admission control, per-tenant quotas, deadline sweeps — not just the
/// happy path. Emits BENCH_server_load.json (schema_version 1) with
/// offered/admitted/completed counts, the rejection rate, and exact
/// p50/p99 serving latency over the completed responses.
///
/// A fixed-seed determinism guard rides along: the first 64 completed
/// responses are replayed against a freshly built registry and server
/// (same batch_seed, same stream ids) and their digests must match
/// bit-for-bit — overload may change *whether* a request is served,
/// never *what* is published. The bench exits non-zero when the guard
/// fails, so CI treats a determinism regression like a build break.
///
/// Env knobs: PGPUB_LOAD_TOTAL (requests, default 1000000),
/// PGPUB_LOAD_QUEUE (queue capacity, default 256), PGPUB_LOAD_ROWS
/// (largest tenant's rows, default 2000).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_report.h"
#include "common/sync/mutex.h"
#include "datagen/sal.h"
#include "server/health_endpoint.h"
#include "server/server_core.h"
#include "server/tenant_registry.h"

namespace pgpub {
namespace {

using server::ServerCore;
using server::ServerOptions;
using server::ServerRequest;
using server::ServerResponse;
using server::TenantOptions;
using server::TenantRegistry;

size_t EnvSize(const char* name, size_t fallback) {
  if (const char* env = std::getenv(name); env != nullptr && *env != '\0') {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return fallback;
}

constexpr const char* kTenants[] = {"census", "clinic", "hospital"};
constexpr uint64_t kBatchSeed = 0x10ad;

/// Three distinct datasets behind the three tenant keys. `hospital`
/// carries a per-tenant quota so the quota rejection path is exercised
/// alongside the global queue bound.
Result<std::unique_ptr<TenantRegistry>> BuildRegistry(size_t base_rows,
                                                      size_t queue_capacity) {
  auto registry = std::make_unique<TenantRegistry>(nullptr);
  const size_t rows[] = {base_rows, base_rows * 3 / 4, base_rows / 2};
  const uint64_t seeds[] = {11, 22, 33};
  for (int i = 0; i < 3; ++i) {
    SalOptions sal_options;
    sal_options.num_rows = rows[i];
    sal_options.seed = seeds[i];
    ASSIGN_OR_RETURN(CensusDataset dataset, GenerateSal(sal_options));
    TenantOptions options;
    if (i == 2) options.max_queued = std::max<size_t>(1, queue_capacity / 4);
    RETURN_IF_ERROR(registry->AddTenant(kTenants[i],
                                        std::move(dataset.table),
                                        std::move(dataset.taxonomies),
                                        std::move(options)));
  }
  return registry;
}

/// The request for stream id `i` — a pure function of i, so the replay
/// run reproduces the main run's publications exactly. Deadlines are the
/// one non-deterministic ingredient (they race the wall clock) and are
/// only attached in the overload run, never in the replay.
ServerRequest MakeRequest(uint64_t i) {
  ServerRequest request;
  request.tenant = kTenants[i % 3];
  request.stream_id = i;
  request.publish.options.k = (i & 1) != 0 ? 2 : 4;
  request.publish.options.p = ((i >> 1) & 1) != 0 ? 0.4 : 0.7;
  return request;
}

double PercentileMs(std::vector<double>* sorted_into, double q) {
  if (sorted_into->empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(sorted_into->size() - 1) + 0.5);
  std::nth_element(sorted_into->begin(), sorted_into->begin() + idx,
                   sorted_into->end());
  return (*sorted_into)[idx];
}

int Main() {
  const size_t total = EnvSize("PGPUB_LOAD_TOTAL", 1000000);
  const size_t queue_capacity = EnvSize("PGPUB_LOAD_QUEUE", 256);
  const size_t base_rows = EnvSize("PGPUB_LOAD_ROWS", 2000);

  bench::BenchReport report("server_load");
  report.SetParam("total", static_cast<uint64_t>(total));
  report.SetParam("queue_capacity", static_cast<uint64_t>(queue_capacity));
  report.SetParam("base_rows", static_cast<uint64_t>(base_rows));
  report.SetParam("tenants", static_cast<uint64_t>(3));
  report.SetParam("batch_seed", kBatchSeed);

  std::unique_ptr<TenantRegistry> registry =
      BuildRegistry(base_rows, queue_capacity).ValueOrDie();
  ServerOptions server_options;
  server_options.queue_capacity = queue_capacity;
  server_options.batch_seed = kBatchSeed;
  ServerCore core(registry.get(), server_options);
  if (Status st = core.Start(); !st.ok()) {
    std::fprintf(stderr, "load_server: %s\n", st.ToString().c_str());
    return 1;
  }

  // ---- Overload run: submit as fast as the admission path allows.
  Mutex mu("bench.load_aggregate");
  std::vector<double> latencies_ms;
  std::vector<std::pair<uint64_t, uint64_t>> witness;  // (stream, digest)
  constexpr size_t kWitnessSize = 64;
  uint64_t digest_xor = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  auto on_response = [&](ServerResponse r) {
    MutexLock lock(&mu);
    if (r.status.ok()) {
      ++completed;
      digest_xor ^= r.digest;
      // queue_ms runs from admission to reply, so it already includes
      // publish_ms.
      latencies_ms.push_back(r.queue_ms);
      if (witness.size() < kWitnessSize) {
        witness.emplace_back(r.stream_id, r.digest);
      }
    } else {
      ++failed;
    }
  };

  uint64_t admitted = 0;
  uint64_t rejected = 0;
  for (uint64_t i = 0; i < total; ++i) {
    ServerRequest request = MakeRequest(i);
    if (i % 16 == 15) {
      // A sliver of tight deadlines keeps the sweep path hot: ~2ms is
      // enough to usually survive admission but often expire in-queue
      // behind a publish.
      request.deadline_nanos =
          core.clock()->NowNanos() + 2 * server::kNanosPerMilli;
    }
    const Status status = core.Submit(std::move(request), on_response);
    if (status.ok()) {
      ++admitted;
    } else {
      ++rejected;
    }
  }
  core.Shutdown();  // Drains: every admitted request is answered.

  const ServerCore::Stats stats = core.stats();
  const double rejection_rate =
      total > 0 ? static_cast<double>(rejected) / static_cast<double>(total)
                : 0.0;
  const double p50_ms = PercentileMs(&latencies_ms, 0.50);
  const double p99_ms = PercentileMs(&latencies_ms, 0.99);

  // ---- Determinism guard: replay the witness against a fresh world.
  bool determinism_ok = true;
  {
    std::unique_ptr<TenantRegistry> replay_registry =
        BuildRegistry(base_rows, queue_capacity).ValueOrDie();
    ServerOptions replay_options;
    replay_options.queue_capacity =
        std::max<size_t>(kWitnessSize, queue_capacity);
    replay_options.batch_seed = kBatchSeed;
    ServerCore replay(replay_registry.get(), replay_options);
    if (Status st = replay.Start(); !st.ok()) {
      std::fprintf(stderr, "load_server: replay: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    // One request in flight at a time: the replay must never trip its
    // own admission control (quota/full rejections would masquerade as
    // divergence). Serializing costs nothing at witness size.
    std::map<uint64_t, uint64_t> replay_digests;
    Mutex replay_mu("bench.load_replay");
    CondVar replay_cv;
    for (const auto& [stream_id, digest] : witness) {
      (void)digest;
      bool done = false;
      const Status st =
          replay.Submit(MakeRequest(stream_id), [&](ServerResponse r) {
            MutexLock lock(&replay_mu);
            if (r.status.ok()) replay_digests[r.stream_id] = r.digest;
            done = true;
            replay_cv.NotifyAll();
          });
      if (!st.ok()) {
        std::fprintf(stderr, "load_server: replay submit: %s\n",
                     st.ToString().c_str());
        determinism_ok = false;
        continue;
      }
      MutexLock lock(&replay_mu);
      while (!done) replay_cv.Wait(&replay_mu);
    }
    replay.Shutdown();
    for (const auto& [stream_id, digest] : witness) {
      auto it = replay_digests.find(stream_id);
      if (it == replay_digests.end() || it->second != digest) {
        std::fprintf(stderr,
                     "load_server: stream %llu digest diverged on replay "
                     "(overload changed *what* was published)\n",
                     static_cast<unsigned long long>(stream_id));
        determinism_ok = false;
      }
    }
  }

  obs::JsonValue row = obs::JsonValue::Object();
  row.Set("offered", static_cast<uint64_t>(total));
  row.Set("admitted", admitted);
  row.Set("completed", completed);
  row.Set("failed", failed);
  row.Set("rejected", rejected);
  row.Set("rejected_full", stats.rejected_full);
  row.Set("rejected_quota", stats.rejected_quota);
  row.Set("rejected_deadline", stats.rejected_deadline);
  row.Set("rejection_rate", rejection_rate);
  row.Set("p50_ms", p50_ms);
  row.Set("p99_ms", p99_ms);
  row.Set("digest_xor", digest_xor);
  row.Set("witness_size", static_cast<uint64_t>(witness.size()));
  row.Set("determinism_ok", determinism_ok);
  report.AddResult(std::move(row));

  std::fprintf(stderr,
               "load_server: offered=%llu admitted=%llu completed=%llu "
               "rejection_rate=%.4f p50=%.3fms p99=%.3fms determinism=%s\n",
               static_cast<unsigned long long>(total),
               static_cast<unsigned long long>(admitted),
               static_cast<unsigned long long>(completed), rejection_rate,
               p50_ms, p99_ms, determinism_ok ? "ok" : "FAILED");

  if (!report.WriteAndLog()) return 1;
  return determinism_ok ? 0 : 1;
}

}  // namespace
}  // namespace pgpub

int main(int argc, char** argv) {
  const std::string trace = pgpub::bench::TraceFromArgs(argc, argv);
  const int rc = pgpub::Main();
  return pgpub::bench::FinishTrace(trace) ? rc : 1;
}
