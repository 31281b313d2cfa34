/// \file driver.cc
/// The perfbench workload driver. One process runs one named workload:
/// it generates every input from the workload seed, sets up (several
/// times, so set-up time has a median), warms up, then measures for the
/// requested number of seconds and checks every operation's output.
///
/// With --trace 0 it times the program as users run it. With --trace 1
/// it alternates untraced operations with traced ones: the traced side
/// rebuilds the publication pipeline from the public calls of each layer
/// (validate, perturb, QI index, TDS / Incognito, QI groups, sample,
/// assemble, verify) and records a span around each call, so a layer's
/// self time can be read without any tracing inside the program.
///
/// Output: one JSON document of raw samples on stdout. perfbench/run.py
/// builds this binary, reduces the samples to metrics (perfbench/stats.py)
/// and prints the result line.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "attack/adversaries.h"
#include "attack/publishers.h"
#include "attack/scenario.h"
#include "bench/sal_digest.h"
#include "common/parallel/thread_pool.h"
#include "common/random.h"
#include "common/sync/mutex.h"
#include "core/columnar/qi_index.h"
#include "core/guarantees.h"
#include "core/robust_publisher.h"
#include "core/validate.h"
#include "core/verify.h"
#include "datagen/clinic.h"
#include "datagen/hospital.h"
#include "datagen/sal.h"
#include "engine/fingerprint.h"
#include "generalize/incognito.h"
#include "generalize/metrics.h"
#include "generalize/qi_groups.h"
#include "generalize/tds.h"
#include "mining/category.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "perturb/randomized_response.h"
#include "sample/stratified.h"
#include "server/server_core.h"
#include "server/tenant_registry.h"

namespace pgpub::perfbench {
namespace {

using obs::JsonValue;

/// Worker count of the cold publishes and the matrix. Fixed, never read
/// from the environment: at 4 workers the 700k cold publish ranged over
/// 1.6-2.8 s in identical runs, at 2 it held near 2.0 s.
constexpr int kWorkers = 2;

/// Generator seed of every table. The tables are fixed and the workload
/// seed drives what is random in an operation (publish seeds, request
/// streams, victims): a different table changes how much work TDS does
/// (27 to 48 specializations on 700k rows across table seeds), which
/// would swamp the run-to-run spread, while the publish seed does not
/// (36 at every seed tried on the seed-42 table). Seed 42 is the paper's
/// SAL table of bench/sal_full and tests/sal_golden_test.cc.
constexpr uint64_t kTableSeed = 42;

/// Digest of the 700k TDS release at publish seed 42
/// (tests/sal_golden_test.cc).
constexpr uint64_t kSal700kPinnedDigest = 0x393258b8d0101795ull;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double MsBetween(uint64_t t0, uint64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// VmHWM (peak resident set) of this process, in KiB.
uint64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

/// In-memory span log: one record per timed call, with its parent.
/// Single-threaded by contract; parallel work records into per-slot
/// storage and is appended after the join (see the breach matrix).
class SpanLog {
 public:
  int Begin(const char* name, int parent) {
    spans_.push_back({name, parent, NowNs(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[id].end_ns = NowNs(); }
  int Add(const char* name, int parent, uint64_t start_ns, uint64_t end_ns) {
    spans_.push_back({name, parent, start_ns, end_ns});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// [[name, parent, start_ns, end_ns], ...], times relative to the first.
  JsonValue ToJson() const {
    JsonValue out = JsonValue::Array();
    const uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) {
      JsonValue row = JsonValue::Array();
      row.Append(JsonValue::Str(s.name));
      row.Append(JsonValue::Int(s.parent));
      row.Append(JsonValue::Uint(s.start_ns - base));
      row.Append(JsonValue::Uint(s.end_ns - base));
      out.Append(std::move(row));
    }
    return out;
  }

 private:
  struct Span {
    const char* name;
    int parent;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  std::vector<Span> spans_;
};

/// RAII span; a null log makes it free.
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, int parent)
      : log_(log), id_(log != nullptr ? log->Begin(name, parent) : -1) {}
  ~Scoped() {
    if (log_ != nullptr) log_->End(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Counter and histogram deltas of the process-wide metrics registry
/// over a window, for the layer counters the program already keeps.
class RegistryWindow {
 public:
  RegistryWindow() : before_(obs::MetricsRegistry::Global().TakeSnapshot()) {}

  uint64_t CounterDelta(const std::string& name) const {
    return Find(after_.counters, name) - Find(before_.counters, name);
  }

  void Close() { after_ = obs::MetricsRegistry::Global().TakeSnapshot(); }

  /// [[bucket_lower_bound, count], ...] of the window.
  JsonValue HistogramDelta(const std::string& name) const {
    std::map<uint64_t, uint64_t> counts;
    for (const auto& [hist_name, hist] : after_.histograms) {
      if (hist_name != name) continue;
      for (const auto& [lo, n] : hist.buckets) counts[lo] += n;
    }
    for (const auto& [hist_name, hist] : before_.histograms) {
      if (hist_name != name) continue;
      for (const auto& [lo, n] : hist.buckets) counts[lo] -= n;
    }
    JsonValue out = JsonValue::Array();
    for (const auto& [lo, n] : counts) {
      if (n == 0) continue;
      JsonValue pair = JsonValue::Array();
      pair.Append(JsonValue::Uint(lo));
      pair.Append(JsonValue::Uint(n));
      out.Append(std::move(pair));
    }
    return out;
  }

 private:
  static uint64_t Find(
      const std::vector<std::pair<std::string, uint64_t>>& counters,
      const std::string& name) {
    for (const auto& [n, v] : counters) {
      if (n == name) return v;
    }
    return 0;
  }

  obs::MetricsRegistry::Snapshot before_;
  obs::MetricsRegistry::Snapshot after_;
};

JsonValue DoubleArray(const std::vector<double>& values) {
  JsonValue out = JsonValue::Array();
  for (double v : values) out.Append(JsonValue::Double(v));
  return out;
}

/// Everything one run reports; run.py turns it into metrics.
struct Report {
  int workers = kWorkers;
  int warmup_ops = 0;
  std::vector<double> setup_s;
  std::vector<double> datagen_ms;
  /// Per-operation latency of the measured (untraced) operations.
  std::vector<double> latency_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Latency of the traced operations (trace mode only).
  std::vector<double> traced_latency_ms;
  SpanLog spans;
  /// Layer samples reduced by their median (trace mode).
  std::map<std::string, std::vector<double>> samples;
  /// Layer totals divided by the traced operation count (trace mode).
  std::map<std::string, double> per_op;
  /// Layer values reported as they are (trace mode).
  std::map<std::string, double> values;
  JsonValue histograms = JsonValue::Object();
  JsonValue checks = JsonValue::Array();
  bool all_checks_ok = true;
  JsonValue facts = JsonValue::Object();

  void Check(const std::string& name, bool ok, const std::string& detail) {
    JsonValue row = JsonValue::Object();
    row.Set("name", name);
    row.Set("ok", ok);
    row.Set("detail", detail);
    checks.Append(std::move(row));
    all_checks_ok &= ok;
    if (!ok) {
      std::fprintf(stderr, "perfbench: check %s FAILED: %s\n", name.c_str(),
                   detail.c_str());
    }
  }

  /// Counts one measured operation.
  void CountOp(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Runs `op` back to back until `seconds` have passed and at least
/// `min_ops` ran, recording wall and CPU time of the whole window.
template <typename Op>
void TimedWindow(double seconds, size_t min_ops, Report* report, Op&& op) {
  const double cpu0 = CpuSeconds();
  const uint64_t t0 = NowNs();
  const uint64_t budget_ns = static_cast<uint64_t>(seconds * 1e9);
  for (size_t i = 0; i < min_ops || NowNs() - t0 < budget_ns; ++i) op(i);
  report->wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  report->cpu_s = CpuSeconds() - cpu0;
}

// ---------------------------------------------------------------------------
// The rebuilt publication pipeline.

struct ReplayConfig {
  /// Mirror RobustPublisher's one-shot path, which screens the inputs
  /// once itself and once more inside PgPublisher. A serving engine
  /// marks them prevalidated and screens none.
  bool one_shot = true;
  /// Shared worker pool (a serving engine's lease); null = a lease per
  /// publication, as the one-shot publisher takes.
  const PoolLease* lease = nullptr;
};

/// PgPublisher::Publish + RobustPublisher's audit, rebuilt from the
/// public calls of each layer in the same order and with the same seed
/// forks, with one span per call under `parent`. Returns the release so
/// the caller can require its digest to equal the program's.
Result<PublishedTable> ReplayPublish(
    const Table& microdata, const std::vector<const Taxonomy*>& taxonomies,
    const PgOptions& options, const ReplayConfig& config, SpanLog* log,
    int parent, Report* report) {
  const int validations = config.one_shot ? 2 : 0;
  for (int i = 0; i < validations; ++i) {
    Scoped span(log, "validate", parent);
    RETURN_IF_ERROR(ValidatePublishInputs(microdata, taxonomies, options));
  }
  const std::vector<int> qi = microdata.schema().QiIndices();
  ASSIGN_OR_RETURN(int sens, microdata.schema().SensitiveIndex());
  const int32_t us = microdata.domain(sens).size();
  ASSIGN_OR_RETURN(int k, PgPublisher::EffectiveK(options));
  ASSIGN_OR_RETURN(double p, PgPublisher::EffectiveRetention(options, k, us));

  Rng master(options.seed);
  const uint64_t perturb_seed = master.Fork();
  Rng sample_rng(master.Fork());
  std::optional<PoolLease> local_lease;
  const PoolLease* lease = config.lease;
  if (lease == nullptr) {
    local_lease.emplace(options.num_threads);
    lease = &*local_lease;
  }
  ThreadPool* const pool = lease->get();

  std::vector<int32_t> perturbed;
  {
    Scoped span(log, "perturb", parent);
    ASSIGN_OR_RETURN(perturbed,
                     UniformPerturbation(p, us).PerturbColumnStreams(
                         microdata.column(sens), perturb_seed, pool));
  }
  report->per_op["perturb.rows"] += static_cast<double>(perturbed.size());

  std::vector<int32_t> class_labels;
  int num_classes = us;
  if (options.class_category_starts.empty()) {
    class_labels = perturbed;
  } else {
    const auto& starts = options.class_category_starts;
    num_classes = static_cast<int>(starts.size());
    class_labels.reserve(perturbed.size());
    for (int32_t code : perturbed) {
      class_labels.push_back(static_cast<int32_t>(
          std::upper_bound(starts.begin(), starts.end(), code) -
          starts.begin() - 1));
    }
  }

  const columnar::Phase2Impl phase2 =
      columnar::ResolvePhase2Impl(options.phase2_impl);
  std::optional<columnar::QiIndex> index;
  if (phase2 == columnar::Phase2Impl::kColumnar) {
    Scoped span(log, "columnar.qi_index_build", parent);
    index.emplace(columnar::QiIndex::Build(microdata, qi));
  }
  if (index.has_value()) {
    report->samples["columnar.distinct_tuple_ratio"].push_back(
        static_cast<double>(index->num_tuples()) /
        static_cast<double>(index->num_rows()));
  }
  GlobalRecoding recoding;
  if (options.generalizer == PgOptions::Generalizer::kTds) {
    Scoped span(log, "tds", parent);
    TdsOptions tds_options;
    tds_options.k = k;
    tds_options.pool = pool;
    tds_options.phase2 = phase2;
    if (index.has_value()) tds_options.qi_index = &*index;
    TopDownSpecializer tds(microdata, qi, taxonomies, std::move(class_labels),
                           num_classes, tds_options);
    ASSIGN_OR_RETURN(recoding, tds.Run());
  } else {
    Scoped span(log, "incognito", parent);
    IncognitoOptions inc_options;
    inc_options.k = k;
    inc_options.pool = pool;
    inc_options.phase2 = phase2;
    if (index.has_value()) inc_options.qi_index = &*index;
    ASSIGN_OR_RETURN(recoding,
                     IncognitoSearch(microdata, qi, taxonomies, inc_options));
  }

  QiGroups groups;
  {
    Scoped span(log, "qi_groups", parent);
    groups = ComputeQiGroups(microdata, recoding);
    if (!IsKAnonymous(groups, k)) {
      return Status::Internal("replayed recoding is not k-anonymous");
    }
  }
  report->per_op["qi_groups.groups"] += static_cast<double>(groups.num_groups());

  std::vector<StratumSample> samples;
  {
    Scoped span(log, "sample", parent);
    samples = StratifiedSample(groups, sample_rng);
  }
  report->per_op["sample.rows_out"] += static_cast<double>(samples.size());

  std::optional<PublishedTable> published;
  {
    Scoped span(log, "assemble", parent);
    std::vector<std::vector<int32_t>> qi_gen;
    std::vector<int32_t> sensitive;
    std::vector<uint32_t> group_sizes;
    qi_gen.reserve(samples.size());
    sensitive.reserve(samples.size());
    group_sizes.reserve(samples.size());
    for (const StratumSample& s : samples) {
      qi_gen.push_back(recoding.GenVectorOfRow(microdata, s.row));
      sensitive.push_back(perturbed[s.row]);
      group_sizes.push_back(s.group_size);
    }
    published.emplace(microdata.schema(), microdata.domains(),
                      std::move(recoding), sens, p, k, std::move(qi_gen),
                      std::move(sensitive), std::move(group_sizes));
  }
  {
    Scoped span(log, "verify", parent);
    RETURN_IF_ERROR(VerifyPublication(microdata, *published));
  }
  if (options.p < 0.0 && options.target.kind == PrivacyTarget::Kind::kRho) {
    const PgParams params{p, k, options.target.lambda, us};
    if (!SatisfiesRhoGuarantee(params, options.target.rho1,
                               options.target.rho2)) {
      return Status::Internal("replayed release misses its rho target");
    }
  }
  return std::move(*published);
}

/// The program's own work counters over a traced window, per operation
/// the window ran, plus the pool's queue-wait histogram.
void CollectLayerCounters(const RegistryWindow& window, size_t ops,
                          Report* report) {
  for (const char* name :
       {"tds.specializations", "incognito.nodes_examined",
        "incognito.children_pruned", "parallel.tasks"}) {
    report->values[name] = static_cast<double>(window.CounterDelta(name)) /
                           static_cast<double>(std::max<size_t>(1, ops));
  }
  report->histograms.Set("parallel.queue_wait_ns",
                         window.HistogramDelta("parallel.steal_or_queue_wait"));
}

// ---------------------------------------------------------------------------
// Cold one-shot publication workloads.

struct ColdSpec {
  size_t rows;
  PgOptions::Generalizer generalizer;
  /// Distinct publish seeds cycled through; operations with equal seeds
  /// must give identical releases.
  size_t seed_cycle;
  int setup_reps;
  int warmup_ops;
  /// Run VerifyPublication on every measured release, not only on the
  /// reference release of each seed.
  bool verify_every_op;
};

void RunCold(const ColdSpec& spec, uint64_t seed, double seconds, bool trace,
             Report* report) {
  PgOptions base = bench::SalColdPublishOptions(kWorkers);
  base.generalizer = spec.generalizer;
  auto options_for = [&](size_t op) {
    PgOptions options = base;
    options.seed = spec.seed_cycle == 1
                       ? seed
                       : Rng::ForStream(seed, op % spec.seed_cycle).Next64();
    return options;
  };
  auto publish = [&](const CensusDataset& data, size_t op) {
    return RobustPublisher(options_for(op))
        .Publish(data.table, data.TaxonomyPointers());
  };

  std::optional<CensusDataset> sal;
  std::map<size_t, uint64_t> reference;  // seed slot -> release digest
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    sal.reset();
    reference.clear();
    const uint64_t t0 = NowNs();
    SalOptions sal_options;
    sal_options.num_rows = spec.rows;
    sal_options.seed = kTableSeed;
    sal_options.num_threads = kWorkers;
    sal.emplace(GenerateSal(sal_options).ValueOrDie());
    report->datagen_ms.push_back(MsBetween(t0, NowNs()));
    std::vector<PublishedTable> warm;
    for (int w = 0; w < spec.warmup_ops; ++w) {
      warm.push_back(publish(*sal, w).ValueOrDie());
    }
    report->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    for (int w = 0; w < spec.warmup_ops; ++w) {
      const size_t slot = w % spec.seed_cycle;
      const uint64_t digest = bench::PublicationDigest(warm[w]);
      if (reference.count(slot) == 0) {
        reference[slot] = digest;
        if (rep + 1 == spec.setup_reps) {
          const Status st = VerifyPublication(sal->table, warm[w]);
          report->Check("verify_reference_" + std::to_string(slot), st.ok(),
                        st.ToString());
        }
      } else if (reference[slot] != digest) {
        report->Check("warmup_deterministic", false,
                      "equal seeds gave different releases in warm-up");
      }
    }
  }
  report->warmup_ops = spec.warmup_ops;
  if (spec.rows == 700000 && spec.generalizer == PgOptions::Generalizer::kTds &&
      seed == 42 && reference.count(0) != 0) {
    report->Check("pinned_digest_seed42",
                  reference[0] == kSal700kPinnedDigest,
                  "release digest " + bench::Hex(reference[0]) +
                      ", pinned " + bench::Hex(kSal700kPinnedDigest));
  }

  // Checks one release against the reference release of its seed slot
  // (recording it when the slot has none yet).
  auto release_ok = [&](const Result<PublishedTable>& release, size_t op) {
    if (!release.ok()) return false;
    const size_t slot = op % spec.seed_cycle;
    const uint64_t digest = bench::PublicationDigest(*release);
    const auto [it, inserted] = reference.emplace(slot, digest);
    if (!inserted && it->second != digest) return false;
    if (spec.verify_every_op || inserted) {
      if (!VerifyPublication(sal->table, *release).ok()) return false;
    }
    return true;
  };

  // The warm-up used ops 0..warmup-1; measured ops continue the cycle.
  const size_t first = static_cast<size_t>(spec.warmup_ops);
  if (!trace) {
    TimedWindow(seconds, 3, report, [&](size_t i) {
      const uint64_t t0 = NowNs();
      Result<PublishedTable> release = publish(*sal, first + i);
      report->latency_ms.push_back(MsBetween(t0, NowNs()));
      report->CountOp(release_ok(release, first + i));
    });
    return;
  }

  // Trace mode: untraced one-shot publish, then the traced replay of the
  // same seed, which must reproduce its release byte for byte.
  const std::vector<const Taxonomy*> taxonomies = sal->TaxonomyPointers();
  size_t mismatches = 0;
  RegistryWindow window;
  TimedWindow(seconds, 1, report, [&](size_t i) {
    const size_t op = first + i;
    uint64_t t0 = NowNs();
    Result<PublishedTable> release = publish(*sal, op);
    report->latency_ms.push_back(MsBetween(t0, NowNs()));
    report->CountOp(release_ok(release, op));

    t0 = NowNs();
    Result<PublishedTable> replayed = [&] {
      Scoped root(&report->spans, "op", -1);
      return ReplayPublish(sal->table, taxonomies, options_for(op), {},
                           &report->spans, root.id(), report);
    }();
    report->traced_latency_ms.push_back(MsBetween(t0, NowNs()));
    const bool same = replayed.ok() && release.ok() &&
                      bench::PublicationDigest(*replayed) ==
                          bench::PublicationDigest(*release);
    report->CountOp(same);
    if (!same) ++mismatches;
  });
  window.Close();
  CollectLayerCounters(window, report->attempted, report);
  report->Check("replay_matches_release", mismatches == 0,
                std::to_string(report->traced_latency_ms.size() - mismatches) +
                    "/" + std::to_string(report->traced_latency_ms.size()) +
                    " traced replays reproduced the one-shot release");
}

// ---------------------------------------------------------------------------
// serve_closed_loop: one ServerCore, three tenants, closed-loop clients.

constexpr size_t kServeClients = 4;
/// Each tenant engine publishes serially. A ~2 ms request on a 4k-row
/// tenant fans out into ~120 pool tasks at 2 workers, and its wall time
/// then tracks how fast the host wakes the workers, not the program:
/// across ten runs the client latency spread 0.22 while CPU per request
/// spread 0.08. Serial engines keep the dispatcher's wall time equal to
/// its CPU time.
constexpr int kServeEngineWorkers = 1;
constexpr size_t kServeQueue = 64;
constexpr size_t kServeReplayed = 48;
constexpr size_t kServeTenantRows[] = {4000, 3000, 2000};
constexpr const char* kServeTenants[] = {"t4k", "t3k", "t2k"};
constexpr int kServeKs[] = {4, 8};

/// Request for `stream_id`: a pure function of (seed, stream id), so a
/// fresh registry replays it exactly. 3:1 TDS:Incognito, k in {4, 8},
/// p solved from a rho1-to-rho2 target.
server::ServerRequest ServeRequest(uint64_t seed, uint64_t stream_id) {
  Rng rng = Rng::ForStream(seed ^ 0x5e7eull, stream_id);
  server::ServerRequest request;
  request.tenant = kServeTenants[rng.Next64() % 3];
  request.stream_id = stream_id;
  PgOptions& options = request.publish.options;
  options.k = kServeKs[rng.Next64() % 2];
  options.generalizer = rng.Next64() % 4 == 3
                            ? PgOptions::Generalizer::kIncognito
                            : PgOptions::Generalizer::kTds;
  options.p = -1.0;
  options.target.kind = PrivacyTarget::Kind::kRho;
  options.target.rho1 = 0.2;
  options.target.rho2 = 0.5;
  options.target.lambda = 0.1;
  options.num_threads = kServeEngineWorkers;
  return request;
}

struct ServeWorld {
  std::vector<CensusDataset> datasets;  ///< Kept for the layer replay.
  std::unique_ptr<server::TenantRegistry> registry;
  std::unique_ptr<server::ServerCore> core;
};

/// Three tenants behind one server whose batch seed is the workload seed.
ServeWorld BuildServeWorld(uint64_t seed, Report* report) {
  ServeWorld world;
  const uint64_t t0 = NowNs();
  for (size_t i = 0; i < 3; ++i) {
    SalOptions sal_options;
    sal_options.num_rows = kServeTenantRows[i];
    sal_options.seed = kTableSeed + i;
    sal_options.num_threads = kWorkers;
    world.datasets.push_back(GenerateSal(sal_options).ValueOrDie());
  }
  if (report != nullptr) report->datagen_ms.push_back(MsBetween(t0, NowNs()));
  world.registry = std::make_unique<server::TenantRegistry>(nullptr);
  for (size_t i = 0; i < 3; ++i) {
    server::TenantOptions options;
    options.engine.num_threads = kServeEngineWorkers;
    const CensusDataset& data = world.datasets[i];
    const Status st = world.registry->AddTenant(
        kServeTenants[i], data.table, data.taxonomies, std::move(options));
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  server::ServerOptions server_options;
  server_options.queue_capacity = kServeQueue;
  server_options.batch_seed = seed;
  world.core =
      std::make_unique<server::ServerCore>(world.registry.get(), server_options);
  if (const Status st = world.core->Start(); !st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return world;
}

void ShutdownWorld(ServeWorld* world) {
  if (world->core != nullptr) world->core->Shutdown();
  world->core.reset();  // before the registry it points into
  world->registry.reset();
  world->datasets.clear();
}

struct Reply {
  size_t client = 0;
  server::ServerResponse response;
  uint64_t done_ns = 0;
};

/// Replies handed from the server's dispatcher thread to the driver's
/// main thread. Shared with every callback, so it outlives the last one
/// however late the dispatcher releases it.
struct ReplyQueue {
  Mutex mu{"perfbench.replies"};
  CondVar cv;
  std::deque<Reply> done PGPUB_GUARDED_BY(mu);

  server::ResponseCallback Callback(std::shared_ptr<ReplyQueue> self,
                                    size_t client) {
    return [self = std::move(self), client](server::ServerResponse r) {
      MutexLock lock(&self->mu);
      self->done.push_back(Reply{client, std::move(r), NowNs()});
      self->cv.NotifyAll();
    };
  }

  Reply Pop() {
    MutexLock lock(&mu);
    while (done.empty()) cv.Wait(&mu);
    Reply reply = std::move(done.front());
    done.pop_front();
    return reply;
  }
};

/// Submits one request and blocks for its reply (warm-up and replay).
server::ServerResponse SubmitAndWait(server::ServerCore* core,
                                     server::ServerRequest request) {
  auto queue = std::make_shared<ReplyQueue>();
  const Status st =
      core->Submit(std::move(request), queue->Callback(queue, 0));
  if (!st.ok()) {
    server::ServerResponse rejected;
    rejected.status = st;
    return rejected;
  }
  return queue->Pop().response;
}

/// Per-request record of the closed loop.
struct ServedRequest {
  uint64_t stream_id = 0;
  bool ok = false;
  uint64_t digest = 0;
  double latency_ms = 0.0;
  double queue_ms = 0.0;
  double publish_ms = 0.0;
};

/// Request rate the per-request records are reserved for, well above the
/// ~330 requests/s served on 4 vCPUs. Reserving up front keeps peak RSS
/// smooth: a vector that doubles when the request count crosses a power
/// of two stepped `peak_rss_mb` by ~1 MB (10%) between runs. Reserved
/// pages that are never written are never resident.
constexpr double kServeReserveRate = 5000.0;

size_t ServeReserve(double seconds) {
  return static_cast<size_t>(seconds * kServeReserveRate) + kServeClients;
}

struct LoopResult {
  std::vector<ServedRequest> served;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Drives `kServeClients` closed-loop clients from this thread for
/// `seconds`: each client submits its next request only after the reply
/// to its previous one. Stream ids continue from `*next_stream`. With a
/// log, records one span per request, submit to reply.
LoopResult ClosedLoop(server::ServerCore* core, uint64_t seed, double seconds,
                      uint64_t* next_stream, SpanLog* log) {
  auto queue = std::make_shared<ReplyQueue>();
  LoopResult out;
  out.served.reserve(ServeReserve(seconds));
  std::vector<uint64_t> sent_ns(kServeClients, 0);
  std::vector<uint64_t> stream_of(kServeClients, 0);
  const double cpu0 = CpuSeconds();
  const uint64_t t0 = NowNs();
  const uint64_t budget_ns = static_cast<uint64_t>(seconds * 1e9);
  size_t outstanding = 0;
  // A rejected submit gets no reply, so it is recorded as failed and the
  // client moves on to its next request.
  auto submit = [&](size_t client) {
    while (NowNs() - t0 < budget_ns) {
      const uint64_t stream_id = (*next_stream)++;
      stream_of[client] = stream_id;
      sent_ns[client] = NowNs();
      if (core->Submit(ServeRequest(seed, stream_id),
                       queue->Callback(queue, client))
              .ok()) {
        ++outstanding;
        return;
      }
      ServedRequest rejected;
      rejected.stream_id = stream_id;
      out.served.push_back(rejected);
    }
  };
  for (size_t c = 0; c < kServeClients; ++c) submit(c);
  while (outstanding > 0) {
    const Reply reply = queue->Pop();
    --outstanding;
    const server::ServerResponse& r = reply.response;
    ServedRequest record;
    record.stream_id = r.stream_id;
    record.ok = r.status.ok() && r.digest != 0 &&
                r.stream_id == stream_of[reply.client];
    record.digest = r.digest;
    record.latency_ms = MsBetween(sent_ns[reply.client], reply.done_ns);
    record.queue_ms = r.queue_ms;
    record.publish_ms = r.publish_ms;
    if (log != nullptr) {
      log->Add("request", -1, sent_ns[reply.client], reply.done_ns);
    }
    out.served.push_back(record);
    submit(reply.client);
  }
  out.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  out.cpu_s = CpuSeconds() - cpu0;
  return out;
}

void RunServe(uint64_t seed, double seconds, bool trace, Report* report) {
  // Five set-ups, not three: a ~0.5 s set-up of small tenants follows
  // short swings in host speed, and its median over three spread by
  // 0.18-0.27 across runs.
  constexpr int kSetupReps = 5;
  ServeWorld world;
  uint64_t next_stream = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ShutdownWorld(&world);
    const uint64_t t0 = NowNs();
    world = BuildServeWorld(seed, report);
    // Warm-up: one Incognito request per (tenant, k) fills the recoding
    // caches, so the measured window sees them in steady state. Warm-up
    // streams are not replayed (their options differ from ServeRequest).
    next_stream = 0;
    for (const char* tenant : kServeTenants) {
      for (int k : kServeKs) {
        server::ServerRequest request = ServeRequest(seed, next_stream++);
        request.tenant = tenant;
        request.publish.options.k = k;
        request.publish.options.generalizer =
            PgOptions::Generalizer::kIncognito;
        const server::ServerResponse r =
            SubmitAndWait(world.core.get(), std::move(request));
        if (!r.status.ok()) report->Check("warmup", false, r.status.ToString());
      }
    }
    report->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  report->warmup_ops = static_cast<int>(next_stream);
  report->workers = kServeEngineWorkers;

  // Trace mode alternates untraced and traced half-second slices, so
  // drift over the run falls on both sides alike. A traced slice records
  // one span per request plus the server's own split of each reply.
  std::vector<ServedRequest> served;
  served.reserve(ServeReserve(seconds));
  report->latency_ms.reserve(ServeReserve(seconds));
  std::optional<RegistryWindow> window;
  server::ServerCore::Stats before;
  if (trace) {
    window.emplace();
    before = world.core->stats();
  }
  const int slices =
      trace ? std::max(2, 2 * static_cast<int>(std::ceil(seconds))) : 1;
  for (int slice = 0; slice < slices; ++slice) {
    const bool traced = trace && slice % 2 == 1;
    const LoopResult loop =
        ClosedLoop(world.core.get(), seed, seconds / slices, &next_stream,
                   traced ? &report->spans : nullptr);
    report->wall_s += loop.wall_s;
    report->cpu_s += loop.cpu_s;
    for (const ServedRequest& r : loop.served) {
      if (!traced) {
        report->latency_ms.push_back(r.latency_ms);
        continue;
      }
      report->traced_latency_ms.push_back(r.latency_ms);
      report->samples["engine.publish_ms"].push_back(r.publish_ms);
      // ServerResponse::queue_ms runs from admission to the reply, so it
      // includes the publish; the wait in the queue is the difference.
      report->samples["server.queue_wait_ms"].push_back(r.queue_ms -
                                                        r.publish_ms);
      report->samples["server.overhead_ms"].push_back(r.latency_ms -
                                                      r.queue_ms);
    }
    served.insert(served.end(), loop.served.begin(), loop.served.end());
  }
  if (trace) {
    window->Close();
    const server::ServerCore::Stats after = world.core->stats();
    auto rate = [&](const std::string& cache) {
      const double hits = static_cast<double>(
          window->CounterDelta("engine." + cache + ".hits"));
      const double misses = static_cast<double>(
          window->CounterDelta("engine." + cache + ".misses"));
      return hits + misses > 0 ? hits / (hits + misses) : 0.0;
    };
    report->values["engine.recoding_hit_rate"] = rate("recoding");
    report->values["engine.retention_hit_rate"] = rate("retention");
    report->values["engine.evictions"] = static_cast<double>(
        window->CounterDelta("engine.recoding.evictions") +
        window->CounterDelta("engine.retention.evictions"));
    report->values["server.rejected_full"] =
        static_cast<double>(after.rejected_full - before.rejected_full);
    report->values["server.rejected_quota"] =
        static_cast<double>(after.rejected_quota - before.rejected_quota);
    report->values["server.rejected_deadline"] = static_cast<double>(
        after.rejected_deadline - before.rejected_deadline);
    report->values["server.rejected_other"] = static_cast<double>(
        (after.rejected_unknown_tenant - before.rejected_unknown_tenant) +
        (after.rejected_draining - before.rejected_draining) +
        (after.rejected_admit_fault - before.rejected_admit_fault) +
        (after.breaker_open - before.breaker_open));
    CollectLayerCounters(*window, served.size(), report);
  }
  for (const ServedRequest& r : served) report->CountOp(r.ok);

  // Replay a spread of completed stream ids on a fresh registry, one at a
  // time; each must come back with the same digest.
  std::vector<ServedRequest> witness;
  const size_t stride = std::max<size_t>(1, served.size() / kServeReplayed);
  for (size_t i = 0; i < served.size() && witness.size() < kServeReplayed;
       i += stride) {
    if (served[i].ok) witness.push_back(served[i]);
  }
  {
    ServeWorld fresh = BuildServeWorld(seed, nullptr);
    size_t mismatches = 0;
    for (const ServedRequest& w : witness) {
      const server::ServerResponse r =
          SubmitAndWait(fresh.core.get(), ServeRequest(seed, w.stream_id));
      if (!r.status.ok() || r.digest != w.digest) {
        ++mismatches;
        ++report->failed;
      }
    }
    ShutdownWorld(&fresh);
    report->Check("replay_digests", mismatches == 0,
                  std::to_string(witness.size() - mismatches) + "/" +
                      std::to_string(witness.size()) +
                      " served streams replayed to the same digest");
  }
  world.core->Shutdown();
  if (!trace) {
    ShutdownWorld(&world);
    return;
  }

  // Layer replay: rebuild the witness requests from the public calls of
  // each layer, as the engine runs them (inputs prevalidated, one shared
  // lease) but without its caches, and require the digest the server
  // sent. Cache effects show in the engine.* metrics instead.
  const PoolLease lease(kServeEngineWorkers);
  ReplayConfig config;
  config.one_shot = false;
  config.lease = &lease;
  size_t mismatches = 0;
  for (const ServedRequest& w : witness) {
    const server::ServerRequest request = ServeRequest(seed, w.stream_id);
    size_t t = 0;
    while (request.tenant != kServeTenants[t]) ++t;
    PgOptions options = request.publish.options;
    options.seed = Rng::ForStream(seed, w.stream_id).Next64();
    Result<PublishedTable> replayed = [&] {
      Scoped root(&report->spans, "op", -1);
      return ReplayPublish(world.datasets[t].table,
                           world.datasets[t].TaxonomyPointers(), options,
                           config, &report->spans, root.id(), report);
    }();
    if (!replayed.ok() ||
        engine::FingerprintPublishedTable(*replayed) != w.digest) {
      ++mismatches;
    }
  }
  report->Check("layer_replay_matches_server", mismatches == 0,
                std::to_string(witness.size() - mismatches) + "/" +
                    std::to_string(witness.size()) +
                    " layer replays reproduced the served digest");
  ShutdownWorld(&world);
}

// ---------------------------------------------------------------------------
// breach_matrix: 4 publishers x 3 adversaries x 4 datasets.

constexpr size_t kMatrixRows = 8000;
constexpr size_t kMatrixSalRows = 40000;
constexpr size_t kMatrixVictims = 120;

struct MatrixWorld {
  CensusDataset census;
  CensusDataset clinic;
  HospitalDataset hospital;
  CensusDataset sal;
  std::optional<ExternalDatabase> census_edb, clinic_edb, sal_edb;
  std::vector<ScenarioDataset> datasets;
  std::vector<std::unique_ptr<Publisher>> publishers;
  std::vector<std::unique_ptr<AdversaryModel>> adversaries;
};

std::unique_ptr<MatrixWorld> BuildMatrixWorld() {
  auto w = std::make_unique<MatrixWorld>();
  w->census = GenerateCensus(kMatrixRows, kTableSeed).ValueOrDie();
  w->clinic = GenerateClinic(kMatrixRows, kTableSeed + 1).ValueOrDie();
  w->hospital = MakeHospitalDataset().ValueOrDie();
  SalOptions sal_options;
  sal_options.num_rows = kMatrixSalRows;
  sal_options.seed = kTableSeed;
  sal_options.num_threads = kWorkers;
  w->sal = GenerateSal(sal_options).ValueOrDie();
  Rng census_rng(kTableSeed + 101);
  w->census_edb = ExternalDatabase::FromMicrodata(
      w->census.table, kMatrixRows / 20, census_rng);
  Rng clinic_rng(kTableSeed + 102);
  w->clinic_edb = ExternalDatabase::FromMicrodata(
      w->clinic.table, kMatrixRows / 20, clinic_rng);
  Rng sal_rng(kTableSeed + 103);
  w->sal_edb = ExternalDatabase::FromMicrodata(
      w->sal.table, kMatrixSalRows / 20, sal_rng);

  auto add = [&](const char* name, const Table* table,
                 std::vector<const Taxonomy*> taxonomies, int sensitive,
                 const ExternalDatabase* edb) {
    ScenarioDataset d;
    d.name = name;
    d.microdata = table;
    d.taxonomies = std::move(taxonomies);
    d.sensitive_attr = sensitive;
    d.edb = edb;
    w->datasets.push_back(std::move(d));
  };
  add("census", &w->census.table, w->census.TaxonomyPointers(),
      CensusColumns::kIncome, &*w->census_edb);
  add("clinic", &w->clinic.table, w->clinic.TaxonomyPointers(),
      ClinicColumns::kDisease, &*w->clinic_edb);
  add("hospital", &w->hospital.table, w->hospital.TaxonomyPointers(),
      HospitalColumns::kDisease, &w->hospital.voter_list);
  add("sal", &w->sal.table, w->sal.TaxonomyPointers(), CensusColumns::kIncome,
      &*w->sal_edb);

  w->publishers.push_back(std::make_unique<PgScenarioPublisher>());
  w->publishers.push_back(std::make_unique<PgScenarioPublisher>(
      PgScenarioPublisher::Pessimistic(4)));
  w->publishers.push_back(
      std::make_unique<CLDiversityScenarioPublisher>(0.5, 3, 4));
  w->publishers.push_back(
      std::make_unique<BetaLikenessScenarioPublisher>(2.0, 4));
  w->adversaries.push_back(std::make_unique<CorruptionLinkingAdversary>());
  w->adversaries.push_back(std::make_unique<WorstCaseBackgroundAdversary>());
  w->adversaries.push_back(std::make_unique<TransparentReplayAdversary>());
  return w;
}

/// FNV-1a over the serialized per-cell results.
uint64_t Fnv1a(const std::string& data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct MatrixPass {
  bool ok = true;
  uint64_t digest = 0;
  uint64_t trials = 0;
};

/// One full matrix pass: publish every (publisher, dataset) release once,
/// then attack every cell, fanned out over `lease` (serial when it holds
/// no pool). With a log, records a span per publish and per cell.
MatrixPass RunMatrixPass(const MatrixWorld& w, uint64_t seed,
                         const PoolLease& lease, SpanLog* log, int parent,
                         Report* report) {
  const size_t P = w.publishers.size();
  const size_t D = w.datasets.size();
  const size_t A = w.adversaries.size();
  ScenarioOptions base;
  base.harness.num_victims = kMatrixVictims;
  base.harness.corruption_rate = 0.5;
  base.harness.lambda = 0.1;
  base.harness.rho1 = 0.2;
  base.harness.prior_kind = BreachHarnessOptions::PriorKind::kSkewTrue;
  base.harness.pool = lease.get();
  base.publish_threads = lease.num_threads();

  MatrixPass pass;
  std::vector<std::optional<Release>> releases(P * D);
  for (size_t slot = 0; slot < P * D; ++slot) {
    Scoped span(log, "attack.publish", parent);
    ScenarioOptions options = base;
    options.publish_seed = ScenarioCellSeed(seed, 0x9000 + slot);
    Result<Release> release =
        w.publishers[slot / D]->Publish(w.datasets[slot % D], options, nullptr);
    if (release.ok()) {
      releases[slot] = std::move(*release);
    } else {
      pass.ok = false;
    }
  }

  const size_t num_cells = P * D * A;
  std::vector<std::optional<BreachStats>> cells(num_cells);
  std::vector<std::pair<uint64_t, uint64_t>> cell_ns(num_cells);
  const uint64_t phase_t0 = NowNs();
  const Status fanned = ParallelFor(
      lease.get(), IndexRange(0, num_cells), /*grain=*/1,
      [&](size_t begin, size_t end) -> Status {
        for (size_t cell = begin; cell < end; ++cell) {
          const size_t slot = cell / A;
          if (!releases[slot].has_value()) continue;
          const uint64_t t0 = NowNs();
          ScenarioOptions options = base;
          options.harness.seed = ScenarioCellSeed(seed, cell);
          Result<BreachStats> stats = BreachScenario::RunOnRelease(
              *releases[slot], *w.adversaries[cell % A],
              w.datasets[slot % D], options);
          if (stats.ok()) cells[cell] = std::move(*stats);
          cell_ns[cell] = {t0, NowNs()};
        }
        return Status::OK();
      });
  const uint64_t phase_t1 = NowNs();
  pass.ok &= fanned.ok();
  if (log != nullptr) {
    const int phase = log->Add("attack.cells", parent, phase_t0, phase_t1);
    for (const auto& [t0, t1] : cell_ns) {
      if (t1 != 0) log->Add("attack.cell", phase, t0, t1);
      report->samples["attack.cell_ms"].push_back(MsBetween(t0, t1));
    }
  }

  JsonValue rows = JsonValue::Array();
  for (size_t cell = 0; cell < num_cells; ++cell) {
    JsonValue row = JsonValue::Object();
    if (!cells[cell].has_value()) {
      pass.ok = false;
      row.Set("ok", false);
      rows.Append(std::move(row));
      continue;
    }
    const BreachStats& s = *cells[cell];
    pass.trials += s.attacks;
    row.Set("publisher", s.publisher);
    row.Set("adversary", s.adversary);
    row.Set("dataset", s.dataset);
    row.Set("attacks", static_cast<uint64_t>(s.attacks));
    row.Set("breached_attacks", static_cast<uint64_t>(s.breached_attacks));
    row.Set("delta_breaches", static_cast<uint64_t>(s.delta_breaches));
    row.Set("rho_breaches", static_cast<uint64_t>(s.rho_breaches));
    row.Set("max_growth", s.max_growth);
    row.Set("mean_growth", s.mean_growth);
    row.Set("max_posterior_rho1", s.max_posterior_rho1);
    row.Set("max_h", s.max_h);
    rows.Append(std::move(row));
  }
  pass.digest = Fnv1a(rows.Dump());
  if (log != nullptr) {
    report->per_op["attack.trials"] += static_cast<double>(pass.trials);
    report->samples["attack.trials_per_s"].push_back(
        static_cast<double>(pass.trials) /
        (static_cast<double>(phase_t1 - phase_t0) / 1e9));
  }
  return pass;
}

void RunBreach(uint64_t seed, double seconds, bool trace, Report* report) {
  constexpr int kSetupReps = 3;
  const PoolLease lease(kWorkers);
  std::unique_ptr<MatrixWorld> world;
  std::optional<MatrixPass> warm;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    world.reset();
    const uint64_t t0 = NowNs();
    world = BuildMatrixWorld();
    report->datagen_ms.push_back(MsBetween(t0, NowNs()));
    warm = RunMatrixPass(*world, seed, lease, nullptr, -1, report);
    report->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  report->warmup_ops = 1;

  // The reference: the same matrix recomputed serially, after the timed
  // window so it costs neither set-up nor latency.
  std::vector<MatrixPass> passes;
  std::optional<RegistryWindow> window;
  if (!trace) {
    TimedWindow(seconds, 3, report, [&](size_t) {
      const uint64_t t0 = NowNs();
      passes.push_back(RunMatrixPass(*world, seed, lease, nullptr, -1, report));
      report->latency_ms.push_back(MsBetween(t0, NowNs()));
    });
  } else {
    window.emplace();
    TimedWindow(seconds, 1, report, [&](size_t) {
      uint64_t t0 = NowNs();
      passes.push_back(RunMatrixPass(*world, seed, lease, nullptr, -1, report));
      report->latency_ms.push_back(MsBetween(t0, NowNs()));
      t0 = NowNs();
      {
        Scoped root(&report->spans, "op", -1);
        passes.push_back(RunMatrixPass(*world, seed, lease, &report->spans,
                                       root.id(), report));
      }
      report->traced_latency_ms.push_back(MsBetween(t0, NowNs()));
    });
    window->Close();
    CollectLayerCounters(*window, passes.size(), report);
  }

  const PoolLease serial(1);
  const MatrixPass reference =
      RunMatrixPass(*world, seed, serial, nullptr, -1, report);
  report->Check("serial_reference_ok", reference.ok,
                "every cell of the serial recomputation published and ran");
  report->Check("warmup_matches_serial",
                warm->ok && warm->digest == reference.digest,
                "warm-up pass digest equals the serial recomputation");
  for (const MatrixPass& pass : passes) {
    report->CountOp(pass.ok && pass.digest == reference.digest);
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, reference.digest);
  report->facts.Set("matrix_digest", std::string(hex));
  report->facts.Set("cells_per_pass",
                    static_cast<uint64_t>(world->publishers.size() *
                                          world->datasets.size() *
                                          world->adversaries.size()));
}

// ---------------------------------------------------------------------------

JsonValue MapToJson(const std::map<std::string, double>& m) {
  JsonValue out = JsonValue::Object();
  for (const auto& [k, v] : m) out.Set(k, v);
  return out;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else {
      std::fprintf(stderr, "perfbench_driver: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!(seconds > 0.0)) {
    std::fprintf(stderr, "perfbench_driver: --seconds must be > 0\n");
    return 2;
  }

  Report report;
  if (workload == "sal700k_tds_cold") {
    RunCold({700000, PgOptions::Generalizer::kTds, /*seed_cycle=*/1,
             /*setup_reps=*/3, /*warmup_ops=*/1, /*verify_every_op=*/false},
            seed, seconds, trace, &report);
  } else if (workload == "sal20k_incognito_cold") {
    RunCold({20000, PgOptions::Generalizer::kIncognito, /*seed_cycle=*/4,
             /*setup_reps=*/3, /*warmup_ops=*/2, /*verify_every_op=*/true},
            seed, seconds, trace, &report);
  } else if (workload == "serve_closed_loop") {
    RunServe(seed, seconds, trace, &report);
  } else if (workload == "breach_matrix") {
    RunBreach(seed, seconds, trace, &report);
  } else {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  // Read before the result is serialized: the JSON copy of a served
  // run's ~8k latencies would otherwise count as the workload's memory.
  const uint64_t peak_rss_kb = PeakRssKb();

  JsonValue out = JsonValue::Object();
  out.Set("workload", workload);
  out.Set("seed", seed);
  out.Set("trace", trace);
  JsonValue identity = JsonValue::Object();
  identity.Set("build_type", PERFBENCH_BUILD_TYPE);
  identity.Set("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  identity.Set("hardware_threads", ThreadPool::DefaultNumThreads());
  identity.Set("workers", report.workers);
  identity.Set("phase2",
               columnar::ResolvePhase2Impl(columnar::Phase2Impl::kAuto) ==
                       columnar::Phase2Impl::kColumnar
                   ? "columnar"
                   : "rowwise");
  out.Set("identity", std::move(identity));
  out.Set("warmup_ops", report.warmup_ops);
  out.Set("setup_s", DoubleArray(report.setup_s));
  out.Set("datagen_ms", DoubleArray(report.datagen_ms));
  out.Set("latency_ms", DoubleArray(report.latency_ms));
  out.Set("attempted", report.attempted);
  out.Set("failed", report.failed);
  out.Set("wall_s", report.wall_s);
  out.Set("cpu_s", report.cpu_s);
  out.Set("peak_rss_kb", peak_rss_kb);
  out.Set("checks", std::move(report.checks));
  out.Set("correct", report.all_checks_ok);
  out.Set("facts", std::move(report.facts));
  if (trace) {
    JsonValue traced = JsonValue::Object();
    traced.Set("latency_ms", DoubleArray(report.traced_latency_ms));
    traced.Set("spans", report.spans.ToJson());
    JsonValue samples = JsonValue::Object();
    for (const auto& [k, v] : report.samples) samples.Set(k, DoubleArray(v));
    traced.Set("samples", std::move(samples));
    traced.Set("per_op", MapToJson(report.per_op));
    traced.Set("values", MapToJson(report.values));
    traced.Set("histograms", std::move(report.histograms));
    out.Set("traced", std::move(traced));
  }
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace pgpub::perfbench

int main(int argc, char** argv) { return pgpub::perfbench::Main(argc, argv); }
