#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync/lock_ranks.h"
#include "common/sync/mutex.h"
#include "engine/publication_engine.h"
#include "server/clock.h"
#include "server/tenant_registry.h"

namespace pgpub::server {

/// Overload and lifecycle policy of a ServerCore.
struct ServerOptions {
  /// Bound of the async request queue. Admission control: a Submit that
  /// finds the queue full is rejected synchronously with
  /// ResourceExhausted — requests are never silently dropped and never
  /// buffered unboundedly.
  size_t queue_capacity = 1024;

  /// Master seed of the serving batch. Request `stream_id` i publishes
  /// with seed Rng::ForStream(batch_seed, i), so a response's bytes are a
  /// pure function of (tenant dataset, request options, batch_seed,
  /// stream_id) — independent of arrival interleaving, queue order and
  /// worker count.
  uint64_t batch_seed = 0x5eed;

  /// What happens to requests still queued when Shutdown begins.
  enum class DrainPolicy {
    kFinish,  ///< Serve them (deadline permitting) before exiting.
    kReject,  ///< Answer each with Unavailable (expired ones with
              ///< DeadlineExceeded). Still one response per request.
  };
  DrainPolicy drain_policy = DrainPolicy::kFinish;

  /// Latency budget for the slow-request log, in milliseconds; 0 disables
  /// it. A served request whose admission-to-response latency exceeds the
  /// budget emits one WARN `server.slow_request` event carrying the
  /// request's full span tree and its cache delta, so a single outlier is
  /// diagnosable from the log alone.
  double slow_request_budget_ms = 0.0;

  [[nodiscard]] Status Validate() const;
};

/// One serving request against a registered tenant.
struct ServerRequest {
  std::string tenant;

  /// Publish options. `publish.options.seed` is ignored — the server
  /// derives the seed from (batch_seed, stream_id); `publish.deadline_nanos`
  /// is overwritten from `deadline_nanos` below.
  engine::PublishRequest publish;

  /// Seed identity of this request (see ServerOptions::batch_seed).
  /// Distinct concurrent requests should use distinct stream ids; reusing
  /// an id deliberately reproduces a previous response bit-for-bit.
  uint64_t stream_id = 0;

  /// Absolute deadline on the server clock, in nanoseconds (0 = none).
  /// Expired requests are swept and answered DeadlineExceeded before any
  /// publish work runs; the engine re-checks the same deadline between
  /// phases via PublishHooks.
  uint64_t deadline_nanos = 0;
};

/// The answer every admitted request eventually receives — exactly once,
/// even across overload, breaker trips and shutdown.
struct ServerResponse {
  Status status;
  std::string tenant;
  uint64_t stream_id = 0;
  /// FingerprintPublishedTable of the release; 0 unless status is OK.
  uint64_t digest = 0;
  size_t rows = 0;
  double retention_p = 0.0;
  int k = 0;
  double queue_ms = 0.0;    ///< Admission -> reply, includes publish_ms.
  double publish_ms = 0.0;  ///< Engine time (0 for swept requests).
};

using ResponseCallback = std::function<void(ServerResponse)>;

/// \brief pgpubd's overload-safe serving core (DESIGN.md §12).
///
/// A bounded async queue feeds one dispatcher thread that schedules
/// deterministic publications across the tenant registry:
///
///   - Admission control: Submit is non-blocking and fail-closed. Queue
///     full → ResourceExhausted; unknown tenant → NotFound; tenant quota
///     full → ResourceExhausted; expired deadline → DeadlineExceeded;
///     draining → Unavailable. A rejected request never enters the queue
///     and its callback is never invoked (the typed Status *is* the
///     answer).
///   - Deadline sweep + EDF: each dispatch round first answers expired
///     requests with DeadlineExceeded (they must not waste Phase-2 work),
///     then serves the rest strictest-deadline-first (ties broken by
///     admission order, so scheduling is deterministic).
///   - Circuit breaker: per-tenant; open → fast-fail that tenant with
///     Unavailable while other tenants are unaffected.
///   - Graceful drain: Shutdown() stops admission and then finishes or
///     rejects (per DrainPolicy) every queued request before returning.
///     Nothing vanishes: every admitted request gets exactly one
///     response.
///
/// Fail-closed invariant: a response with a non-OK status carries no
/// table bytes, and a response with an OK status carries the digest of a
/// fully audited release (the tenant engines serve through
/// RobustPublisher with audits on). Overload can only change *whether* a
/// request is served, never *what* is published: response bytes are a
/// pure function of (tenant dataset, options, batch_seed, stream_id).
class ServerCore {
 public:
  /// `registry` must outlive the core and is not mutated structurally
  /// while serving (register tenants first). `clock` null = steady clock.
  ServerCore(TenantRegistry* registry, ServerOptions options,
             const ServerClock* clock = nullptr);
  ~ServerCore();

  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  /// Spawns the dispatcher. Must be called before Submit.
  [[nodiscard]] Status Start() PGPUB_EXCLUDES(mu_);

  /// Admission-controlled enqueue; never blocks on the queue. OK means
  /// `done` will be invoked exactly once (possibly during Shutdown); a
  /// non-OK return IS the final answer and `done` will never run.
  [[nodiscard]] Status Submit(ServerRequest request, ResponseCallback done)
      PGPUB_EXCLUDES(mu_);

  /// Stops admission, drains the queue per DrainPolicy, joins the
  /// dispatcher. Idempotent; safe to call without Start.
  void Shutdown() PGPUB_EXCLUDES(mu_);

  bool draining() const PGPUB_EXCLUDES(mu_);
  size_t queued() const PGPUB_EXCLUDES(mu_);

  /// One coherent liveness view, taken under a single lock acquisition —
  /// a HEALTH reply can never pair a draining flag from one instant with
  /// a queue depth from another (separate draining() + queued() calls
  /// could interleave with the dispatcher between them).
  struct HealthSnapshot {
    bool draining = false;
    size_t queued = 0;
  };
  HealthSnapshot SnapshotHealth() const PGPUB_EXCLUDES(mu_);

  /// Monotonic serving counters (also exported as `server.*` metrics).
  struct Stats {
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t rejected_full = 0;
    uint64_t rejected_quota = 0;
    uint64_t rejected_deadline = 0;  ///< Swept or admission-expired.
    uint64_t rejected_unknown_tenant = 0;
    uint64_t rejected_draining = 0;
    uint64_t rejected_admit_fault = 0;  ///< server.admit_fail failpoint.
    uint64_t breaker_open = 0;  ///< Fast-fails while a breaker was open.
    uint64_t queue_corrupt = 0; ///< server.queue_corrupt failpoint.
    uint64_t completed = 0;     ///< Served with an OK, audited release.
    uint64_t failed = 0;        ///< Dispatched but engine returned non-OK.
    uint64_t drained = 0;       ///< Answered after Shutdown began.
  };
  Stats stats() const PGPUB_EXCLUDES(mu_);

  /// Point-in-time view of one tenant's serving state, read under the
  /// core lock so it is coherent with the dispatcher.
  struct TenantSnapshot {
    std::string key;
    size_t queued = 0;
    uint64_t served = 0;
    uint64_t failed = 0;
    const char* breaker_state = "closed";
    uint64_t breaker_remaining_open_ms = 0;
  };
  std::vector<TenantSnapshot> SnapshotTenants() const PGPUB_EXCLUDES(mu_);

  const TenantRegistry& registry() const { return *registry_; }
  const ServerOptions& options() const { return options_; }
  // Accessor for the injected ServerClock, not a libc clock() read;
  // determinism is owned by the clock instance. pgpub-lint: allow(L4)
  const ServerClock* clock() const { return clock_; }

 private:
  struct Item {
    ServerRequest request;
    ResponseCallback done;
    Tenant* tenant = nullptr;
    uint64_t admit_seq = 0;
    uint64_t enqueued_nanos = 0;
    /// Trace identity assigned at admission: every span of this request —
    /// queue wait, dispatch, engine and publish phases — links under one
    /// root "server.request" span with these ids (recorded in Respond).
    uint64_t trace_id = 0;
    uint64_t root_span_id = 0;
    /// Admission instant on the *tracer* clock (enqueued_nanos is on the
    /// server clock; the two may tick differently under a manual clock).
    uint64_t trace_enqueued_ns = 0;
  };

  void DispatcherLoop() PGPUB_EXCLUDES(mu_);
  /// Serves or rejects one dequeued item; invoked on the dispatcher.
  void Process(Item& item, bool draining_now) PGPUB_EXCLUDES(mu_);
  void Respond(Item& item, ServerResponse response) PGPUB_EXCLUDES(mu_);
  ServerResponse MakeResponse(const Item& item, Status status) const;
  /// The admission decision proper — every early-out keeps the caller's
  /// one lock scope intact; Submit wraps it and notifies outside mu_. On
  /// success the admitted request's trace identity is returned through
  /// the out-params (0 on rejection) so Submit can record the admission
  /// span outside the lock.
  [[nodiscard]] Status AdmitLocked(ServerRequest request,
                                   ResponseCallback done, uint64_t* trace_id,
                                   uint64_t* root_span_id)
      PGPUB_REQUIRES(mu_);

  // Immutable after construction — needs no guard.
  TenantRegistry* const registry_;
  const ServerOptions options_;
  const ServerClock* const clock_;

  mutable Mutex mu_{"server.core", lock_rank::kServerCore};
  CondVar work_cv_;
  std::deque<Item> queue_ PGPUB_GUARDED_BY(mu_);
  bool started_ PGPUB_GUARDED_BY(mu_) = false;
  bool draining_ PGPUB_GUARDED_BY(mu_) = false;
  bool dispatcher_exited_ PGPUB_GUARDED_BY(mu_) = false;
  uint64_t next_admit_seq_ PGPUB_GUARDED_BY(mu_) = 0;
  Stats stats_ PGPUB_GUARDED_BY(mu_);
  // Assigned once under mu_ in Start; joined in Shutdown with mu_
  // released (joining under the lock would deadlock against the
  // dispatcher's own acquisitions). pgpub-lint: allow(L9)
  std::thread dispatcher_;  // pgpub-lint: allow(thread)
};

}  // namespace pgpub::server
