/// \file server_test.cc
/// pgpubd serving-core tests (DESIGN.md §12): fail-closed registry
/// lookup, admission control and quotas, deadline sweeps on a manual
/// clock, response timing on a ticking clock, EDF scheduling, drain completeness, circuit-breaker
/// transitions (unit, with a fake clock, and end-to-end through a tenant
/// whose engine is broken by a failpoint), response-byte determinism
/// across submission order and engine thread count, and the text
/// control endpoint — both HandleCommand directly and over a real TCP
/// socket.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "datagen/clinic.h"
#include "server/circuit_breaker.h"
#include "server/clock.h"
#include "server/health_endpoint.h"
#include "server/server_core.h"
#include "server/tenant_registry.h"

namespace pgpub {
namespace {

using server::CircuitBreaker;
using server::CircuitBreakerOptions;
using server::HealthEndpoint;
using server::kNanosPerMilli;
using server::ManualClock;
using server::ServerClock;
using server::ServerCore;
using server::ServerOptions;
using server::ServerRequest;
using server::ServerResponse;
using server::TenantOptions;
using server::TenantRegistry;

// ------------------------------------------------------------- helpers

/// Thread-safe response sink with blocking waits.
struct Collector {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<ServerResponse> responses;

  server::ResponseCallback Cb() {
    return [this](ServerResponse r) {
      std::lock_guard<std::mutex> lock(mu);
      responses.push_back(std::move(r));
      cv.notify_all();
    };
  }
  void WaitFor(size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return responses.size() >= n; });
  }
  size_t size() {
    std::lock_guard<std::mutex> lock(mu);
    return responses.size();
  }
  ServerResponse at(size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    return responses[i];
  }
};

/// Advances one millisecond on every read, so each interval the server
/// times is positive and grows with the reads made inside it.
class TickingClock final : public ServerClock {
 public:
  uint64_t NowNanos() const override {
    return nanos_.fetch_add(kNanosPerMilli, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<uint64_t> nanos_{1000 * kNanosPerMilli};
};

struct TenantSpec {
  std::string key;
  uint64_t seed = 1;
  TenantOptions options;
};

std::unique_ptr<TenantRegistry> MakeRegistry(
    const ServerClock* clock, const std::vector<TenantSpec>& specs) {
  auto registry = std::make_unique<TenantRegistry>(clock);
  for (const TenantSpec& spec : specs) {
    CensusDataset data = GenerateClinic(400, spec.seed).ValueOrDie();
    TenantOptions options = spec.options;
    if (options.engine.num_threads == 0) options.engine.num_threads = 1;
    Status added =
        registry->AddTenant(spec.key, std::move(data.table),
                            std::move(data.taxonomies), std::move(options));
    EXPECT_TRUE(added.ok()) << added.ToString();
  }
  return registry;
}

ServerRequest Req(const std::string& tenant, uint64_t stream, int k = 4,
                  double p = 0.5, uint64_t deadline_nanos = 0) {
  ServerRequest request;
  request.tenant = tenant;
  request.stream_id = stream;
  request.publish.options.k = k;
  request.publish.options.p = p;
  request.deadline_nanos = deadline_nanos;
  return request;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Global().DisableAll(); }
  void TearDown() override { FailpointRegistry::Global().DisableAll(); }
};

// ----------------------------------------------------- registry contract

TEST_F(ServerTest, RegistryLookupFailsClosedOnUnknownTenant) {
  auto registry = MakeRegistry(nullptr, {{"alpha", 1, {}}});
  EXPECT_TRUE(registry->Lookup("alpha").ok());
  Result<server::Tenant*> missing = registry->Lookup("beta");
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status().ToString();
}

TEST_F(ServerTest, RegistryRejectsDuplicateKeys) {
  auto registry = MakeRegistry(nullptr, {{"alpha", 1, {}}});
  CensusDataset data = GenerateClinic(400, 9).ValueOrDie();
  Status dup = registry->AddTenant("alpha", std::move(data.table),
                                   std::move(data.taxonomies));
  EXPECT_TRUE(dup.IsAlreadyExists()) << dup.ToString();
  EXPECT_EQ(registry->size(), 1u);
}

TEST_F(ServerTest, RegistryValidatesTenantOptionsBeforeHosting) {
  TenantRegistry registry(nullptr);
  CensusDataset data = GenerateClinic(400, 9).ValueOrDie();
  TenantOptions options;
  options.breaker.failure_threshold = 0;  // invalid
  Status st = registry.AddTenant("bad", std::move(data.table),
                                 std::move(data.taxonomies), options);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_EQ(registry.size(), 0u);  // fail-closed: no half-registered tenant
}

TEST_F(ServerTest, SubmitToUnknownTenantIsNotFound) {
  auto registry = MakeRegistry(nullptr, {{"alpha", 1, {}}});
  ServerCore core(registry.get(), ServerOptions{});
  ASSERT_TRUE(core.Start().ok());
  Collector col;
  Status st = core.Submit(Req("ghost", 1), col.Cb());
  EXPECT_TRUE(st.IsNotFound()) << st.ToString();
  core.Shutdown();
  EXPECT_EQ(col.size(), 0u);  // rejected => callback never runs
  EXPECT_EQ(core.stats().rejected_unknown_tenant, 1u);
}

// -------------------------------------------------------- admission control

TEST_F(ServerTest, OverloadRejectsWithResourceExhaustedAndNothingVanishes) {
  auto registry = MakeRegistry(nullptr, {{"alpha", 1, {}}, {"beta", 2, {}}});
  ServerOptions options;
  options.queue_capacity = 2;
  ServerCore core(registry.get(), options);
  ASSERT_TRUE(core.Start().ok());

  Collector col;
  const int total = 200;
  int admitted = 0;
  int rejected_full = 0;
  for (int i = 0; i < total; ++i) {
    Status st =
        core.Submit(Req(i % 2 == 0 ? "alpha" : "beta", 100 + i), col.Cb());
    if (st.ok()) {
      ++admitted;
    } else {
      ASSERT_TRUE(st.IsResourceExhausted()) << st.ToString();
      ++rejected_full;
    }
  }
  core.Shutdown();

  // The tiny queue cannot absorb 200 instant submissions.
  EXPECT_GT(rejected_full, 0);
  EXPECT_EQ(admitted + rejected_full, total);
  // Exactly-once completeness: every admitted request was answered.
  EXPECT_EQ(col.size(), static_cast<size_t>(admitted));
  const ServerCore::Stats stats = core.stats();
  EXPECT_EQ(stats.admitted, static_cast<uint64_t>(admitted));
  EXPECT_EQ(stats.rejected_full, static_cast<uint64_t>(rejected_full));
  EXPECT_EQ(stats.completed + stats.failed + stats.rejected_deadline,
            stats.admitted);
}

TEST_F(ServerTest, TenantQuotaRejectsWithoutStarvingOthers) {
  TenantSpec limited{"alpha", 1, {}};
  limited.options.max_queued = 1;
  auto registry = MakeRegistry(nullptr, {limited, {"beta", 2, {}}});
  ServerCore core(registry.get(), ServerOptions{});
  ASSERT_TRUE(core.Start().ok());

  Collector col;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_done = false;
  Status quota_status = Status::OK();
  Status beta_status = Status::OK();
  // The gate callback runs on the dispatcher thread, so everything it
  // submits stays queued until it returns — deterministic queue state.
  Status blocker = core.Submit(Req("alpha", 1), [&](ServerResponse) {
    (void)core.Submit(Req("alpha", 2), col.Cb());      // fills the quota
    quota_status = core.Submit(Req("alpha", 3), col.Cb());  // over quota
    beta_status = core.Submit(Req("beta", 4), col.Cb());    // other tenant
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_done = true;
    gate_cv.notify_one();
  });
  ASSERT_TRUE(blocker.ok());
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_done; });
  }
  core.Shutdown();

  EXPECT_TRUE(quota_status.IsResourceExhausted())
      << quota_status.ToString();
  EXPECT_TRUE(beta_status.ok()) << beta_status.ToString();
  EXPECT_EQ(core.stats().rejected_quota, 1u);
  EXPECT_EQ(col.size(), 2u);  // alpha#2 and beta#4 both served
}

TEST_F(ServerTest, SubmitAfterShutdownIsUnavailable) {
  auto registry = MakeRegistry(nullptr, {{"alpha", 1, {}}});
  ServerCore core(registry.get(), ServerOptions{});
  ASSERT_TRUE(core.Start().ok());
  core.Shutdown();
  Collector col;
  Status st = core.Submit(Req("alpha", 1), col.Cb());
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_EQ(core.stats().rejected_draining, 1u);
}

// ------------------------------------------------------------- deadlines

TEST_F(ServerTest, ExpiredDeadlineIsRejectedAtAdmission) {
  ManualClock clock(1000 * kNanosPerMilli);
  auto registry = MakeRegistry(&clock, {{"alpha", 1, {}}});
  ServerCore core(registry.get(), ServerOptions{}, &clock);
  ASSERT_TRUE(core.Start().ok());
  Collector col;
  Status st = core.Submit(
      Req("alpha", 1, 4, 0.5, /*deadline=*/500 * kNanosPerMilli), col.Cb());
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  core.Shutdown();
  EXPECT_EQ(col.size(), 0u);
  EXPECT_EQ(core.stats().rejected_deadline, 1u);
}

TEST_F(ServerTest, QueuedRequestIsSweptWhenDeadlinePasses) {
  ManualClock clock(1000 * kNanosPerMilli);
  auto registry = MakeRegistry(&clock, {{"alpha", 1, {}}});
  ServerCore core(registry.get(), ServerOptions{}, &clock);
  ASSERT_TRUE(core.Start().ok());

  Collector col;
  // From the dispatcher thread: enqueue a request with a 5ms budget,
  // then advance the clock past it before the dispatcher can dequeue.
  Status blocker = core.Submit(Req("alpha", 1), [&](ServerResponse) {
    const uint64_t deadline = clock.NowNanos() + 5 * kNanosPerMilli;
    Status st = core.Submit(Req("alpha", 2, 4, 0.5, deadline), col.Cb());
    EXPECT_TRUE(st.ok()) << st.ToString();
    clock.AdvanceMillis(10);
  });
  ASSERT_TRUE(blocker.ok());
  col.WaitFor(1);
  core.Shutdown();

  ASSERT_EQ(col.size(), 1u);
  const ServerResponse swept = col.at(0);
  EXPECT_TRUE(swept.status.IsDeadlineExceeded()) << swept.status.ToString();
  EXPECT_EQ(swept.digest, 0u);          // no table bytes ride along
  EXPECT_EQ(swept.publish_ms, 0.0);     // swept before any publish work
  EXPECT_GE(core.stats().rejected_deadline, 1u);
}

TEST_F(ServerTest, QueueTimeSpansAdmissionToReplyIncludingPublish) {
  // queue_ms is stamped when the reply is built, after the publish, so
  // it already contains publish_ms; latency consumers read it alone.
  TickingClock clock;
  auto registry = MakeRegistry(&clock, {{"alpha", 1, {}}});
  ServerCore core(registry.get(), ServerOptions{}, &clock);
  ASSERT_TRUE(core.Start().ok());
  Collector col;
  ASSERT_TRUE(core.Submit(Req("alpha", 1), col.Cb()).ok());
  col.WaitFor(1);
  core.Shutdown();

  const ServerResponse served = col.at(0);
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  EXPECT_GT(served.publish_ms, 0.0);
  EXPECT_GE(served.queue_ms, served.publish_ms);
}

TEST_F(ServerTest, StrictestDeadlineIsServedFirst) {
  ManualClock clock(1000 * kNanosPerMilli);
  auto registry = MakeRegistry(&clock, {{"alpha", 1, {}}});
  ServerCore core(registry.get(), ServerOptions{}, &clock);
  ASSERT_TRUE(core.Start().ok());

  const uint64_t now = clock.NowNanos();
  const uint64_t sec = 1000 * kNanosPerMilli;
  Collector col;
  // Enqueued from the dispatcher thread in the order loose, strict,
  // middle, none — one batch, so serving order is pure EDF.
  Status blocker = core.Submit(Req("alpha", 1), [&](ServerResponse) {
    EXPECT_TRUE(
        core.Submit(Req("alpha", 30, 4, 0.5, now + 300 * sec), col.Cb())
            .ok());
    EXPECT_TRUE(
        core.Submit(Req("alpha", 10, 4, 0.5, now + 100 * sec), col.Cb())
            .ok());
    EXPECT_TRUE(
        core.Submit(Req("alpha", 20, 4, 0.5, now + 200 * sec), col.Cb())
            .ok());
    EXPECT_TRUE(core.Submit(Req("alpha", 40), col.Cb()).ok());
  });
  ASSERT_TRUE(blocker.ok());
  col.WaitFor(4);
  core.Shutdown();

  ASSERT_EQ(col.size(), 4u);
  EXPECT_EQ(col.at(0).stream_id, 10u);
  EXPECT_EQ(col.at(1).stream_id, 20u);
  EXPECT_EQ(col.at(2).stream_id, 30u);
  EXPECT_EQ(col.at(3).stream_id, 40u);  // no deadline sorts last
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(col.at(i).status.ok()) << col.at(i).status.ToString();
  }
}

// ----------------------------------------------------------------- drain

TEST_F(ServerTest, DrainFinishAnswersEveryQueuedRequest) {
  auto registry = MakeRegistry(nullptr, {{"alpha", 1, {}}, {"beta", 2, {}}});
  ServerOptions options;
  options.queue_capacity = 64;
  ServerCore core(registry.get(), options);
  ASSERT_TRUE(core.Start().ok());

  Collector col;
  int admitted = 0;
  for (int i = 0; i < 12; ++i) {
    if (core.Submit(Req(i % 2 == 0 ? "alpha" : "beta", 200 + i), col.Cb())
            .ok()) {
      ++admitted;
    }
  }
  core.Shutdown();
  EXPECT_EQ(col.size(), static_cast<size_t>(admitted));
  for (size_t i = 0; i < col.size(); ++i) {
    EXPECT_TRUE(col.at(i).status.ok()) << col.at(i).status.ToString();
    EXPECT_NE(col.at(i).digest, 0u);
  }
}

TEST_F(ServerTest, DrainRejectStillAnswersEveryQueuedRequest) {
  auto registry = MakeRegistry(nullptr, {{"alpha", 1, {}}});
  ServerOptions options;
  options.queue_capacity = 64;
  options.drain_policy = ServerOptions::DrainPolicy::kReject;
  ServerCore core(registry.get(), options);
  ASSERT_TRUE(core.Start().ok());

  Collector col;
  int admitted = 0;
  for (int i = 0; i < 12; ++i) {
    if (core.Submit(Req("alpha", 300 + i), col.Cb()).ok()) ++admitted;
  }
  core.Shutdown();  // immediate drain; most requests still queued

  EXPECT_EQ(col.size(), static_cast<size_t>(admitted));
  for (size_t i = 0; i < col.size(); ++i) {
    const Status& st = col.at(i).status;
    // Served before the drain began, or rejected by the drain policy —
    // never silently dropped.
    EXPECT_TRUE(st.ok() || st.IsUnavailable()) << st.ToString();
  }
}

// ----------------------------------------------------------- determinism

/// Serves the same six-request workload and returns stream -> digest.
std::map<uint64_t, uint64_t> ServeWorkload(
    int engine_threads, const std::vector<uint64_t>& order) {
  TenantSpec alpha{"alpha", 1, {}};
  TenantSpec beta{"beta", 2, {}};
  alpha.options.engine.num_threads = engine_threads;
  beta.options.engine.num_threads = engine_threads;
  auto registry = MakeRegistry(nullptr, {alpha, beta});
  ServerOptions options;
  options.queue_capacity = 64;
  options.batch_seed = 0xfeed;
  ServerCore core(registry.get(), options);
  EXPECT_TRUE(core.Start().ok());
  Collector col;
  for (const uint64_t stream : order) {
    // Tenant and options are pure functions of the stream id.
    Status st = core.Submit(Req(stream % 2 == 0 ? "alpha" : "beta", stream,
                                stream % 3 == 0 ? 2 : 4,
                                stream % 5 == 0 ? 0.4 : 0.7),
                            col.Cb());
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  core.Shutdown();
  std::map<uint64_t, uint64_t> digests;
  for (size_t i = 0; i < col.size(); ++i) {
    ServerResponse r = col.at(i);
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    digests[r.stream_id] = r.digest;
  }
  return digests;
}

TEST_F(ServerTest, ResponseBytesIndependentOfSubmitOrderAndThreadCount) {
  const std::vector<uint64_t> forward = {3, 4, 5, 6, 9, 10};
  const std::vector<uint64_t> reversed = {10, 9, 6, 5, 4, 3};
  const std::map<uint64_t, uint64_t> base = ServeWorkload(1, forward);
  ASSERT_EQ(base.size(), forward.size());
  // Same workload, reversed arrival order: byte-identical responses.
  EXPECT_EQ(ServeWorkload(1, reversed), base);
  // Same workload, 4 engine worker threads: byte-identical responses.
  EXPECT_EQ(ServeWorkload(4, forward), base);
}

// ------------------------------------------------------- circuit breaker

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresAndBackoffDoubles) {
  ManualClock clock(0);
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  options.open_duration_nanos = 100;
  options.backoff_multiplier = 2.0;
  options.max_open_duration_nanos = 350;
  ASSERT_TRUE(options.Validate().ok());
  CircuitBreaker breaker(options, &clock);

  // Interleaved success resets the consecutive count.
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  breaker.RecordFailure();
  breaker.RecordSuccess();
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure();  // third consecutive
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(breaker.remaining_open_nanos(), 100u);

  // Window elapses: exactly one probe is let through.
  clock.AdvanceNanos(100);
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.Allow());  // second caller waits for the probe

  // Failed probe reopens with a doubled window.
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.open_window_nanos(), 200u);
  clock.AdvanceNanos(199);
  EXPECT_FALSE(breaker.Allow());
  clock.AdvanceNanos(1);
  ASSERT_TRUE(breaker.Allow());

  // Another failed probe: doubled again but capped at the maximum.
  breaker.RecordFailure();
  EXPECT_EQ(breaker.open_window_nanos(), 350u);

  // A successful probe closes the breaker and forgives the backoff.
  clock.AdvanceNanos(350);
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.open_window_nanos(), 100u);
  EXPECT_TRUE(breaker.Allow());
}

TEST(CircuitBreakerTest, SnapshotIsCoherentWithAccessors) {
  ManualClock clock(0);
  CircuitBreakerOptions options;
  options.failure_threshold = 2;
  options.open_duration_nanos = 100;
  ASSERT_TRUE(options.Validate().ok());
  CircuitBreaker breaker(options, &clock);

  CircuitBreaker::Snapshot snap = breaker.TakeSnapshot();
  EXPECT_EQ(snap.state, CircuitBreaker::State::kClosed);
  EXPECT_EQ(snap.consecutive_failures, 0);
  EXPECT_EQ(snap.remaining_open_nanos, 0u);

  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  snap = breaker.TakeSnapshot();
  EXPECT_EQ(snap.state, CircuitBreaker::State::kClosed);
  EXPECT_EQ(snap.consecutive_failures, 1);

  breaker.RecordFailure();
  clock.AdvanceNanos(40);
  snap = breaker.TakeSnapshot();
  EXPECT_EQ(snap.state, CircuitBreaker::State::kOpen);
  EXPECT_EQ(snap.open_window_nanos, 100u);
  EXPECT_EQ(snap.remaining_open_nanos, 60u);
}

TEST(CircuitBreakerTest, ValidateRejectsDegeneratePolicies) {
  ManualClock clock(0);
  CircuitBreakerOptions options;
  options.failure_threshold = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options = {};
  options.open_duration_nanos = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options = {};
  options.backoff_multiplier = 0.5;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options = {};
  options.max_open_duration_nanos = options.open_duration_nanos - 1;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
}

TEST_F(ServerTest, BreakerFastFailsBrokenTenantOnly) {
  ManualClock clock(1000 * kNanosPerMilli);
  TenantSpec bad{"bad", 1, {}};
  bad.options.breaker.failure_threshold = 2;
  bad.options.engine.robust.max_attempts = 1;
  bad.options.engine.robust.allow_generalizer_fallback = false;
  auto registry = MakeRegistry(&clock, {bad, {"good", 2, {}}});
  ServerCore core(registry.get(), ServerOptions{}, &clock);
  ASSERT_TRUE(core.Start().ok());

  auto serve_one = [&](const std::string& tenant,
                       uint64_t stream) -> Status {
    Collector col;
    Status st = core.Submit(Req(tenant, stream), col.Cb());
    if (!st.ok()) return st;
    col.WaitFor(1);
    return col.at(0).status;
  };

  // Break the bad tenant's engine: every publish attempt faults.
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Enable(failpoints::kPublishPerturb, "always")
                  .ok());
  EXPECT_TRUE(serve_one("bad", 1).IsInternal());
  EXPECT_TRUE(serve_one("bad", 2).IsInternal());  // threshold reached
  FailpointRegistry::Global().DisableAll();

  // Breaker is now open: fast-fail without touching the (repaired)
  // engine, while the other tenant is unaffected.
  Status fast_failed = serve_one("bad", 3);
  EXPECT_TRUE(fast_failed.IsUnavailable()) << fast_failed.ToString();
  EXPECT_GE(core.stats().breaker_open, 1u);
  EXPECT_TRUE(serve_one("good", 4).ok());

  // After the open window a probe is let through; it succeeds and the
  // breaker closes again.
  clock.AdvanceNanos(bad.options.breaker.open_duration_nanos);
  EXPECT_TRUE(serve_one("bad", 5).ok());
  EXPECT_TRUE(serve_one("bad", 6).ok());
  core.Shutdown();
}

// -------------------------------------------------------- health endpoint

/// Minimal blocking client for the endpoint protocol.
std::string SendCommand(int port, const std::string& line) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  (void)::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
  ::shutdown(fd, SHUT_WR);
  std::string reply;
  char buf[512];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return reply;
}

TEST_F(ServerTest, HealthEndpointHandlesCommands) {
  auto registry = MakeRegistry(nullptr, {{"alpha", 1, {}}});
  ServerCore core(registry.get(), ServerOptions{});
  ASSERT_TRUE(core.Start().ok());
  HealthEndpoint endpoint(&core);

  EXPECT_NE(endpoint.HandleCommand("HEALTH").find("ok draining=0"),
            std::string::npos);
  EXPECT_NE(endpoint.HandleCommand("STATS").find("server.admitted 0"),
            std::string::npos);
  EXPECT_NE(endpoint.HandleCommand("TENANTS")
                .find("tenant alpha queued=0 served=0 failed=0 "
                      "breaker=closed"),
            std::string::npos);
  const std::string published = endpoint.HandleCommand("PUBLISH alpha 7");
  EXPECT_EQ(published.find("ok tenant=alpha stream=7 digest="), 0u)
      << published;
  // Counter values are process-global (other tests may have bumped
  // them), so assert presence rather than an exact count.
  EXPECT_NE(endpoint.HandleCommand("METRICS")
                .find("counter server.completed "),
            std::string::npos);
  EXPECT_EQ(endpoint.HandleCommand("PUBLISH ghost 1")
                .find("err code=NotFound"),
            0u);
  EXPECT_EQ(endpoint.HandleCommand("NOPE").find("err code=InvalidArgument"),
            0u);
  EXPECT_EQ(endpoint.HandleCommand("PUBLISH alpha notanumber")
                .find("err code=InvalidArgument"),
            0u);
  const std::string burst = endpoint.HandleCommand("BURST alpha 3 100");
  EXPECT_EQ(burst.find("admitted="), 0u) << burst;
  core.Shutdown();
}

TEST_F(ServerTest, SnapshotHealthReadsBothFieldsAtOnce) {
  auto registry = MakeRegistry(nullptr, {{"alpha", 1, {}}});
  ServerCore core(registry.get(), ServerOptions{});
  ASSERT_TRUE(core.Start().ok());
  ServerCore::HealthSnapshot health = core.SnapshotHealth();
  EXPECT_FALSE(health.draining);
  EXPECT_EQ(health.queued, 0u);
  core.Shutdown();
  health = core.SnapshotHealth();
  EXPECT_TRUE(health.draining);
  EXPECT_EQ(health.queued, 0u);
}

TEST_F(ServerTest, HealthEndpointServesOverTcp) {
  auto registry = MakeRegistry(nullptr, {{"alpha", 1, {}}});
  ServerCore core(registry.get(), ServerOptions{});
  ASSERT_TRUE(core.Start().ok());
  HealthEndpoint endpoint(&core);
  ASSERT_TRUE(endpoint.Start(0).ok());
  ASSERT_GT(endpoint.bound_port(), 0);

  EXPECT_EQ(SendCommand(endpoint.bound_port(), "HEALTH\n")
                .find("ok draining=0"),
            0u);
  const std::string published =
      SendCommand(endpoint.bound_port(), "PUBLISH alpha 42\n");
  EXPECT_EQ(published.find("ok tenant=alpha stream=42"), 0u) << published;
  const std::string stats = SendCommand(endpoint.bound_port(), "STATS\n");
  EXPECT_NE(stats.find("server.completed 1"), std::string::npos) << stats;

  endpoint.Stop();
  core.Shutdown();
  // The port is released: a second endpoint can bind and serve again.
  HealthEndpoint again(&core);
  ASSERT_TRUE(again.Start(0).ok());
  EXPECT_EQ(SendCommand(again.bound_port(), "HEALTH\n")
                .find("ok draining=1"),
            0u);
  again.Stop();
}

// --------------------------------------------- server options validation

TEST_F(ServerTest, ServerOptionsValidateRejectsZeroCapacity) {
  ServerOptions options;
  options.queue_capacity = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  auto registry = MakeRegistry(nullptr, {{"alpha", 1, {}}});
  ServerCore core(registry.get(), options);
  EXPECT_TRUE(core.Start().IsInvalidArgument());
}

TEST_F(ServerTest, ServerOptionsValidateRejectsNegativeSlowBudget) {
  ServerOptions options;
  options.slow_request_budget_ms = -1.0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
}

// --------------------------------------------- Prometheus exposition

TEST_F(ServerTest, PromVerbServesPerTenantLabeledMetrics) {
  auto registry = MakeRegistry(nullptr, {{"alpha", 1, {}}, {"beta", 2, {}}});
  ServerCore core(registry.get(), ServerOptions{});
  ASSERT_TRUE(core.Start().ok());
  HealthEndpoint endpoint(&core);

  EXPECT_EQ(endpoint.HandleCommand("PUBLISH alpha 3").find("ok tenant=alpha"),
            0u);
  EXPECT_EQ(endpoint.HandleCommand("PUBLISH beta 5").find("ok tenant=beta"),
            0u);

  const std::string prom = endpoint.HandleCommand("PROM");
  // The exposition carries one histogram family with per-tenant labels
  // (one # TYPE line, one series per tenant) plus the request counters.
  EXPECT_NE(prom.find("# TYPE server_latency_us histogram"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("server_latency_us_count{tenant=\"alpha\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("server_latency_us_count{tenant=\"beta\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("server_publish_us_count{tenant=\"alpha\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("server_requests{tenant=\"alpha\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("server_failures{tenant=\"beta\"}"),
            std::string::npos);
  core.Shutdown();
}

}  // namespace
}  // namespace pgpub
