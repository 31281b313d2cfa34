#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace pgpub {
namespace bench {

/// \brief Shared machine-readable artifact writer for the bench harnesses.
///
/// Each bench binary creates one BenchReport at startup, records its
/// parameters and result rows as it goes, and calls WriteAndLog() at exit,
/// which produces `BENCH_<name>.json` (in $PGPUB_BENCH_OUT, or the working
/// directory) with schema_version 1:
///
///   {
///     "schema_version": 1,
///     "name": "table3_guarantees",
///     "params": {"sal_n": 400000, ...},
///     "wall_ns": 123456789,
///     "iterations": 12,
///     "results": [{...}, ...],
///     "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}}
///   }
///
/// `results` rows are experiment-specific; `metrics` is the global
/// MetricsRegistry snapshot, so phase span histograms and pipeline
/// counters ride along with every artifact.
class BenchReport {
 public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)),
        params_(obs::JsonValue::Object()),
        results_(obs::JsonValue::Array()),
        start_(std::chrono::steady_clock::now()) {}

  template <typename T>
  void SetParam(const std::string& key, T value) {
    params_.Set(key, value);
  }

  /// Appends one result row (an arbitrary JSON object) and counts it as
  /// one iteration.
  void AddResult(obs::JsonValue row) {
    results_.Append(std::move(row));
    ++iterations_;
  }

  /// Overrides the iteration count (micro-benchmarks report the summed
  /// per-benchmark iteration counts instead of the row count).
  void SetIterations(uint64_t n) { iterations_ = n; }

  /// Output path: $PGPUB_BENCH_OUT/BENCH_<name>.json, or ./BENCH_<name>.json.
  std::string OutputPath() const {
    std::string dir;
    if (const char* env = std::getenv("PGPUB_BENCH_OUT");
        env != nullptr && *env != '\0') {
      dir = env;
      if (dir.back() != '/') dir += '/';
    }
    return dir + "BENCH_" + name_ + ".json";
  }

  obs::JsonValue ToJson() const {
    const auto wall_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count();
    obs::JsonValue doc = obs::JsonValue::Object();
    doc.Set("schema_version", 1);
    doc.Set("name", name_);
    doc.Set("params", params_);
    doc.Set("wall_ns", static_cast<uint64_t>(wall_ns));
    doc.Set("iterations", iterations_);
    doc.Set("results", results_);
    doc.Set("metrics", obs::MetricsRegistry::Global().TakeSnapshot().ToJson());
    return doc;
  }

  /// Writes the artifact and prints its path; returns false (after a
  /// diagnostic) when the file cannot be written, so mains can exit
  /// non-zero and CI fails loudly instead of uploading nothing.
  bool WriteAndLog() const {
    const std::string path = OutputPath();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (out) {
      out << ToJson().Dump(2) << "\n";
      out.flush();
    }
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(stderr, "bench: wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  obs::JsonValue params_;
  obs::JsonValue results_;
  uint64_t iterations_ = 0;
  std::chrono::steady_clock::time_point start_;
};

/// Arms the span collector when the bench was invoked with `--trace=PATH`
/// (or with $PGPUB_TRACE set; the flag wins). Call once at the top of
/// main and keep the returned path — empty means tracing stays off.
inline std::string TraceFromArgs(int argc, char** argv) {
  std::string path;
  if (const char* env = std::getenv("PGPUB_TRACE");
      env != nullptr && *env != '\0') {
    path = env;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) path = arg.substr(8);
  }
  if (!path.empty()) obs::Tracer::Global().Enable();
  return path;
}

/// Writes the collected spans as Chrome Trace Event JSON to `path`
/// (no-op when empty, so it composes with TraceFromArgs unconditionally).
/// Returns false after a diagnostic when the file cannot be written.
inline bool FinishTrace(const std::string& path) {
  if (path.empty()) return true;
  const Status written =
      obs::WriteChromeTrace(obs::Tracer::Global().TakeSnapshot(), path);
  if (!written.ok()) {
    std::fprintf(stderr, "bench: %s\n", written.ToString().c_str());
    return false;
  }
  std::fprintf(stderr, "bench: wrote trace %s\n", path.c_str());
  return true;
}

}  // namespace bench
}  // namespace pgpub
