/// \file bench_diff.cc
/// Compares a freshly produced BENCH_*.json artifact (schema_version 1,
/// as written by bench/bench_report.h) against a committed baseline and
/// fails when a tracked metric regresses beyond the tolerance. CI runs
/// this after bench_schema_check so a perf cliff shows up as a red step
/// with a per-metric diagnostic instead of a silently drifting artifact.
///
/// Usage:
///   bench_diff [--tolerance=F] [--metric=KEY:lower|higher ...]
///              BASELINE CURRENT
///
///   --tolerance=F   allowed relative drift in the bad direction: the
///                   worse value over the better one, minus 1 (default
///                   0.5, i.e. 1.5x; smoke runners are noisy).
///   --metric=K:DIR  track results-row member K; DIR says which
///                   direction is better ("lower" for latencies,
///                   "higher" for throughputs). Repeatable.
///
/// Rows are matched by index: the baseline must have been produced at
/// the same parameters (CI regenerates both at smoke scale). Rows or
/// metrics present on one side only are reported but are not
/// regressions — benches grow rows over time and baselines lag a PR.
///
/// Exit: 0 clean (possibly with drift notes), 1 regression, 2 usage or
/// I/O problem.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace pgpub {
namespace {

using obs::JsonValue;

struct TrackedMetric {
  std::string key;
  bool lower_is_better = true;
};

struct Options {
  double tolerance = 0.5;
  std::vector<TrackedMetric> metrics;
  std::string baseline_path;
  std::string current_path;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--tolerance=F] [--metric=KEY:lower|higher ...] "
               "BASELINE CURRENT\n",
               argv0);
  return 2;
}

bool ParseMetric(const std::string& spec, TrackedMetric* out) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  out->key = spec.substr(0, colon);
  const std::string dir = spec.substr(colon + 1);
  if (dir == "lower") {
    out->lower_is_better = true;
  } else if (dir == "higher") {
    out->lower_is_better = false;
  } else {
    return false;
  }
  return true;
}

bool LoadDoc(const std::string& path, JsonValue* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = JsonValue::Parse(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    return false;
  }
  if (!parsed->is_object() || parsed->Find("results") == nullptr ||
      !parsed->Find("results")->is_array()) {
    std::fprintf(stderr, "bench_diff: %s: not a schema-v1 bench artifact\n",
                 path.c_str());
    return false;
  }
  *out = std::move(*parsed);
  return true;
}

/// Pulls results-row member `key` as a double; false when absent or
/// non-numeric (the caller decides whether that is noteworthy).
bool RowValue(const JsonValue& row, const std::string& key, double* out) {
  const JsonValue* v = row.Find(key.c_str());
  if (v == nullptr || !v->is_number()) return false;
  auto as_double = v->AsDouble();
  if (!as_double.ok()) return false;
  *out = *as_double;
  return true;
}

int Run(const Options& options) {
  JsonValue baseline, current;
  if (!LoadDoc(options.baseline_path, &baseline) ||
      !LoadDoc(options.current_path, &current)) {
    return 2;
  }

  const auto& base_rows = baseline.Find("results")->items();
  const auto& cur_rows = current.Find("results")->items();
  const size_t shared = base_rows.size() < cur_rows.size()
                            ? base_rows.size()
                            : cur_rows.size();
  if (base_rows.size() != cur_rows.size()) {
    std::fprintf(stderr,
                 "bench_diff: note: row count differs (baseline %zu, "
                 "current %zu); comparing the first %zu\n",
                 base_rows.size(), cur_rows.size(), shared);
  }

  int regressions = 0;
  int compared = 0;
  for (size_t i = 0; i < shared; ++i) {
    for (const TrackedMetric& metric : options.metrics) {
      double base_value = 0.0;
      double cur_value = 0.0;
      const bool has_base = RowValue(base_rows[i], metric.key, &base_value);
      const bool has_cur = RowValue(cur_rows[i], metric.key, &cur_value);
      if (!has_base || !has_cur) {
        if (has_base != has_cur) {
          std::fprintf(stderr,
                       "bench_diff: note: row %zu metric '%s' present on "
                       "one side only\n",
                       i, metric.key.c_str());
        }
        continue;
      }
      ++compared;
      // Relative drift in the bad direction, as the ratio of the worse
      // value to the better one minus 1, so a tolerance bounds a rise and
      // a drop alike (9.0 flags more than 10x either way). A higher-is-
      // better metric that falls to zero has an infinite drift. A zero
      // baseline cannot regress in the lower-is-better sense and any
      // positive value is an improvement in the higher-is-better sense,
      // so guard it.
      bool regressed = false;
      double drift = 0.0;
      if (base_value > 0.0) {
        if (metric.lower_is_better) {
          drift = cur_value / base_value - 1.0;
        } else if (cur_value > 0.0) {
          drift = base_value / cur_value - 1.0;
        } else {
          drift = std::numeric_limits<double>::infinity();
        }
        regressed = drift > options.tolerance;
      } else if (metric.lower_is_better && cur_value > 0.0) {
        // From-zero growth has no finite ratio; flag it for a human.
        drift = cur_value;
        regressed = false;
      }
      if (regressed) {
        std::fprintf(stderr,
                     "bench_diff: REGRESSION row %zu '%s': baseline %.6g, "
                     "current %.6g (%+.1f%% in the bad direction, "
                     "tolerance %.1f%%)\n",
                     i, metric.key.c_str(), base_value, cur_value,
                     drift * 100.0, options.tolerance * 100.0);
        ++regressions;
      } else {
        std::printf("bench_diff: row %zu '%s': baseline %.6g, current "
                    "%.6g (ok)\n",
                    i, metric.key.c_str(), base_value, cur_value);
      }
    }
  }

  if (compared == 0) {
    std::fprintf(stderr,
                 "bench_diff: note: no tracked metric appeared in both "
                 "files; nothing compared\n");
  }
  if (regressions > 0) {
    std::fprintf(stderr, "bench_diff: %d regression(s) vs %s\n", regressions,
                 options.baseline_path.c_str());
    return 1;
  }
  std::printf("bench_diff: %s vs %s: OK (%d comparison(s))\n",
              options.current_path.c_str(), options.baseline_path.c_str(),
              compared);
  return 0;
}

}  // namespace
}  // namespace pgpub

int main(int argc, char** argv) {
  pgpub::Options options;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--tolerance=", 0) == 0) {
      options.tolerance = std::atof(arg.c_str() + std::strlen("--tolerance="));
      if (!(options.tolerance >= 0.0)) {
        std::fprintf(stderr, "bench_diff: bad --tolerance '%s'\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--metric=", 0) == 0) {
      pgpub::TrackedMetric metric;
      if (!pgpub::ParseMetric(arg.substr(std::strlen("--metric=")),
                              &metric)) {
        std::fprintf(stderr, "bench_diff: bad --metric '%s'\n", arg.c_str());
        return 2;
      }
      options.metrics.push_back(std::move(metric));
    } else if (!arg.empty() && arg[0] == '-') {
      return pgpub::Usage(argv[0]);
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2 || options.metrics.empty()) {
    return pgpub::Usage(argv[0]);
  }
  options.baseline_path = positional[0];
  options.current_path = positional[1];
  return pgpub::Run(options);
}
