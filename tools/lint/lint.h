#pragma once

#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace pgpub::lint {

/// One diagnostic. `rule` is the canonical kebab-case rule name.
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// The nine project invariants, by canonical name. Suppression comments
/// accept either the canonical name or the short id (L2..L10). L1 is
/// retired: a discarded Status/Result is a compile error
/// (`class [[nodiscard]]` plus -Werror=unused-result), which sees types
/// where a lexer could only match names.
///
///   L2 unchecked-result     — Result unwrap (`ValueOrDie`) with no
///                             preceding ok()/status() check of the same
///                             object, or an unwrap of an unnamed
///                             temporary.
///   L3 check-on-input-path  — PGPUB_CHECK* in a src/ file that is not on
///                             the CHECK allowlist (user-reachable code
///                             must fail closed with Status instead).
///   L4 nondeterminism       — RNG or wall-clock primitives not routed
///                             through common/random.h (std::rand,
///                             std::random_device, default-seeded engines,
///                             time(), ...). Breaks bit-for-bit
///                             reproducibility of the experiments.
///   L5 float-equality       — exact ==/!= on doubles outside math_util.
///   L6 direct-io            — std::cout/std::cerr writes in src/ outside
///                             the observability layer (src/obs/) and the
///                             CHECK macro plumbing (common/logging.h).
///                             Library code must report through the
///                             structured logger so runs stay
///                             machine-readable. Suppression also accepts
///                             the shorthand allow(io).
///   L7 raw-thread           — std::thread / std::jthread / std::async
///                             outside src/common/parallel/. Ad-hoc
///                             threading bypasses the deterministic
///                             ParallelFor contract (fixed chunking,
///                             ordered error selection, nested-region
///                             rejection) that the differential tests
///                             rely on; all parallelism must go through
///                             the pool. `std::thread::hardware_concurrency`
///                             (a query, not a spawn) stays legal.
///                             Suppression also accepts allow(thread).
///   L8 raw-mutex            — std::mutex / std::lock_guard /
///                             std::unique_lock / std::condition_variable
///                             (and friends) outside src/common/sync/.
///                             Raw primitives carry no capability
///                             annotations, so Clang -Wthread-safety and
///                             the lock-order detector are blind to them;
///                             use pgpub::Mutex / MutexLock / CondVar.
///                             Suppression also accepts allow(mutex).
///   L9 unannotated-guard    — a class that declares a pgpub::Mutex member
///                             but has other mutable data members without
///                             PGPUB_GUARDED_BY / PGPUB_PT_GUARDED_BY.
///                             Unannotated fields silently escape the
///                             -Wthread-safety proof; annotate them or
///                             mark the deliberate exceptions (atomics
///                             are recognized automatically).
///   L10 span-name-literal   — a ScopedSpan constructed (or
///                             PGPUB_TRACE_SPAN invoked) with a
///                             non-literal first argument. The Tracer
///                             interns span names by string-literal
///                             pointer identity, so a runtime-built name
///                             would silently fragment the per-span
///                             histograms and defeat the no-allocation
///                             hot path; span names must be literals.
///                             Suppression also accepts allow(span).
extern const char* const kRuleUncheckedResult;
extern const char* const kRuleCheckOnInputPath;
extern const char* const kRuleNondeterminism;
extern const char* const kRuleFloatEquality;
extern const char* const kRuleDirectIo;
extern const char* const kRuleRawThread;
extern const char* const kRuleRawMutex;
extern const char* const kRuleUnannotatedGuard;
extern const char* const kRuleSpanLiteral;

/// Maps "L2".."L10" (or "io"/"thread"/"mutex"/"span", or a canonical
/// name) to the canonical name; returns an empty string for unknown rules.
std::string CanonicalRuleName(const std::string& name_or_id);

/// Where a file sits in the tree; decides which rules apply.
///   kLibrary   (src/)      — all rules.
///   kHarness   (bench/, examples/) — all but L2/L3: those trees use the
///                            documented die-on-error unwrap idiom and are
///                            not user-reachable input paths.
///   kExempt    — not scanned (tests/, build/, third-party).
enum class FileCategory { kLibrary, kHarness, kExempt };

/// Classifies a path relative to the repo root ("src/core/foo.cc").
FileCategory CategorizeRelPath(const std::string& rel_path);

struct LintOptions {
  /// Relative paths (as written in the allowlist file) where PGPUB_CHECK
  /// remains acceptable — internal invariant layers (L3).
  std::set<std::string> check_allowlist;

  /// Relative paths exempt from L4 (the deterministic RNG implementation
  /// itself) and L5 (the float-comparison utility layer).
  std::set<std::string> nondeterminism_exempt = {"src/common/random.h",
                                                 "src/common/random.cc"};
  std::set<std::string> float_eq_exempt = {"src/common/math_util.h",
                                           "src/common/math_util.cc"};

  /// Paths exempt from L6. An entry ending in '/' matches as a directory
  /// prefix; anything else matches the relative path exactly. The logger
  /// sinks themselves and the CHECK-failure printer legitimately write to
  /// the raw streams.
  std::set<std::string> direct_io_exempt = {"src/obs/",
                                            "src/common/logging.h"};

  /// Paths exempt from L7 (same matching as direct_io_exempt): the pool
  /// implementation is the one place allowed to spawn raw threads.
  std::set<std::string> raw_thread_exempt = {"src/common/parallel/"};

  /// Paths exempt from L8 (same matching as direct_io_exempt): the
  /// annotated sync layer wraps the raw primitives once, here.
  std::set<std::string> raw_mutex_exempt = {"src/common/sync/"};

  /// Paths exempt from L10 (same matching as direct_io_exempt): the
  /// tracer's own declaration (and its constructor forwarding) names the
  /// parameter, not a span.
  std::set<std::string> span_literal_exempt = {"src/obs/"};

  /// Rules to run (canonical names). Empty = all nine.
  std::set<std::string> enabled_rules;
};

/// Runs every applicable rule over one file. `rel_path` is the
/// repo-relative path used for policy (allowlists, exemptions) and for
/// reporting; `category` usually comes from CategorizeRelPath.
std::vector<Finding> LintFile(const std::string& rel_path,
                              FileCategory category, const LexedFile& lexed,
                              const LintOptions& options);

/// Convenience for tests and the CLI: lex `source` and lint it.
std::vector<Finding> LintSource(const std::string& rel_path,
                                FileCategory category,
                                const std::string& source,
                                const LintOptions& options);

}  // namespace pgpub::lint
