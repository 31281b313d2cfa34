#include "lint.h"

#include <algorithm>
#include <map>

namespace pgpub::lint {

const char* const kRuleUncheckedResult = "unchecked-result";
const char* const kRuleCheckOnInputPath = "check-on-input-path";
const char* const kRuleNondeterminism = "nondeterminism";
const char* const kRuleFloatEquality = "float-equality";
const char* const kRuleDirectIo = "direct-io";
const char* const kRuleRawThread = "raw-thread";
const char* const kRuleRawMutex = "raw-mutex";
const char* const kRuleUnannotatedGuard = "unannotated-guard";
const char* const kRuleSpanLiteral = "span-name-literal";

std::string CanonicalRuleName(const std::string& name_or_id) {
  static const std::map<std::string, std::string> kMap = {
      {"L2", kRuleUncheckedResult},     {"l2", kRuleUncheckedResult},
      {"L3", kRuleCheckOnInputPath},    {"l3", kRuleCheckOnInputPath},
      {"L4", kRuleNondeterminism},      {"l4", kRuleNondeterminism},
      {"L5", kRuleFloatEquality},       {"l5", kRuleFloatEquality},
      {"L6", kRuleDirectIo},            {"l6", kRuleDirectIo},
      {"L7", kRuleRawThread},           {"l7", kRuleRawThread},
      {"L8", kRuleRawMutex},            {"l8", kRuleRawMutex},
      {"L9", kRuleUnannotatedGuard},    {"l9", kRuleUnannotatedGuard},
      {"L10", kRuleSpanLiteral},        {"l10", kRuleSpanLiteral},
      {"io", kRuleDirectIo},
      {"thread", kRuleRawThread},
      {"mutex", kRuleRawMutex},
      {"span", kRuleSpanLiteral},
      {kRuleUncheckedResult, kRuleUncheckedResult},
      {kRuleCheckOnInputPath, kRuleCheckOnInputPath},
      {kRuleNondeterminism, kRuleNondeterminism},
      {kRuleFloatEquality, kRuleFloatEquality},
      {kRuleDirectIo, kRuleDirectIo},
      {kRuleRawThread, kRuleRawThread},
      {kRuleRawMutex, kRuleRawMutex},
      {kRuleUnannotatedGuard, kRuleUnannotatedGuard},
      {kRuleSpanLiteral, kRuleSpanLiteral},
  };
  auto it = kMap.find(name_or_id);
  return it == kMap.end() ? std::string() : it->second;
}

FileCategory CategorizeRelPath(const std::string& rel_path) {
  auto starts_with = [&](const char* prefix) {
    return rel_path.rfind(prefix, 0) == 0;
  };
  if (starts_with("src/")) return FileCategory::kLibrary;
  if (starts_with("bench/") || starts_with("examples/")) {
    return FileCategory::kHarness;
  }
  return FileCategory::kExempt;
}

namespace {

using Tokens = std::vector<Token>;

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

/// Walks from `close` (an index of ")") backward to its matching "(".
/// Returns SIZE_MAX when unbalanced.
size_t MatchBackward(const Tokens& toks, size_t close) {
  int depth = 0;
  for (size_t i = close + 1; i-- > 0;) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == ")") ++depth;
    if (toks[i].text == "(") {
      if (--depth == 0) return i;
    }
  }
  return static_cast<size_t>(-1);
}

/// True when token index `i` names a function being *called or declared*:
/// an identifier immediately followed by "(".
bool IsCallLike(const Tokens& toks, size_t i) {
  return toks[i].kind == TokenKind::kIdentifier && i + 1 < toks.size() &&
         IsPunct(toks[i + 1], "(");
}

/// Skips a balanced template argument list: `i` points at "<"; returns the
/// index one past the matching ">" (handles ">>"), or `i` when this does
/// not look like a template list.
size_t SkipTemplateArgs(const Tokens& toks, size_t i) {
  if (i >= toks.size() || !IsPunct(toks[i], "<")) return i;
  int depth = 0;
  for (size_t j = i; j < toks.size(); ++j) {
    const Token& t = toks[j];
    if (t.kind == TokenKind::kPunct) {
      if (t.text == "<") ++depth;
      if (t.text == "<<") depth += 2;
      if (t.text == ">") {
        if (--depth == 0) return j + 1;
      }
      if (t.text == ">>") {
        depth -= 2;
        if (depth <= 0) return j + 1;
      }
      // A statement boundary means this was a comparison, not a template.
      if (t.text == ";" || t.text == "{" || t.text == "}") return i;
    }
  }
  return i;
}

void Report(std::vector<Finding>* out, const std::string& file,
            const Suppressions& sup, int line, const char* rule,
            std::string message) {
  if (sup.Allows(line, rule)) return;
  // Short ids (and the "io"/"thread"/"mutex" shorthands) work in allow()
  // too.
  for (const char* id : {"L2", "L3", "L4", "L5", "L6", "L7", "L8",
                         "L9", "L10", "io", "thread", "mutex", "span"}) {
    if (CanonicalRuleName(id) == rule && sup.Allows(line, id)) return;
  }
  out->push_back(Finding{file, line, rule, std::move(message)});
}

// -------------------------------------------------------------------- L2

void RunUncheckedResult(const std::string& file, const LexedFile& lexed,
                        std::vector<Finding>* out) {
  const Tokens& toks = lexed.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i], "ValueOrDie")) continue;
    if (!IsPunct(toks[i + 1], "(")) continue;
    if (i == 0) continue;
    const Token& access = toks[i - 1];
    if (!IsPunct(access, ".") && !IsPunct(access, "->")) continue;
    if (i < 2) continue;

    // Identify the receiver.
    const Token& recv = toks[i - 2];
    std::string var;
    if (recv.kind == TokenKind::kIdentifier) {
      var = recv.text;
    } else if (IsPunct(recv, ")")) {
      const size_t open = MatchBackward(toks, i - 2);
      // `std::move(x).ValueOrDie()` unwraps x — look through the move.
      if (open != static_cast<size_t>(-1) && open > 0 &&
          IsIdent(toks[open - 1], "move") && open + 1 < toks.size() &&
          toks[open + 1].kind == TokenKind::kIdentifier &&
          IsPunct(toks[open + 2], ")")) {
        var = toks[open + 1].text;
      }
    }

    if (var.empty()) {
      Report(out, file, lexed.suppressions, toks[i].line,
             kRuleUncheckedResult,
             "ValueOrDie() on an unnamed temporary Result — bind it and "
             "check ok()/status(), or use ASSIGN_OR_RETURN");
      continue;
    }

    // Look backward for `var.ok(` / `var.status(` / `var->ok(` ...
    bool checked = false;
    for (size_t j = 0; j + 2 < toks.size() && j < i; ++j) {
      if (toks[j].kind != TokenKind::kIdentifier || toks[j].text != var) {
        continue;
      }
      if (!IsPunct(toks[j + 1], ".") && !IsPunct(toks[j + 1], "->")) {
        continue;
      }
      if (IsIdent(toks[j + 2], "ok") || IsIdent(toks[j + 2], "status")) {
        checked = true;
        break;
      }
    }
    if (!checked) {
      Report(out, file, lexed.suppressions, toks[i].line,
             kRuleUncheckedResult,
             "'" + var +
                 ".ValueOrDie()' without a preceding ok()/status() check "
                 "of '" +
                 var + "'");
    }
  }
}

// -------------------------------------------------------------------- L3

void RunCheckOnInputPath(const std::string& file, const LexedFile& lexed,
                         const LintOptions& options,
                         std::vector<Finding>* out) {
  if (options.check_allowlist.count(file) > 0) return;
  const Tokens& toks = lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text.rfind("PGPUB_CHECK", 0) != 0) continue;
    // The macro definitions themselves live behind the allowlist
    // (common/logging.h); everything else is a use.
    Report(out, file, lexed.suppressions, t.line, kRuleCheckOnInputPath,
           t.text +
               " on a user-reachable path — return Status/Result instead "
               "(or add the file to the CHECK allowlist if it is an "
               "internal invariant layer)");
  }
}

// -------------------------------------------------------------------- L4

void RunNondeterminism(const std::string& file, const LexedFile& lexed,
                       const LintOptions& options,
                       std::vector<Finding>* out) {
  if (options.nondeterminism_exempt.count(file) > 0) return;
  static const std::set<std::string> kBannedAnywhere = {
      "random_device",  "mt19937",      "mt19937_64",
      "minstd_rand",    "minstd_rand0", "default_random_engine",
      "knuth_b",        "ranlux24",     "ranlux48",
      "random_shuffle",
  };
  static const std::set<std::string> kBannedCalls = {"rand", "srand",
                                                     "time", "clock"};
  const Tokens& toks = lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (kBannedAnywhere.count(t.text) > 0) {
      Report(out, file, lexed.suppressions, t.line, kRuleNondeterminism,
             "'" + t.text +
                 "' breaks deterministic replay — route all randomness "
                 "through pgpub::Rng (common/random.h)");
      continue;
    }
    if (kBannedCalls.count(t.text) > 0 && IsCallLike(toks, i)) {
      // Only flag free calls, not members like foo.time(...).
      if (i > 0 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"))) {
        continue;
      }
      Report(out, file, lexed.suppressions, t.line, kRuleNondeterminism,
             "'" + t.text +
                 "()' is nondeterministic — seeds and clocks must come "
                 "from configuration, not the environment");
    }
  }
}

// -------------------------------------------------------------------- L5

/// Collects identifiers declared with type double/float in this file.
std::set<std::string> CollectFloatingVars(const Tokens& toks) {
  std::set<std::string> vars;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], "double") && !IsIdent(toks[i], "float")) continue;
    size_t j = i + 1;
    // Step over references and cv-qualifiers, but stop at pointers:
    // comparing pointers exactly is fine.
    while (j < toks.size() &&
           (IsPunct(toks[j], "&") || IsIdent(toks[j], "const"))) {
      ++j;
    }
    while (j < toks.size() && toks[j].kind == TokenKind::kIdentifier) {
      const std::string& name = toks[j].text;
      if (j + 1 >= toks.size()) break;
      const Token& next = toks[j + 1];
      if (IsPunct(next, "(")) break;  // function declaration, not a var
      if (IsPunct(next, "=") || IsPunct(next, ";") || IsPunct(next, ",") ||
          IsPunct(next, ")") || IsPunct(next, "[") || IsPunct(next, "{") ||
          IsPunct(next, ":")) {
        vars.insert(name);
      }
      // Continue through multi-declarators: `double a, b;`
      if (IsPunct(next, ",") && j + 2 < toks.size() &&
          toks[j + 2].kind == TokenKind::kIdentifier) {
        j += 2;
        continue;
      }
      break;
    }
  }
  return vars;
}

void RunFloatEquality(const std::string& file, const LexedFile& lexed,
                      const LintOptions& options,
                      std::vector<Finding>* out) {
  if (options.float_eq_exempt.count(file) > 0) return;
  const Tokens& toks = lexed.tokens;
  const std::set<std::string> float_vars = CollectFloatingVars(toks);

  auto is_float_operand = [&](size_t idx, int direction) {
    if (idx >= toks.size()) return false;
    const Token& t = toks[idx];
    if (t.kind == TokenKind::kNumber && t.is_float) return true;
    if (t.kind == TokenKind::kIdentifier && float_vars.count(t.text) > 0) {
      // Exclude member access `x.name` (the declared var may be shadowed
      // by an unrelated member of the same name) unless direction allows.
      if (direction < 0 && idx > 0 &&
          (IsPunct(toks[idx - 1], ".") || IsPunct(toks[idx - 1], "->"))) {
        return true;  // still a double-typed name in this file, flag it
      }
      return true;
    }
    // Unary sign before a float literal on the right-hand side.
    if (direction > 0 && (IsPunct(t, "-") || IsPunct(t, "+")) &&
        idx + 1 < toks.size() && toks[idx + 1].kind == TokenKind::kNumber &&
        toks[idx + 1].is_float) {
      return true;
    }
    return false;
  };

  for (size_t i = 1; i + 1 < toks.size(); ++i) {
    if (!IsPunct(toks[i], "==") && !IsPunct(toks[i], "!=")) continue;
    if (is_float_operand(i - 1, -1) || is_float_operand(i + 1, +1)) {
      Report(out, file, lexed.suppressions, toks[i].line, kRuleFloatEquality,
             "exact '" + toks[i].text +
                 "' on floating-point values — use an epsilon comparison "
                 "(common/math_util.h) or restructure");
    }
  }
}

// -------------------------------------------------------------------- L6

/// Entries ending in '/' match as directory prefixes; anything else must
/// equal the relative path exactly.
bool PathExempt(const std::string& file,
                const std::set<std::string>& exemptions) {
  for (const std::string& entry : exemptions) {
    if (!entry.empty() && entry.back() == '/') {
      if (file.rfind(entry, 0) == 0) return true;
    } else if (file == entry) {
      return true;
    }
  }
  return false;
}

void RunDirectIo(const std::string& file, const LexedFile& lexed,
                 const LintOptions& options, std::vector<Finding>* out) {
  if (PathExempt(file, options.direct_io_exempt)) return;
  const Tokens& toks = lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text != "cout" && t.text != "cerr" && t.text != "clog") continue;
    // Member access `foo.cout` is some unrelated name, not the stream.
    if (i > 0 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"))) {
      continue;
    }
    Report(out, file, lexed.suppressions, t.line, kRuleDirectIo,
           "direct write to std::" + t.text +
               " in library code — emit a structured event through "
               "pgpub::obs::Logger (src/obs/log.h) so runs stay "
               "machine-readable");
  }
}

// -------------------------------------------------------------------- L7

void RunRawThread(const std::string& file, const LexedFile& lexed,
                  const LintOptions& options, std::vector<Finding>* out) {
  if (PathExempt(file, options.raw_thread_exempt)) return;
  const Tokens& toks = lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    const bool is_thread_type =
        t.text == "thread" || t.text == "jthread";
    const bool is_async = t.text == "async";
    if (!is_thread_type && !is_async) continue;
    // Only the std:: names; a field or local called `thread` is fine.
    if (i < 2 || !IsPunct(toks[i - 1], "::") || !IsIdent(toks[i - 2], "std")) {
      continue;
    }
    if (is_thread_type) {
      // `std::thread::hardware_concurrency()` and friends are queries on
      // the type, not thread spawns.
      if (i + 1 < toks.size() && IsPunct(toks[i + 1], "::")) continue;
      Report(out, file, lexed.suppressions, t.line, kRuleRawThread,
             "raw std::" + t.text +
                 " outside src/common/parallel/ — spawn work through "
                 "ThreadPool/ParallelFor so execution stays deterministic "
                 "and errors propagate as Status");
    } else if (IsCallLike(toks, i)) {
      Report(out, file, lexed.suppressions, t.line, kRuleRawThread,
             "std::async outside src/common/parallel/ — use "
             "ThreadPool/ParallelFor; detached futures escape the "
             "deterministic scheduling and Status error contract");
    }
  }
}

// -------------------------------------------------------------------- L8

void RunRawMutex(const std::string& file, const LexedFile& lexed,
                 const LintOptions& options, std::vector<Finding>* out) {
  if (PathExempt(file, options.raw_mutex_exempt)) return;
  // The raw locking vocabulary. Naming any of these std:: types outside
  // the sync layer means a lock the capability analysis cannot see.
  static const std::set<std::string> kRawLocking = {
      "mutex",          "timed_mutex",
      "recursive_mutex", "recursive_timed_mutex",
      "shared_mutex",   "shared_timed_mutex",
      "lock_guard",     "unique_lock",
      "scoped_lock",    "shared_lock",
      "condition_variable", "condition_variable_any",
  };
  const Tokens& toks = lexed.tokens;
  for (size_t i = 2; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (kRawLocking.count(t.text) == 0) continue;
    // Only the std:: names; `lock_guard` as a local name is someone
    // else's problem, and pgpub::Mutex never collides.
    if (!IsPunct(toks[i - 1], "::") || !IsIdent(toks[i - 2], "std")) {
      continue;
    }
    Report(out, file, lexed.suppressions, t.line, kRuleRawMutex,
           "raw std::" + t.text +
               " outside src/common/sync/ — use pgpub::Mutex / MutexLock "
               "/ CondVar (src/common/sync/mutex.h) so Clang "
               "-Wthread-safety and the lock-order detector can see the "
               "lock");
  }
}

// -------------------------------------------------------------------- L9

/// Walks from `open` (an index of "{") forward to its matching "}".
/// Returns tokens.size() when unbalanced.
size_t MatchBraceForward(const Tokens& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == "{") ++depth;
    if (toks[i].text == "}") {
      if (--depth == 0) return i;
    }
  }
  return toks.size();
}

/// One member declaration at class-body depth: tokens [begin, end), where
/// `end` is the index of the terminating ";".
struct MemberStmt {
  size_t begin = 0;
  size_t end = 0;
};

/// Splits a class body (tokens strictly between `open` and `close`, both
/// braces) into member statements. Function definitions (a brace group
/// not followed by ";") are dropped; brace initializers and nested type
/// definitions stay inside their statement.
std::vector<MemberStmt> SplitMemberStatements(const Tokens& toks,
                                              size_t open, size_t close) {
  std::vector<MemberStmt> stmts;
  size_t start = open + 1;
  size_t i = open + 1;
  while (i < close) {
    const Token& t = toks[i];
    if (t.kind == TokenKind::kIdentifier &&
        (t.text == "public" || t.text == "private" ||
         t.text == "protected") &&
        i + 1 < close && IsPunct(toks[i + 1], ":")) {
      i += 2;
      start = i;
      continue;
    }
    if (IsPunct(t, "{")) {
      const size_t end = MatchBraceForward(toks, i);
      if (end >= close) break;
      if (end + 1 < close && IsPunct(toks[end + 1], ";")) {
        stmts.push_back(MemberStmt{start, end + 1});
        i = end + 2;
      } else {
        // Inline function definition — nothing declared at body depth.
        i = end + 1;
      }
      start = i;
      continue;
    }
    if (IsPunct(t, ";")) {
      if (i > start) stmts.push_back(MemberStmt{start, i});
      ++i;
      start = i;
      continue;
    }
    ++i;
  }
  return stmts;
}

bool StmtHasIdent(const Tokens& toks, const MemberStmt& s,
                  const char* text) {
  for (size_t i = s.begin; i < s.end; ++i) {
    if (IsIdent(toks[i], text)) return true;
  }
  return false;
}

/// A "(" outside template argument lists means the statement declares a
/// function (or a deleted constructor), not a data member.
bool StmtHasCallParen(const Tokens& toks, const MemberStmt& s) {
  for (size_t i = s.begin; i < s.end;) {
    if (IsPunct(toks[i], "<")) {
      const size_t past = SkipTemplateArgs(toks, i);
      if (past > i) {
        i = past;
        continue;
      }
    }
    if (IsPunct(toks[i], "(")) return true;
    ++i;
  }
  return false;
}

/// True when the statement declares a pgpub::Mutex member (the lock
/// itself, or a pointer to one). Type definitions, friend declarations
/// and functions mentioning Mutex (constructors, Wait(Mutex*)) don't
/// count.
bool IsMutexMember(const Tokens& toks, const MemberStmt& s) {
  if (!StmtHasIdent(toks, s, "Mutex")) return false;
  for (const char* kw : {"struct", "class", "enum", "using", "typedef",
                         "friend", "MutexLock"}) {
    if (StmtHasIdent(toks, s, kw)) return false;
  }
  return !StmtHasCallParen(toks, s);
}

/// True when the statement is exempt from the guard requirement: already
/// annotated, immutable, atomic, a type/alias/friend declaration, the
/// lock machinery itself, or a function declaration (any "(" outside
/// template argument lists).
bool IsExemptMember(const Tokens& toks, const MemberStmt& s) {
  if (StmtHasIdent(toks, s, "PGPUB_GUARDED_BY") ||
      StmtHasIdent(toks, s, "PGPUB_PT_GUARDED_BY")) {
    return true;
  }
  for (const char* kw :
       {"static", "constexpr", "const", "using", "typedef", "friend",
        "struct", "class", "enum", "template", "operator", "atomic",
        "Mutex", "MutexLock", "CondVar"}) {
    if (StmtHasIdent(toks, s, kw)) return true;
  }
  return StmtHasCallParen(toks, s);  // function declaration
}

/// The declared name: the last identifier before the initializer (or the
/// terminating ";").
std::string MemberName(const Tokens& toks, const MemberStmt& s) {
  std::string name;
  for (size_t i = s.begin; i < s.end; ++i) {
    if (IsPunct(toks[i], "=") || IsPunct(toks[i], "{") ||
        IsPunct(toks[i], "[")) {
      break;
    }
    if (toks[i].kind == TokenKind::kIdentifier) name = toks[i].text;
  }
  return name;
}

void RunUnannotatedGuard(const std::string& file, const LexedFile& lexed,
                         std::vector<Finding>* out) {
  const Tokens& toks = lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], "class") && !IsIdent(toks[i], "struct")) continue;
    if (i > 0 && IsIdent(toks[i - 1], "enum")) continue;

    // Find the body's opening brace (or bail on forward declarations,
    // template parameters and elaborated specifiers). Attribute macros
    // before the name may carry parenthesized arguments.
    std::string class_name;
    size_t open = toks.size();
    bool in_bases = false;
    int paren_depth = 0;
    for (size_t j = i + 1; j < toks.size(); ++j) {
      const Token& t = toks[j];
      if (IsPunct(t, "(")) {
        ++paren_depth;
        continue;
      }
      if (IsPunct(t, ")")) {
        if (paren_depth == 0) break;
        --paren_depth;
        continue;
      }
      if (paren_depth > 0) continue;
      if (t.kind == TokenKind::kIdentifier) {
        if (!in_bases) class_name = t.text;
        continue;
      }
      if (IsPunct(t, "{")) {
        open = j;
        break;
      }
      if (IsPunct(t, ":")) {
        in_bases = true;
        continue;
      }
      if (IsPunct(t, "<")) {
        const size_t past = SkipTemplateArgs(toks, j);
        if (past == j) break;
        j = past - 1;
        continue;
      }
      if (IsPunct(t, ",") || IsPunct(t, ";") || IsPunct(t, ">") ||
          IsPunct(t, "=") || IsPunct(t, "&") || IsPunct(t, "*")) {
        break;
      }
    }
    if (open >= toks.size()) continue;
    const size_t close = MatchBraceForward(toks, open);
    if (close >= toks.size()) continue;

    // Nested classes are visited by this same loop when the scan reaches
    // their keyword; here their whole definition is one (exempt) member
    // statement of the enclosing class.
    const std::vector<MemberStmt> stmts =
        SplitMemberStatements(toks, open, close);
    bool holds_mutex = false;
    for (const MemberStmt& s : stmts) {
      if (IsMutexMember(toks, s)) {
        holds_mutex = true;
        break;
      }
    }
    if (!holds_mutex) continue;

    for (const MemberStmt& s : stmts) {
      if (IsExemptMember(toks, s)) continue;
      const std::string member = MemberName(toks, s);
      if (member.empty()) continue;
      Report(out, file, lexed.suppressions, toks[s.begin].line,
             kRuleUnannotatedGuard,
             "'" + (class_name.empty() ? std::string("<anonymous>")
                                       : class_name) +
                 "' holds a pgpub::Mutex but member '" + member +
                 "' has no PGPUB_GUARDED_BY — annotate it (or mark a "
                 "deliberate exception with allow(L9)) so "
                 "-Wthread-safety covers every field");
    }
  }
}

// ------------------------------------------------------------------- L10

/// Span names must be string literals: the Tracer keys its per-span
/// histogram cache (and the zero-allocation SpanRecord name field) on
/// literal pointer identity, so a runtime-built name fragments the
/// metrics and dangles once the buffer dies. Two shapes are checked:
///   PGPUB_TRACE_SPAN(<non-string>...)
///   [obs::]ScopedSpan <name>(<non-string>...)
void RunSpanLiteral(const std::string& file, const LexedFile& lexed,
                    const LintOptions& options, std::vector<Finding>* out) {
  if (PathExempt(file, options.span_literal_exempt)) return;
  const Tokens& toks = lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    size_t open = toks.size();
    if (t.text == "PGPUB_TRACE_SPAN" && i + 1 < toks.size() &&
        IsPunct(toks[i + 1], "(")) {
      open = i + 1;
    } else if (t.text == "ScopedSpan" && i + 2 < toks.size() &&
               toks[i + 1].kind == TokenKind::kIdentifier &&
               IsPunct(toks[i + 2], "(")) {
      open = i + 2;
    } else {
      continue;
    }
    if (open + 1 < toks.size() && toks[open + 1].kind == TokenKind::kString) {
      continue;
    }
    Report(out, file, lexed.suppressions, t.line, kRuleSpanLiteral,
           "span name is not a string literal — the Tracer interns names "
           "by literal pointer identity, so build-once names must be "
           "literals (hoist dynamic detail into Attr() instead)");
  }
}

bool RuleEnabled(const LintOptions& options, const char* rule) {
  return options.enabled_rules.empty() ||
         options.enabled_rules.count(rule) > 0;
}

}  // namespace

std::vector<Finding> LintFile(const std::string& rel_path,
                              FileCategory category, const LexedFile& lexed,
                              const LintOptions& options) {
  std::vector<Finding> findings;
  if (category == FileCategory::kExempt) return findings;

  if (category == FileCategory::kLibrary) {
    if (RuleEnabled(options, kRuleUncheckedResult)) {
      RunUncheckedResult(rel_path, lexed, &findings);
    }
    if (RuleEnabled(options, kRuleCheckOnInputPath)) {
      RunCheckOnInputPath(rel_path, lexed, options, &findings);
    }
    if (RuleEnabled(options, kRuleDirectIo)) {
      RunDirectIo(rel_path, lexed, options, &findings);
    }
  }
  if (RuleEnabled(options, kRuleNondeterminism)) {
    RunNondeterminism(rel_path, lexed, options, &findings);
  }
  if (RuleEnabled(options, kRuleRawThread)) {
    RunRawThread(rel_path, lexed, options, &findings);
  }
  if (RuleEnabled(options, kRuleRawMutex)) {
    RunRawMutex(rel_path, lexed, options, &findings);
  }
  if (RuleEnabled(options, kRuleUnannotatedGuard)) {
    RunUnannotatedGuard(rel_path, lexed, &findings);
  }
  if (RuleEnabled(options, kRuleSpanLiteral)) {
    RunSpanLiteral(rel_path, lexed, options, &findings);
  }
  if (RuleEnabled(options, kRuleFloatEquality)) {
    RunFloatEquality(rel_path, lexed, options, &findings);
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

std::vector<Finding> LintSource(const std::string& rel_path,
                                FileCategory category,
                                const std::string& source,
                                const LintOptions& options) {
  return LintFile(rel_path, category, Lex(source), options);
}

}  // namespace pgpub::lint
