// pgpub_lint — project-specific static analysis for the PG publication
// codebase. Lexer-based (no compiler front end): enforces the nine
// invariants documented in lint.h over src/, bench/ and examples/.
//
// Usage:
//   pgpub_lint [--root=DIR] [--allowlist=FILE] [--rules=L2,L3,...] [paths...]
//
// With no paths, scans src/ bench/ examples/ under --root (default: the
// current directory, walking up until a directory containing src/ is
// found). Exit code 0 = clean, 1 = findings, 2 = usage/IO error.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"

namespace fs = std::filesystem;

namespace {

using pgpub::lint::CanonicalRuleName;
using pgpub::lint::CategorizeRelPath;
using pgpub::lint::FileCategory;
using pgpub::lint::Finding;
using pgpub::lint::LintOptions;

bool HasCxxExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".cpp" || ext == ".cxx" || ext == ".h" ||
         ext == ".hpp";
}

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// Repo-relative path with forward slashes, for policy matching and
/// diagnostics.
std::string RelPath(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(file, root, ec);
  if (ec || rel.empty()) rel = file;
  std::string s = rel.generic_string();
  while (s.rfind("./", 0) == 0) s.erase(0, 2);
  return s;
}

/// Finds the repo root: the nearest ancestor of `start` containing src/.
fs::path FindRoot(fs::path start) {
  start = fs::absolute(start);
  for (fs::path dir = start; !dir.empty(); dir = dir.parent_path()) {
    if (fs::is_directory(dir / "src")) return dir;
    if (dir == dir.root_path()) break;
  }
  return start;
}

bool LoadAllowlist(const fs::path& file, std::set<std::string>* out) {
  std::ifstream in(file);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    // Trim.
    const size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    const size_t e = line.find_last_not_of(" \t\r");
    out->insert(line.substr(b, e - b + 1));
  }
  return true;
}

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--root=DIR] [--allowlist=FILE] [--rules=L2,L3,...]"
               " [paths...]\n"
               "rules: L2 unchecked-result, L3 check-on-input-path,\n"
               "       L4 nondeterminism, L5 float-equality, L6 direct-io,\n"
               "       L7 raw-thread, L8 raw-mutex, L9 unannotated-guard,\n"
               "       L10 span-name-literal\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root;
  fs::path allowlist_file;
  std::set<std::string> rules;
  std::vector<fs::path> explicit_paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg.rfind("--allowlist=", 0) == 0) {
      allowlist_file = arg.substr(12);
    } else if (arg.rfind("--rules=", 0) == 0) {
      std::stringstream ss(arg.substr(8));
      std::string r;
      while (std::getline(ss, r, ',')) {
        const std::string canon = CanonicalRuleName(r);
        if (canon.empty()) {
          std::cerr << "pgpub_lint: unknown rule '" << r << "'\n";
          return Usage(argv[0]);
        }
        rules.insert(canon);
      }
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "pgpub_lint: unknown flag '" << arg << "'\n";
      return Usage(argv[0]);
    } else {
      explicit_paths.emplace_back(arg);
    }
  }

  if (root.empty()) root = FindRoot(fs::current_path());
  if (!fs::is_directory(root)) {
    std::cerr << "pgpub_lint: root '" << root.string()
              << "' is not a directory\n";
    return 2;
  }
  if (allowlist_file.empty()) {
    const fs::path candidate = root / "tools" / "lint" / "check_allowlist.txt";
    if (fs::exists(candidate)) allowlist_file = candidate;
  }

  LintOptions options;
  options.enabled_rules = rules;
  if (!allowlist_file.empty() &&
      !LoadAllowlist(allowlist_file, &options.check_allowlist)) {
    std::cerr << "pgpub_lint: cannot read allowlist '"
              << allowlist_file.string() << "'\n";
    return 2;
  }

  // Collect the file set.
  std::vector<fs::path> files;
  auto add_tree = [&](const fs::path& dir) {
    if (!fs::is_directory(dir)) return;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (entry.is_regular_file() && HasCxxExtension(entry.path())) {
        files.push_back(entry.path());
      }
    }
  };
  if (explicit_paths.empty()) {
    add_tree(root / "src");
    add_tree(root / "bench");
    add_tree(root / "examples");
  } else {
    for (const fs::path& p : explicit_paths) {
      if (fs::is_directory(p)) {
        add_tree(p);
      } else if (fs::is_regular_file(p)) {
        files.push_back(p);
      } else {
        std::cerr << "pgpub_lint: no such file: " << p.string() << "\n";
        return 2;
      }
    }
  }
  std::sort(files.begin(), files.end());

  int total = 0;
  int scanned = 0;
  for (const fs::path& file : files) {
    const std::string rel = RelPath(file, root);
    const FileCategory category = CategorizeRelPath(rel);
    if (category == FileCategory::kExempt) continue;
    std::string source;
    if (!ReadFile(file, &source)) {
      std::cerr << "pgpub_lint: cannot read " << file.string() << "\n";
      return 2;
    }
    ++scanned;
    for (const Finding& f : pgpub::lint::LintSource(rel, category, source,
                                                    options)) {
      std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
      ++total;
    }
  }

  if (total == 0) {
    std::cerr << "pgpub_lint: " << scanned << " files clean\n";
    return 0;
  }
  std::cerr << "pgpub_lint: " << total << " finding" << (total == 1 ? "" : "s")
            << " in " << scanned << " files\n";
  return 1;
}
