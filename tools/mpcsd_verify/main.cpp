// mpcsd-verify: conformance analyzer for machine-body determinism
// and metering/confinement invariants.
//
// Usage:
//   mpcsd_verify [options] <file-or-dir>...
//   mpcsd_verify --self-test <fixtures-dir>
//   mpcsd_verify --list
//
// Options:
//   --report <path>           write a JSON report
//   --quiet                   suppress per-finding lines (exit code only)
//
// Exit codes: 0 clean, 1 findings (or self-test mismatch), 2 usage/IO error
// (including an input path that does not exist).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "diagnostics.hpp"
#include "policy.hpp"
#include "report.hpp"
#include "token_engine.hpp"

namespace fs = std::filesystem;
using namespace mpcsd_verify;

namespace {

struct Options {
  std::string report_path;
  std::string self_test_dir;
  bool list = false;
  bool quiet = false;
  std::vector<std::string> inputs;
};

[[nodiscard]] bool has_source_ext(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h" ||
         ext == ".cxx" || ext == ".hxx";
}

/// Recursively collects source files under `root` (a file or directory).
/// Returns false, after reporting it, when `root` is neither.
[[nodiscard]] bool collect_files(const fs::path& root,
                                 std::vector<std::string>* out) {
  std::error_code ec;
  if (fs::is_regular_file(root, ec)) {
    out->push_back(root.string());
    return true;
  }
  if (!fs::is_directory(root, ec)) {
    std::fprintf(stderr, "mpcsd_verify: cannot read %s\n", root.string().c_str());
    return false;
  }
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (it->is_regular_file(ec) && has_source_ext(it->path())) {
      out->push_back(it->path().string());
    }
  }
  std::sort(out->begin(), out->end());
  return true;
}

[[nodiscard]] bool read_file(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

/// Runs the token engine over `files`, appending to `diags`.
[[nodiscard]] bool analyze(const std::vector<std::string>& files,
                           Diagnostics* diags) {
  for (const std::string& path : files) {
    std::string source;
    if (!read_file(path, &source)) {
      std::fprintf(stderr, "mpcsd_verify: cannot read %s\n", path.c_str());
      return false;
    }
    Diagnostics d = analyze_file_tokens(path, source);
    diags->insert(diags->end(), d.begin(), d.end());
  }
  return true;
}

void print_findings(const Diagnostics& diags) {
  for (const Diagnostic& d : diags) {
    const DiagInfo& di = info(d.id);
    std::fprintf(stderr, "%s:%u: [%.*s] %s%s%s\n", d.file.c_str(), d.line,
                 static_cast<int>(di.name.size()), di.name.data(),
                 d.detail.c_str(), d.detail.empty() ? "" : " — ",
                 std::string(di.summary).c_str());
  }
}

/// Parses `// mpcsd-expect: <id> [<id>...]` annotations.  The expected
/// diagnostic line is the annotation's own line.
[[nodiscard]] bool parse_expectations(const std::string& source,
                                      const std::string& path,
                                      std::multiset<std::pair<std::string, unsigned>>* out) {
  std::istringstream ss(source);
  std::string linetext;
  unsigned lineno = 0;
  bool ok = true;
  while (std::getline(ss, linetext)) {
    ++lineno;
    const std::string marker = "mpcsd-expect:";
    const auto pos = linetext.find(marker);
    if (pos == std::string::npos) continue;
    std::istringstream names(linetext.substr(pos + marker.size()));
    std::string name;
    while (names >> name) {
      DiagId id{};
      if (!parse_diag_name(name, &id)) {
        std::fprintf(stderr, "%s:%u: unknown diagnostic in annotation: %s\n",
                     path.c_str(), lineno, name.c_str());
        ok = false;
        continue;
      }
      out->emplace(name, lineno);
    }
  }
  return ok;
}

/// Self-test: each fixture file must produce exactly its annotated
/// multiset of (diagnostic, line) — no more, no less.  Clean fixtures
/// simply carry no annotations.
[[nodiscard]] int run_self_test(const Options& opt) {
  std::vector<std::string> files;
  if (!collect_files(opt.self_test_dir, &files)) return 2;
  if (files.empty()) {
    std::fprintf(stderr, "mpcsd_verify: no fixtures under %s\n",
                 opt.self_test_dir.c_str());
    return 2;
  }
  std::size_t failures = 0;
  for (const std::string& path : files) {
    std::string source;
    if (!read_file(path, &source)) {
      std::fprintf(stderr, "mpcsd_verify: cannot read %s\n", path.c_str());
      return 2;
    }
    std::multiset<std::pair<std::string, unsigned>> expected;
    if (!parse_expectations(source, path, &expected)) return 2;

    Diagnostics diags;
    if (!analyze({path}, &diags)) return 2;
    std::multiset<std::pair<std::string, unsigned>> actual;
    for (const Diagnostic& d : diags) {
      actual.emplace(std::string(name_of(d.id)), d.line);
    }
    if (actual == expected) continue;
    ++failures;
    std::fprintf(stderr, "FAIL %s\n", path.c_str());
    for (const auto& [name, line] : expected) {
      if (actual.count({name, line}) < expected.count({name, line})) {
        std::fprintf(stderr, "  missing: %s at line %u\n", name.c_str(), line);
      }
    }
    for (const auto& [name, line] : actual) {
      if (expected.count({name, line}) < actual.count({name, line})) {
        std::fprintf(stderr, "  unexpected: %s at line %u\n", name.c_str(), line);
      }
    }
  }
  std::fprintf(stderr, "mpcsd_verify self-test: %zu fixture(s), %zu failure(s)\n",
               files.size(), failures);
  return failures == 0 ? 0 : 1;
}

void print_catalog() {
  std::printf("mpcsd_verify diagnostic catalog (%zu):\n", kCatalog.size());
  for (const DiagInfo& d : kCatalog) {
    std::printf("  %.*s\n      %.*s\n", static_cast<int>(d.name.size()),
                d.name.data(), static_cast<int>(d.summary.size()),
                d.summary.data());
  }
}

[[nodiscard]] int usage() {
  std::fprintf(stderr,
               "usage: mpcsd_verify [--report PATH] [--quiet] <file-or-dir>...\n"
               "       mpcsd_verify --self-test <fixtures-dir>\n"
               "       mpcsd_verify --list\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--report") {
      const char* v = next();
      if (v == nullptr) return usage();
      opt.report_path = v;
    } else if (arg == "--self-test") {
      const char* v = next();
      if (v == nullptr) return usage();
      opt.self_test_dir = v;
    } else if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      opt.inputs.push_back(arg);
    }
  }

  if (opt.list) {
    print_catalog();
    return 0;
  }
  if (!opt.self_test_dir.empty()) return run_self_test(opt);
  if (opt.inputs.empty()) return usage();

  std::vector<std::string> files;
  for (const std::string& in : opt.inputs) {
    if (!collect_files(in, &files)) return 2;
  }
  if (files.empty()) {
    std::fprintf(stderr, "mpcsd_verify: no source files found\n");
    return 2;
  }

  Diagnostics diags;
  if (!analyze(files, &diags)) return 2;
  std::stable_sort(diags.begin(), diags.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });

  if (!opt.quiet) print_findings(diags);
  if (!opt.report_path.empty()) {
    if (!write_file(opt.report_path, render_json_report(diags, files.size()))) {
      std::fprintf(stderr, "mpcsd_verify: cannot write %s\n", opt.report_path.c_str());
      return 2;
    }
  }
  std::fprintf(stderr, "mpcsd_verify: %zu file(s), %zu finding(s)\n",
               files.size(), diags.size());
  return diags.empty() ? 0 : 1;
}
