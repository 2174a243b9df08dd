// gpuqos_lint CLI (docs/ANALYSIS.md, "gpuqos-lint").
//
//   gpuqos_lint [--format=github] <file-or-dir>...
//     --format=github  GitHub workflow annotations instead of the default
//                      human-readable report
//     --list-rules     print rule names and exit
//
// Exit status: 0 clean (after NOLINT), 1 findings, 2 usage/IO error.
// Directories are scanned recursively for .hpp/.cpp, skipping build*/ and
// hidden directories. Findings carry the paths as given.
//
// NOLINT-gpuqos-file(check-hygiene): a command-line tool writes its usage
// and I/O errors to stderr; there is no simulation cycle to stamp them with.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "lint.hpp"

namespace fs = std::filesystem;
using namespace gpuqos::lint;

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--format=github] [--list-rules] <file-or-dir>...\n";
  return 2;
}

bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

void collect(const fs::path& p, std::vector<fs::path>& out) {
  if (fs::is_regular_file(p)) {
    const std::string ext = p.extension().string();
    if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc") {
      out.push_back(p);
    }
    return;
  }
  if (!fs::is_directory(p)) return;
  for (const auto& entry : fs::directory_iterator(p)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_directory()) {
      if (name.rfind("build", 0) == 0 || name.front() == '.') continue;
      collect(entry.path(), out);
    } else {
      collect(entry.path(), out);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool github = false;
  std::vector<fs::path> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--list-rules") {
      for (const std::string& r : all_rules()) std::cout << r << "\n";
      return 0;
    } else if (arg == "--format=github") {
      github = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (inputs.empty()) return usage(argv[0]);

  std::vector<fs::path> paths;
  for (const fs::path& p : inputs) {
    if (!fs::exists(p)) {
      std::cerr << "gpuqos_lint: no such file or directory: " << p << "\n";
      return 2;
    }
    collect(p, paths);
  }
  std::sort(paths.begin(), paths.end());

  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const fs::path& p : paths) {
    SourceFile f;
    f.path = p.generic_string();
    if (!read_file(p, f.content)) {
      std::cerr << "gpuqos_lint: cannot read " << p << "\n";
      return 2;
    }
    files.push_back(std::move(f));
  }

  const LintResult result = run_lint(files);
  if (github) {
    std::cout << format_github(result);
    std::cout << result.findings.size() << " finding(s)\n";
  } else {
    std::cout << format_human(result);
  }
  return result.findings.empty() ? 0 : 1;
}
