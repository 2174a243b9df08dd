#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>

#include "ast.hpp"
#include "rules.hpp"

namespace gpuqos::lint {

const std::vector<std::string>& all_rules() {
  static const std::vector<std::string> kRules = {
      kRuleStateCoverage, kRuleThreadPurity, kRuleCheckHygiene,
      kRuleHeaderHygiene, kRuleDetHazard,    kRuleNarrowingCast};
  return kRules;
}

namespace {

/// Per-file suppression index built from the file's NOLINT-gpuqos comments.
struct Suppressions {
  // line -> rules suppressed on that line (and, for own-line comments, the
  // following line).
  std::map<int, std::set<std::string>> by_line;
  std::set<std::string> whole_file;

  [[nodiscard]] bool covers(const Finding& f) const {
    if (whole_file.count(f.rule) != 0 || whole_file.count("*") != 0) {
      return true;
    }
    auto it = by_line.find(f.line);
    if (it == by_line.end()) return false;
    return it->second.count(f.rule) != 0 || it->second.count("*") != 0;
  }
};

std::vector<std::string> split_rules(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss(list);
  std::string rule;
  while (std::getline(ss, rule, ',')) {
    const std::size_t b = rule.find_first_not_of(" \t");
    const std::size_t e = rule.find_last_not_of(" \t");
    if (b != std::string::npos) out.push_back(rule.substr(b, e - b + 1));
  }
  return out;
}

/// A suppression entry that reads as a rule name but names no rule silences
/// nothing — typically a rule that was deleted or renamed. Placeholders in
/// prose (`<rule>`, `...`) are not names and pass.
bool is_stale(const std::string& name) {
  if (name == "*") return false;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-' &&
        c != '_') {
      return false;
    }
  }
  const std::vector<std::string>& rules = all_rules();
  return std::find(rules.begin(), rules.end(), name) == rules.end();
}

/// Index the file's suppressions; append a check-hygiene finding to `out`
/// for every stale rule name they list.
Suppressions collect_suppressions(const ParsedFile& pf,
                                  std::vector<Finding>& out) {
  Suppressions s;
  static const std::string kFileMark = "NOLINT-gpuqos-file(";
  // An own-line suppression covers the next line holding code, so a NOLINT
  // explanation may span several comment lines above the declaration.
  std::vector<int> code_lines;
  for (const Token& t : pf.ts.tokens) {
    if (t.kind != Tok::Eof && t.starts_line) code_lines.push_back(t.line);
  }
  auto next_code_line = [&](int line) {
    auto it = std::upper_bound(code_lines.begin(), code_lines.end(), line);
    return it != code_lines.end() ? *it : line + 1;
  };
  for (const Comment& c : pf.ts.comments) {
    for (std::size_t pos = 0;
         (pos = c.text.find("NOLINT-gpuqos", pos)) != std::string::npos;) {
      const bool file_wide =
          c.text.compare(pos, kFileMark.size(), kFileMark) == 0;
      const std::size_t open = c.text.find('(', pos);
      if (open == std::string::npos) break;
      const std::size_t close = c.text.find(')', open);
      if (close == std::string::npos) break;
      for (const std::string& rule :
           split_rules(c.text.substr(open + 1, close - open - 1))) {
        if (is_stale(rule)) {
          out.push_back(make(
              kRuleCheckHygiene, pf.path, c.line, "stale-nolint:" + rule,
              "NOLINT-gpuqos names '" + rule + "', which is not a "
              "gpuqos-lint rule — it suppresses nothing; delete it, or name "
              "a rule from --list-rules"));
        }
        if (file_wide) {
          s.whole_file.insert(rule);
        } else {
          s.by_line[c.line].insert(rule);
          // A comment on its own line suppresses the declaration below it.
          if (c.own_line) s.by_line[next_code_line(c.line)].insert(rule);
        }
      }
      pos = close;
    }
  }
  return s;
}

}  // namespace

LintResult run_lint(const std::vector<SourceFile>& files) {
  std::vector<ParsedFile> parsed;
  parsed.reserve(files.size());
  for (const SourceFile& f : files) {
    parsed.push_back(parse(f.path, lex(f.content)));
  }
  std::vector<const ParsedFile*> view;
  view.reserve(parsed.size());
  for (const ParsedFile& pf : parsed) view.push_back(&pf);

  // Reachability roots: the pooled-sweep entry points for thread-purity, the
  // state-walk methods for det-hazard. When none of a list is defined in the
  // scanned set, every function counts as reachable (conservative fallback,
  // also what lets test snippets lint).
  static const std::vector<std::string> kPurityRoots = {"run_many",
                                                        "run_hetero"};
  static const std::vector<std::string> kDetRoots = {"tick", "digest", "save",
                                                     "load"};
  std::vector<Finding> raw;
  rule_state_coverage(view, raw);
  rule_thread_purity(view, kPurityRoots, raw);
  for (const ParsedFile* pf : view) {
    rule_check_hygiene(*pf, raw);
    rule_header_hygiene(*pf, raw);
  }
  const Symtab st = build_symtab(view);
  const CallGraph cg = build_callgraph(st);
  rule_det_hazard(st, cg, kDetRoots, raw);
  rule_narrowing_cast(st, raw);

  std::map<std::string, Suppressions> by_file;
  for (const ParsedFile* pf : view) {
    by_file.emplace(pf->path, collect_suppressions(*pf, raw));
  }

  LintResult result;

  for (Finding& f : raw) {
    auto it = by_file.find(f.file);
    if (it != by_file.end() && it->second.covers(f)) {
      ++result.nolint_suppressed;
    } else {
      result.findings.push_back(std::move(f));
    }
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  return result;
}

std::string format_human(const LintResult& result) {
  std::string out;
  for (const Finding& f : result.findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message + "\n";
  }
  out += std::to_string(result.findings.size()) + " finding(s)";
  if (result.nolint_suppressed > 0) {
    out += ", " + std::to_string(result.nolint_suppressed) +
           " suppressed by NOLINT";
  }
  out += "\n";
  return out;
}

std::string format_github(const LintResult& result) {
  std::string out;
  for (const Finding& f : result.findings) {
    out += "::error file=" + f.file + ",line=" + std::to_string(f.line) +
           ",title=gpuqos-lint(" + f.rule + ")::" + f.message + "\n";
  }
  return out;
}

}  // namespace gpuqos::lint
