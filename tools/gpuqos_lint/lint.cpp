#include "lint.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>
#include <thread>

#include "ast.hpp"
#include "rules.hpp"

namespace gpuqos::lint {

const std::vector<std::string>& all_rules() {
  static const std::vector<std::string> kRules = {
      kRuleStateCoverage, kRuleThreadPurity,  kRuleCheckHygiene,
      kRuleHeaderHygiene, kRuleDetHazard,     kRuleConcurrency,
      kRuleEventCapture,  kRuleStateOrder,    kRuleLockDiscipline,
      kRuleInputTaint,    kRuleNarrowingCast};
  return kRules;
}

// ---- ParseCache -----------------------------------------------------------

ParseCache::ParseCache() = default;
ParseCache::~ParseCache() = default;

std::shared_ptr<const ParsedFile> ParseCache::lookup(
    const std::string& path, std::uint64_t stamp) const {
  if (stamp == 0) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(path);
  if (it == entries_.end() || it->second.stamp != stamp) return nullptr;
  return it->second.pf;
}

void ParseCache::store(const std::string& path, std::uint64_t stamp,
                       std::shared_ptr<const ParsedFile> pf) {
  if (stamp == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  entries_[path] = Entry{stamp, std::move(pf)};
}

std::size_t ParseCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::string fingerprint(const Finding& f) {
  return f.rule + "|" + f.file + "|" +
         (f.symbol.empty() ? f.message : f.symbol);
}

namespace {

/// Per-file suppression index built from `NOLINT-gpuqos(...)` comments.
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

void add_rules(std::set<std::string>& dst, const std::string& list) {
  std::stringstream ss(list);
  std::string rule;
  while (std::getline(ss, rule, ',')) {
    const std::size_t b = rule.find_first_not_of(" \t");
    const std::size_t e = rule.find_last_not_of(" \t");
    if (b != std::string::npos) dst.insert(rule.substr(b, e - b + 1));
  }
}

Suppressions collect_suppressions(const ParsedFile& pf) {
  Suppressions s;
  static const std::string kFileMark = "NOLINT-gpuqos-file(";
  static const std::string kLineMark = "NOLINT-gpuqos(";
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
      const std::string rules = c.text.substr(open + 1, close - open - 1);
      if (file_wide) {
        add_rules(s.whole_file, rules);
      } else {
        add_rules(s.by_line[c.line], rules);
        // A comment on its own line suppresses the declaration below it.
        if (c.own_line) add_rules(s.by_line[next_code_line(c.line)], rules);
      }
      pos = close;
    }
  }
  return s;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

LintResult run_lint(const std::vector<SourceFile>& files,
                    const LintOptions& opts) {
  std::vector<FileInput> inputs;
  inputs.reserve(files.size());
  for (const SourceFile& f : files) {
    inputs.push_back(FileInput{f.path, f.content, 0});  // stamp 0: no caching
  }
  ParseCache throwaway;
  return run_lint_cached(inputs, throwaway, opts);
}

LintResult run_lint_cached(const std::vector<FileInput>& files,
                           ParseCache& cache, const LintOptions& opts) {
  using clock = std::chrono::steady_clock;
  auto millis_since = [](clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(clock::now() - t0)
        .count();
  };
  auto enabled = [&](const char* rule) {
    return opts.rules.empty() || opts.rules.count(rule) != 0;
  };

  LintResult result;

  // Parse phase: workers pull indices off a shared counter and write into
  // preallocated slots, so the parsed order (and therefore every downstream
  // ordering) is identical to a sequential run.
  const auto parse_t0 = clock::now();
  std::vector<std::shared_ptr<const ParsedFile>> parsed(files.size());
  std::atomic<std::size_t> next{0};
  std::atomic<int> hits{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= files.size()) return;
      const FileInput& f = files[i];
      if (auto hit = cache.lookup(f.path, f.stamp)) {
        parsed[i] = std::move(hit);
        hits.fetch_add(1);
        continue;
      }
      auto pf =
          std::make_shared<const ParsedFile>(parse(f.path, lex(f.content)));
      cache.store(f.path, f.stamp, pf);
      parsed[i] = std::move(pf);
    }
  };
  unsigned nthreads = opts.threads != 0
                          ? opts.threads
                          : std::min(8u, std::thread::hardware_concurrency());
  nthreads = std::max(
      1u, static_cast<unsigned>(std::min<std::size_t>(nthreads, files.size())));
  if (nthreads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(nthreads);
    for (unsigned k = 0; k < nthreads; ++k) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  result.parse_millis = millis_since(parse_t0);
  result.cache_hits = hits.load();
  // A lint invocation's file list is nowhere near INT_MAX.
  result.files_parsed =
      static_cast<int>(files.size()) - result.cache_hits;  /*narrow:ok*/

  std::vector<const ParsedFile*> view;
  view.reserve(parsed.size());
  for (const auto& pf : parsed) view.push_back(pf.get());

  std::vector<Finding> raw;
  auto timed = [&](const char* rule, auto&& run) {
    if (!enabled(rule)) return;
    const auto t0 = clock::now();
    const std::size_t before = raw.size();
    run();
    result.rule_stats.push_back(RuleStat{
        rule, millis_since(t0),
        static_cast<int>(raw.size() - before)});  /*narrow:ok*/ // delta: small
  };
  timed(kRuleStateCoverage, [&] { rule_state_coverage(view, raw); });
  timed(kRuleThreadPurity,
        [&] { rule_thread_purity(view, opts.purity_roots, raw); });
  timed(kRuleCheckHygiene, [&] {
    for (const ParsedFile* pf : view) rule_check_hygiene(*pf, raw);
  });
  timed(kRuleHeaderHygiene, [&] {
    for (const ParsedFile* pf : view) rule_header_hygiene(*pf, raw);
  });

  // The semantic rules (R5-R11) share one symbol table + call graph; its
  // construction cost is reported as a pseudo-rule in the stats table. The
  // flow rules (R9-R11) additionally share per-function CFGs, likewise
  // reported as a pseudo-rule ("(cfg)" covers nothing on its own: each CFG
  // is built lazily by the first flow rule that needs it, so the build cost
  // lands inside that rule's own timing).
  if (enabled(kRuleDetHazard) || enabled(kRuleConcurrency) ||
      enabled(kRuleEventCapture) || enabled(kRuleStateOrder) ||
      enabled(kRuleLockDiscipline) || enabled(kRuleInputTaint) ||
      enabled(kRuleNarrowingCast)) {
    const auto t0 = clock::now();
    const Symtab st = build_symtab(view);
    const CallGraph cg = build_callgraph(st);
    result.rule_stats.push_back(
        RuleStat{"(symtab+callgraph)", millis_since(t0), 0});
    timed(kRuleDetHazard,
          [&] { rule_det_hazard(st, cg, opts.det_roots, raw); });
    timed(kRuleConcurrency, [&] {
      rule_concurrency_discipline(st, cg, opts.purity_roots, raw);
    });
    timed(kRuleEventCapture,
          [&] { rule_event_capture(st, opts.event_calls, raw); });
    CfgCache cfgs;
    timed(kRuleStateOrder, [&] { rule_state_order(st, raw); });
    timed(kRuleLockDiscipline,
          [&] { rule_lock_discipline(st, cfgs, raw); });
    timed(kRuleInputTaint,
          [&] { rule_input_taint(st, cfgs, opts.taint_scopes, raw); });
    timed(kRuleNarrowingCast,
          [&] { rule_narrowing_cast(st, cfgs, raw); });
  }

  std::map<std::string, Suppressions> by_file;
  for (const ParsedFile* pf : view) {
    by_file.emplace(pf->path, collect_suppressions(*pf));
  }

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

std::set<std::string> parse_baseline(const std::string& text) {
  std::set<std::string> out;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t b = line.find_first_not_of(" \t");
    if (b == std::string::npos || line[b] == '#') continue;
    const std::size_t e = line.find_last_not_of(" \t");
    out.insert(line.substr(b, e - b + 1));
  }
  return out;
}

void apply_baseline(LintResult& result,
                    const std::set<std::string>& baseline) {
  std::vector<Finding> kept;
  for (Finding& f : result.findings) {
    if (baseline.count(fingerprint(f)) != 0) {
      ++result.baseline_filtered;
    } else {
      kept.push_back(std::move(f));
    }
  }
  result.findings = std::move(kept);
}

std::string to_baseline(const LintResult& result) {
  std::set<std::string> prints;
  for (const Finding& f : result.findings) prints.insert(fingerprint(f));
  std::string out =
      "# gpuqos-lint baseline: one `rule|file|symbol` fingerprint per line.\n"
      "# Findings listed here are reported as 'baselined' and do not fail\n"
      "# the lint; burn them down instead of adding to them. Regenerate a\n"
      "# fingerprint with: gpuqos_lint --write-baseline=<file> <paths>.\n";
  for (const std::string& p : prints) out += p + "\n";
  return out;
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
  if (result.baseline_filtered > 0) {
    out += ", " + std::to_string(result.baseline_filtered) + " baselined";
  }
  out += "\n";
  return out;
}

std::string format_json(const LintResult& result) {
  std::string out = "{\n  \"findings\": [";
  bool first = true;
  for (const Finding& f : result.findings) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"rule\": \"" + json_escape(f.rule) + "\", \"file\": \"" +
           json_escape(f.file) + "\", \"line\": " + std::to_string(f.line) +
           ", \"symbol\": \"" + json_escape(f.symbol) +
           "\", \"message\": \"" + json_escape(f.message) + "\"}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"count\": " + std::to_string(result.findings.size()) +
         ",\n  \"nolint_suppressed\": " +
         std::to_string(result.nolint_suppressed) +
         ",\n  \"baseline_filtered\": " +
         std::to_string(result.baseline_filtered) + "\n}\n";
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

std::string format_sarif(const LintResult& result) {
  std::string out =
      "{\n"
      "  \"$schema\": "
      "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
      "Schemata/sarif-schema-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"gpuqos-lint\",\n"
      "          \"informationUri\": \"docs/ANALYSIS.md\",\n"
      "          \"rules\": [";
  bool first = true;
  for (const std::string& rule : all_rules()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "            {\"id\": \"" + json_escape(rule) + "\"}";
  }
  out += first ? "]\n" : "\n          ]\n";
  out +=
      "        }\n"
      "      },\n"
      "      \"results\": [";
  first = true;
  for (const Finding& f : result.findings) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "        {\"ruleId\": \"" + json_escape(f.rule) +
           "\", \"level\": \"error\", \"message\": {\"text\": \"" +
           json_escape(f.message) +
           "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \"" +
           json_escape(f.file) +
           "\"}, \"region\": {\"startLine\": " + std::to_string(f.line) +
           "}}}], \"partialFingerprints\": {\"gpuqosLintFingerprint/v1\": "
           "\"" +
           json_escape(fingerprint(f)) + "\"}}";
  }
  out += first ? "]\n" : "\n      ]\n";
  out +=
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

std::string format_stats(const LintResult& result) {
  char buf[160];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "parse: %.1f ms (%d parsed, %d cache hit%s)\n",
                result.parse_millis, result.files_parsed, result.cache_hits,
                result.cache_hits == 1 ? "" : "s");
  out += buf;
  out += "rule                       ms  findings\n";
  for (const RuleStat& rs : result.rule_stats) {
    std::snprintf(buf, sizeof buf, "%-22s %7.1f  %8d\n", rs.rule.c_str(),
                  rs.millis, rs.findings);
    out += buf;
  }
  return out;
}

}  // namespace gpuqos::lint
