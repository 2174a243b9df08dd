// Flow-sensitive rule family R11 (docs/ANALYSIS.md, "gpuqos-lint").
//
// R11 (narrowing-cast) runs the abstract interpreter (absint.hpp) over
// per-function CFGs (cfg.hpp) with "c:<chain>" must-facts marking values a
// comparison dominates, consumed by static_cast-to-narrow sites.
// All of it is token-stream heuristics in the house style of rules_sem.cpp:
// precise on this project's idioms, conservative elsewhere.
#include <cctype>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "absint.hpp"
#include "cfg.hpp"
#include "dataflow.hpp"
#include "rules.hpp"

namespace gpuqos::lint {
namespace {

// ---- member-chain scanning ------------------------------------------------

/// A dotted member chain recovered from the token stream: `arr.items.size`
/// for `arr.items.size()`, `jobs_` for `this->jobs_`. Chains are the keys of
/// every flow lattice, so reads and writes of the same l-value agree.
struct ChainRef {
  std::string key;        // dotted, 'this->' stripped, '->' folded to '.'
  std::size_t begin = 0;  // first token of the chain
  std::size_t end = 0;    // one past the last chain token (call args excl.)
  bool is_call = false;   // chain ends at a '(': last segment is a callee
};

/// Parse the chain starting at t[k]. Fails mid-chain (prev token is a member
/// or scope operator, so the head was already consumed) and on qualified
/// names (`std::min` is a callee, never an l-value we track).
bool parse_chain(const std::vector<Token>& t, std::size_t k, std::size_t limit,
                 ChainRef& out) {
  if (k >= limit || t[k].kind != Tok::Ident) return false;
  if (k > 0 && t[k - 1].kind == Tok::Punct &&
      (t[k - 1].text == "." || t[k - 1].text == "->" ||
       t[k - 1].text == "::")) {
    return false;
  }
  out.begin = k;
  std::size_t j = k;
  if (t[j].text == "this" && j + 1 < limit && t[j + 1].kind == Tok::Punct &&
      t[j + 1].text == "->") {
    j += 2;
    if (j >= limit || t[j].kind != Tok::Ident) return false;
  }
  if (j + 1 < limit && t[j + 1].kind == Tok::Punct &&
      t[j + 1].text == "::") {
    return false;
  }
  out.key = t[j].text;
  ++j;
  out.is_call = j < limit && t[j].kind == Tok::Punct && t[j].text == "(";
  while (!out.is_call && j + 1 < limit && t[j].kind == Tok::Punct &&
         (t[j].text == "." || t[j].text == "->") &&
         t[j + 1].kind == Tok::Ident) {
    out.key += "." + t[j + 1].text;
    j += 2;
    out.is_call = j < limit && t[j].kind == Tok::Punct && t[j].text == "(";
  }
  out.end = j;
  return true;
}

std::vector<ChainRef> chains_in(const std::vector<Token>& t, std::size_t b,
                                std::size_t e) {
  std::vector<ChainRef> out;
  for (std::size_t k = b; k < e;) {
    ChainRef c;
    if (parse_chain(t, k, e, c)) {
      out.push_back(c);
      k = c.end;
    } else {
      ++k;
    }
  }
  return out;
}

std::vector<std::string> split_chain(const std::string& key) {
  std::vector<std::string> parts;
  std::size_t b = 0;
  for (std::size_t i = 0; i <= key.size(); ++i) {
    if (i == key.size() || key[i] == '.') {
      parts.push_back(key.substr(b, i - b));
      b = i + 1;
    }
  }
  return parts;
}

/// Declared type of a (possibly partial) chain, following member links
/// through known classes. `drop_last` skips the final segment (a method name
/// on call chains). Empty when unresolved.
std::string chain_type(const SymFn& fn,
                       const std::map<std::string, LocalVar>& locals,
                       const Symtab& st, const std::vector<std::string>& parts,
                       std::size_t take) {
  if (take == 0 || parts.empty()) return "";
  std::string type = resolve_type(fn, locals, st, parts[0]);
  for (std::size_t i = 1; i < take && i < parts.size(); ++i) {
    const SymClass* cls = st.find_class(Symtab::type_class(type));
    if (cls == nullptr) return "";
    auto fit = cls->fields.find(parts[i]);
    if (fit == cls->fields.end()) return "";
    type = fit->second->type;
  }
  return type;
}

/// Whether the space-joined type string contains `word` as a whole token.
bool type_has_word(const std::string& type, const char* word) {
  const std::size_t n = std::string(word).size();
  for (std::size_t pos = 0; (pos = type.find(word, pos)) != std::string::npos;
       pos += n) {
    const bool lb = pos == 0 || !(std::isalnum(static_cast<unsigned char>(
                                      type[pos - 1])) ||
                                  type[pos - 1] == '_');
    const std::size_t after = pos + n;
    const bool rb =
        after >= type.size() ||
        !(std::isalnum(static_cast<unsigned char>(type[after])) ||
          type[after] == '_');
    if (lb && rb) return true;
  }
  return false;
}

bool range_has_call(const std::vector<Token>& t, std::size_t b, std::size_t e,
                    std::initializer_list<const char*> names) {
  for (std::size_t k = b; k + 1 < e; ++k) {
    if (t[k].kind != Tok::Ident || !is_one_of(t[k].text, names)) continue;
    std::size_t p = k + 1;
    // Hop explicit template arguments: std::min<std::size_t>(...).
    if (t[p].kind == Tok::Punct && t[p].text == "<") {
      p = match_close(t, p, "<", ">", e);
      if (p >= e) continue;
      ++p;
    }
    if (p < e && t[p].kind == Tok::Punct && t[p].text == "(") return true;
  }
  return false;
}

bool range_has_punct(const std::vector<Token>& t, std::size_t b, std::size_t e,
                     std::initializer_list<const char*> ops) {
  for (std::size_t k = b; k < e; ++k) {
    if (t[k].kind == Tok::Punct && is_one_of(t[k].text, ops)) return true;
  }
  return false;
}

const std::initializer_list<const char*> kComparisons = {"<",  "<=", ">",
                                                         ">=", "==", "!="};

}  // namespace

// ---- R11: narrowing-cast --------------------------------------------------

namespace {

bool is_narrow_type(const std::vector<Token>& t, std::size_t b,
                    std::size_t e) {
  bool narrow = false;
  for (std::size_t k = b; k < e; ++k) {
    if (t[k].kind != Tok::Ident) continue;
    const std::string& s = t[k].text;
    if (is_one_of(s, {"uint64_t", "int64_t", "size_t", "long", "double",
                      "float", "ptrdiff_t", "intptr_t", "uintptr_t",
                      "time_t", "streamsize", "streamoff", "off_t", "Cycle",
                      "u64", "i64", "bool", "void"})) {
      return false;  // target is wide (or not an integer truncation)
    }
    if (is_one_of(s, {"uint32_t", "int32_t", "uint16_t", "int16_t",
                      "uint8_t", "int8_t", "int", "unsigned", "short",
                      "char", "u32", "u16", "u8", "i32", "i16", "i8"})) {
      narrow = true;
    }
  }
  return narrow;
}

class NarrowDomain : public Domain {
 public:
  NarrowDomain(const SymFn& fn, const Symtab& st,
               std::map<std::string, LocalVar> locals,
               std::vector<Finding>& out)
      : fn_(fn),
        st_(st),
        locals_(std::move(locals)),
        out_(out),
        t_(fn.file->ts.tokens) {}

  int join(const std::string&, int, int) const override { return 1; }
  int join_missing(const std::string&, int) const override { return kDrop; }

  void transfer(AbsState& s, const CfgStmt& stmt) override {
    // Assignments either establish a bound (masking / min / clamp), copy an
    // existing bound, or invalidate a stale one.
    int depth = 0;
    std::size_t op = stmt.end;
    for (std::size_t k = stmt.begin; k < stmt.end; ++k) {
      if (t_[k].kind != Tok::Punct) continue;
      const std::string& p = t_[k].text;
      if (p == "(" || p == "[" || p == "{") ++depth;
      if (p == ")" || p == "]" || p == "}") --depth;
      if (depth == 0 && p == "=") {
        op = k;
        break;
      }
    }
    if (op == stmt.end) return;
    ChainRef target;
    {
      std::size_t p = op - 1;
      if (t_[p].kind != Tok::Ident) return;
      std::size_t cs = p;
      while (cs >= stmt.begin + 2 && t_[cs - 1].kind == Tok::Punct &&
             (t_[cs - 1].text == "." || t_[cs - 1].text == "->") &&
             t_[cs - 2].kind == Tok::Ident) {
        cs -= 2;
      }
      if (!parse_chain(t_, cs, op, target)) return;
    }
    const bool bounded =
        range_has_punct(t_, op + 1, stmt.end, {">>", "&", "%"}) ||
        range_has_call(t_, op + 1, stmt.end, {"min", "clamp"});
    if (bounded) {
      s["c:" + target.key] = 1;
      return;
    }
    const std::vector<ChainRef> rhs = chains_in(t_, op + 1, stmt.end);
    if (rhs.size() == 1 && !rhs[0].is_call &&
        s.count("c:" + rhs[0].key) != 0) {
      s["c:" + target.key] = 1;  // bound propagates through a plain copy
    } else {
      s.erase("c:" + target.key);
    }
  }

  void transfer_branch(AbsState& s, const CfgBlock& b, bool) override {
    if (!range_has_punct(t_, b.cond_begin, b.cond_end, kComparisons)) return;
    for (const ChainRef& c : chains_in(t_, b.cond_begin, b.cond_end)) {
      s["c:" + c.key] = 1;
    }
  }

  void visit(const AbsState& s, const CfgStmt& stmt) override {
    for (std::size_t k = stmt.begin; k + 1 < stmt.end; ++k) {
      if (t_[k].kind != Tok::Ident || t_[k].text != "static_cast") continue;
      if (t_[k + 1].kind != Tok::Punct || t_[k + 1].text != "<") continue;
      const std::size_t tclose = match_close(t_, k + 1, "<", ">", stmt.end);
      if (tclose >= stmt.end || !is_narrow_type(t_, k + 2, tclose)) continue;
      if (tclose + 1 >= stmt.end || t_[tclose + 1].kind != Tok::Punct ||
          t_[tclose + 1].text != "(") {
        continue;
      }
      const std::size_t close =
          match_close(t_, tclose + 1, "(", ")", stmt.end);
      const std::size_t eb = tclose + 2;
      // Masking, shifting, and modulo are the sanctioned truncation idioms;
      // bit-position functions are bounded by the operand width by
      // construction.
      if (range_has_punct(t_, eb, close, {">>", "&", "%"})) continue;
      if (range_has_call(t_, eb, close,
                         {"min", "clamp", "countr_zero", "countl_zero",
                          "popcount", "bit_width"})) {
        continue;
      }

      bool wide = false;
      bool all_checked = true;
      std::string culprit;
      int bdepth = 0;
      for (std::size_t j = eb; j < close;) {
        // Chains inside a subscript index the container; the cast truncates
        // the element, not them.
        if (t_[j].kind == Tok::Punct) {
          if (t_[j].text == "[") ++bdepth;
          if (t_[j].text == "]") --bdepth;
        }
        ChainRef c;
        if (bdepth > 0 || !parse_chain(t_, j, close, c)) {
          ++j;
          continue;
        }
        j = c.end;
        const std::vector<std::string> parts = split_chain(c.key);
        bool w = false;
        if (c.is_call) {
          w = is_one_of(parts.back(),
                        {"size", "length", "remaining", "count", "u64",
                         "i64"});
          // The call's *result* is the cast operand; its arguments are not
          // truncated. Hop the argument list so a wide index passed into
          // `policy_->victim(set)` does not flag the cast of the return.
          if (j < close && t_[j].kind == Tok::Punct && t_[j].text == "(") {
            j = match_close(t_, j, "(", ")", close);
            if (j < close) ++j;
          }
        } else {
          const std::string type =
              chain_type(fn_, locals_, st_, parts, parts.size());
          if (type.empty()) continue;  // unknown: stay quiet
          w = type_has_word(type, "uint64_t") ||
              type_has_word(type, "int64_t") ||
              type_has_word(type, "size_t") || type_has_word(type, "long") ||
              type_has_word(type, "Cycle") || type_has_word(type, "u64") ||
              type_has_word(type, "i64");
          // constexpr only: a `const` local can still hold a value the
          // reader or a peer controls.
          if (w && type_has_word(type, "constexpr")) {
            continue;  // named constants are author-bounded
          }
        }
        if (!w) continue;
        wide = true;
        if (s.count("c:" + c.key) == 0 &&
            !checked_in_stmt(stmt, eb, close, c.key)) {
          all_checked = false;
          if (culprit.empty()) culprit = c.key;
        }
      }
      if (!wide || all_checked) continue;
      if (line_annotated(*fn_.file, t_[k].line, "narrow:ok")) continue;
      out_.push_back(make(
          kRuleNarrowingCast, fn_.file->path, t_[k].line, fn_.qualified,
          "narrowing cast of 64-bit value '" + culprit +
              "' with no dominating range check — values past the narrow "
              "type wrap silently (check against a cap first, mask the "
              "intended bits, or /*narrow:ok: reason*/)"));
    }
  }

 private:
  /// Same-statement comparison against `key`, outside the cast expression
  /// [eb, close). Catches checks the CFG cannot see as dominating blocks:
  /// the guard arm of a ternary and range checks inside an opaque lambda
  /// body (`if (wide > cap) return false; *out = static_cast<u32>(wide);`).
  bool checked_in_stmt(const CfgStmt& stmt, std::size_t eb, std::size_t close,
                       const std::string& key) const {
    for (std::size_t k = stmt.begin; k < stmt.end;) {
      if (k >= eb && k < close) {
        k = close;
        continue;
      }
      ChainRef c;
      if (!parse_chain(t_, k, stmt.end, c)) {
        ++k;
        continue;
      }
      k = c.end;
      if (c.key != key) continue;
      if (c.begin > stmt.begin && t_[c.begin - 1].kind == Tok::Punct &&
          is_one_of(t_[c.begin - 1].text, kComparisons)) {
        return true;
      }
      std::size_t r = c.end;  // hop a call's argument parens
      if (c.is_call && r < stmt.end) {
        r = match_close(t_, r, "(", ")", stmt.end);
        if (r < stmt.end) ++r;
      }
      if (r < stmt.end && t_[r].kind == Tok::Punct &&
          is_one_of(t_[r].text, kComparisons)) {
        return true;
      }
    }
    return false;
  }

  const SymFn& fn_;
  const Symtab& st_;
  std::map<std::string, LocalVar> locals_;
  std::vector<Finding>& out_;
  const std::vector<Token>& t_;
};

}  // namespace

void rule_narrowing_cast(const Symtab& st, std::vector<Finding>& out) {
  for (const SymFn& fn : st.fns) {
    if (fn.def->body_end <= fn.def->body_begin) continue;
    if (fn.def->body_idents.count("static_cast") == 0) continue;
    const Cfg cfg =
        build_cfg(fn.file->ts.tokens, fn.def->body_begin, fn.def->body_end);
    NarrowDomain d(fn, st, scan_locals(fn), out);
    const AbsResult r = solve(cfg, d);
    report(cfg, d, r);
  }
}

}  // namespace gpuqos::lint
