// Flow-sensitive rule families R8-R11 (docs/ANALYSIS.md, "gpuqos-lint v3").
//
// R8 (state-order) is sequence-based: it extracts the ordered stream of
// StateWriter/StateReader primitive calls and sub-object save/load calls from
// each class's save()/load() bodies and demands they line up pairwise, then
// checks that the first-touch order of fields common to save/load (and
// save/digest) agrees. R9-R11 run the abstract interpreter (absint.hpp) over
// per-function CFGs (cfg.hpp) with three small lattices:
//   R9  lock-discipline: "g:<guard>" must-facts over RAII guard scopes, a
//       global mutex acquisition-order graph, blocking calls under a lock,
//       and guarded-field writes outside the held region;
//   R10 input-taint:     "t:<chain>" may-facts (2 = tainted, 1 = passed a
//       dominating bound check) from StateReader sources to allocation
//       /copy/loop/index sinks;
//   R11 narrowing-cast:  "c:<chain>" must-facts marking values a comparison
//       dominates, consumed by static_cast-to-narrow sites.
// All of it is token-stream heuristics in the house style of rules_sem.cpp:
// precise on this project's idioms, conservative elsewhere.
#include <algorithm>
#include <cctype>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "absint.hpp"
#include "cfg.hpp"
#include "dataflow.hpp"
#include "rules.hpp"

namespace gpuqos::lint {
namespace {

Finding make(const char* rule, const std::string& file, int line,
             std::string symbol, std::string message) {
  Finding f;
  f.rule = rule;
  f.file = file;
  f.line = line;
  f.symbol = std::move(symbol);
  f.message = std::move(message);
  return f;
}

bool is_one_of(const std::string& s, std::initializer_list<const char*> set) {
  return std::any_of(set.begin(), set.end(),
                     [&](const char* v) { return s == v; });
}

std::string simple_name(const std::string& name) {
  return name.substr(name.rfind(':') + 1);
}

/// Matching close for the punct group opened at t[open].
std::size_t match_close(const std::vector<Token>& t, std::size_t open,
                        const char* o, const char* c, std::size_t limit) {
  int depth = 0;
  for (std::size_t k = open; k < limit; ++k) {
    if (t[k].kind != Tok::Punct) continue;
    if (t[k].text == o) ++depth;
    if (t[k].text == c && --depth == 0) return k;
  }
  return limit;
}

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

/// Top-level comma split of a call-argument token range (depth over ([{).
std::vector<std::pair<std::size_t, std::size_t>> split_args(
    const std::vector<Token>& t, std::size_t b, std::size_t e) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  int depth = 0;
  std::size_t start = b;
  for (std::size_t k = b; k < e; ++k) {
    if (t[k].kind != Tok::Punct) continue;
    const std::string& s = t[k].text;
    if (s == "(" || s == "[" || s == "{") ++depth;
    if (s == ")" || s == "]" || s == "}") --depth;
    if (s == "," && depth == 0) {
      out.emplace_back(start, k);
      start = k + 1;
    }
  }
  if (e > start) out.emplace_back(start, e);
  return out;
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

// ---- CfgCache -------------------------------------------------------------

CfgCache::CfgCache() = default;
CfgCache::~CfgCache() = default;

const Cfg& CfgCache::get(const SymFn& fn) {
  auto it = by_fn_.find(fn.def);
  if (it == by_fn_.end()) {
    it = by_fn_
             .emplace(fn.def, build_cfg(fn.file->ts.tokens,
                                        fn.def->body_begin, fn.def->body_end))
             .first;
  }
  return it->second;
}

// ---- R8: state-order ------------------------------------------------------

namespace {

const std::set<std::string>& reader_writer_prims() {
  static const std::set<std::string> kPrims = {
      "u8", "u16", "u32", "u64", "i32", "i64", "f64", "boolean", "str",
      "bytes"};
  return kPrims;
}

struct StateOp {
  bool sub = false;   // sub-object save/load/digest call
  std::string what;   // primitive name, or the sub-object receiver
  int line = 0;
};

struct StateSeq {
  const SymFn* fn = nullptr;
  std::vector<StateOp> ops;
  std::vector<std::string> field_order;  // first-touch order
  std::map<std::string, int> field_line;
};

std::string describe(const StateOp& op) {
  return op.sub ? "sub-state '" + op.what + "'" : "." + op.what + "()";
}

/// Receiver identifier of a `.save(`/`.load(`/`.digest(` call: the ident
/// before the member operator, hopping back over one `[...]` subscript.
std::string sub_receiver(const std::vector<Token>& t, std::size_t dot,
                         std::size_t lo) {
  if (dot <= lo) return "";
  std::size_t j = dot - 1;
  if (t[j].kind == Tok::Punct && t[j].text == "]") {
    int depth = 0;
    while (j > lo) {
      if (t[j].kind == Tok::Punct && t[j].text == "]") ++depth;
      if (t[j].kind == Tok::Punct && t[j].text == "[" && --depth == 0) {
        if (j == lo) return "";
        --j;
        break;
      }
      --j;
    }
  }
  return t[j].kind == Tok::Ident ? t[j].text : "";
}

enum class Role { kSave, kLoad, kDigest };

StateSeq extract_seq(const SymClass& cls, const SymFn& fn, Role role) {
  StateSeq seq;
  seq.fn = &fn;
  const std::vector<Token>& t = fn.file->ts.tokens;
  if (fn.def->body_end <= fn.def->body_begin) return seq;

  // The serialization stream parameter (save/load only).
  std::string stream;
  if (role != Role::kDigest) {
    const char* want =
        role == Role::kSave ? "StateWriter" : "StateReader";
    for (const ParamDecl& p : fn.def->params) {
      if (!p.name.empty() && p.type.find(want) != std::string::npos) {
        stream = p.name;
        break;
      }
    }
  }
  const char* sub_call = role == Role::kSave    ? "save"
                         : role == Role::kLoad  ? "load"
                                                : "digest";

  const std::size_t lo = fn.def->body_begin;
  for (std::size_t k = lo + 1; k + 1 < fn.def->body_end; ++k) {
    if (t[k].kind != Tok::Ident) continue;
    const std::string& s = t[k].text;
    // Primitive stream op: w.u64(...), r.str(...).
    if (!stream.empty() && s == stream && k + 3 < fn.def->body_end &&
        t[k + 1].kind == Tok::Punct &&
        (t[k + 1].text == "." || t[k + 1].text == "->") &&
        t[k + 2].kind == Tok::Ident && t[k + 3].kind == Tok::Punct &&
        t[k + 3].text == "(" &&
        reader_writer_prims().count(t[k + 2].text) != 0) {
      seq.ops.push_back(StateOp{false, t[k + 2].text, t[k + 2].line});
    }
    // Sub-object hop: rob_.save(w) / rob_.load(r) / h.mix(rob_.digest()).
    if (s == sub_call && k > lo && k + 1 < fn.def->body_end &&
        t[k - 1].kind == Tok::Punct &&
        (t[k - 1].text == "." || t[k - 1].text == "->") &&
        t[k + 1].kind == Tok::Punct && t[k + 1].text == "(") {
      const std::string recv = sub_receiver(t, k - 1, lo);
      if (!recv.empty() && recv != stream) {
        seq.ops.push_back(StateOp{true, recv, t[k].line});
      }
    }
    // Field first-touch order. Access through another object (x.field)
    // doesn't touch our field; `this->field` does.
    if (cls.fields.count(s) != 0) {
      const bool through_other =
          t[k - 1].kind == Tok::Punct &&
          (t[k - 1].text == "." || t[k - 1].text == "::" ||
           (t[k - 1].text == "->" &&
            !(k >= 2 && t[k - 2].kind == Tok::Ident &&
              t[k - 2].text == "this")));
      if (!through_other && seq.field_line.emplace(s, t[k].line).second) {
        seq.field_order.push_back(s);
      }
    }
  }
  return seq;
}

/// Fields present in both sequences, in `a`'s order.
std::vector<std::string> common_fields(const StateSeq& a, const StateSeq& b) {
  std::vector<std::string> out;
  for (const std::string& f : a.field_order) {
    if (b.field_line.count(f) != 0) out.push_back(f);
  }
  return out;
}

}  // namespace

void rule_state_order(const Symtab& st, std::vector<Finding>& out) {
  // Group save/load/digest definitions by their class.
  struct Trio {
    const SymFn* save = nullptr;
    const SymFn* load = nullptr;
    const SymFn* digest = nullptr;
  };
  std::map<std::string, Trio> by_class;
  for (const SymFn& fn : st.fns) {
    if (fn.def->qual_class.empty() ||
        fn.def->body_end <= fn.def->body_begin) {
      continue;
    }
    Trio& trio = by_class[fn.def->qual_class];
    if (fn.def->name == "save" && trio.save == nullptr) trio.save = &fn;
    if (fn.def->name == "load" && trio.load == nullptr) trio.load = &fn;
    if (fn.def->name == "digest" && trio.digest == nullptr) trio.digest = &fn;
  }

  auto emit = [&](const SymFn& at, int line, const std::string& cls,
                  const std::string& msg) {
    if (line_annotated(*at.file, line, "order:ok")) return;
    if (line_annotated(*at.file, at.def->line, "order:ok")) return;
    out.push_back(make(kRuleStateOrder, at.file->path, line,
                       cls + "::" + at.def->name, msg));
  };

  for (const auto& [qual, trio] : by_class) {
    const SymClass* cls = st.find_class(qual);
    if (cls == nullptr) cls = st.find_class(simple_name(qual));
    if (cls == nullptr || trio.save == nullptr || trio.load == nullptr) {
      continue;
    }
    const StateSeq save = extract_seq(*cls, *trio.save, Role::kSave);
    const StateSeq load = extract_seq(*cls, *trio.load, Role::kLoad);
    if (save.ops.empty() && load.ops.empty()) continue;

    // 1) The primitive/sub-call streams must agree element by element —
    //    this is the byte order of the snapshot.
    bool stream_diverged = false;
    const std::size_t n = std::min(save.ops.size(), load.ops.size());
    for (std::size_t i = 0; i < n; ++i) {
      const StateOp& a = save.ops[i];
      const StateOp& b = load.ops[i];
      if (a.sub == b.sub && a.what == b.what) continue;
      emit(*trio.load, b.line, cls->name,
           "save() step " + std::to_string(i + 1) + " writes " + describe(a) +
               " but load() reads " + describe(b) +
               " — snapshot byte order must be symmetric "
               "(/*order:ok: reason*/ if the asymmetry is deliberate)");
      stream_diverged = true;
      break;
    }
    if (!stream_diverged && save.ops.size() != load.ops.size()) {
      const bool save_longer = save.ops.size() > load.ops.size();
      const SymFn& at = save_longer ? *trio.save : *trio.load;
      const StateOp& extra =
          save_longer ? save.ops[load.ops.size()] : load.ops[save.ops.size()];
      emit(at, extra.line, cls->name,
           "save() has " + std::to_string(save.ops.size()) +
               " serialization steps but load() has " +
               std::to_string(load.ops.size()) + " — first unmatched is " +
               describe(extra) +
               " (save/load drift shows up as a runtime CRC mismatch)");
      stream_diverged = true;
    }

    // 2) First-touch order of the fields both bodies reference (load-only
    //    reconstruction like derived tables is fine and ignored here).
    if (!stream_diverged) {
      const std::vector<std::string> in_save = common_fields(save, load);
      const std::vector<std::string> in_load = common_fields(load, save);
      for (std::size_t i = 0; i < in_save.size() && i < in_load.size(); ++i) {
        if (in_save[i] == in_load[i]) continue;
        emit(*trio.load, load.field_line.at(in_load[i]), cls->name,
             "save() touches field '" + in_save[i] + "' before '" +
                 in_load[i] + "' but load() touches '" + in_load[i] +
                 "' first — reorder one side so the state walk matches");
        break;
      }
    }

    // 3) digest() should fold the shared fields in save order, so a digest
    //    divergence localizes to the field that changed, not the mix order.
    if (trio.digest != nullptr) {
      const StateSeq dig = extract_seq(*cls, *trio.digest, Role::kDigest);
      const std::vector<std::string> in_save = common_fields(save, dig);
      const std::vector<std::string> in_dig = common_fields(dig, save);
      for (std::size_t i = 0; i < in_save.size() && i < in_dig.size(); ++i) {
        if (in_save[i] == in_dig[i]) continue;
        emit(*trio.digest, dig.field_line.at(in_dig[i]), cls->name,
             "digest() mixes field '" + in_dig[i] + "' before '" +
                 in_save[i] + "' but save() writes '" + in_save[i] +
                 "' first — keep the fold order aligned with the snapshot "
                 "walk");
        break;
      }
    }
  }
}

// ---- R9: lock-discipline --------------------------------------------------

namespace {

/// Canonical identity of a mutex expression:
///   "Class::field"        mutex data member (shared across the class);
///   "::name"              namespace-scope mutex;
///   "local:Fn::name"      function-local mutex object;
///   "?:chain"             plausibly a mutex, identity unknown.
/// Unknown ids participate in held-sets but are excluded from the global
/// acquisition-order graph (they could alias anything).
std::string mutex_id(const SymFn& fn,
                     const std::map<std::string, LocalVar>& locals,
                     const Symtab& st, const std::vector<Token>& t,
                     std::size_t b, std::size_t e) {
  while (b < e && t[b].kind == Tok::Punct &&
         (t[b].text == "*" || t[b].text == "&" || t[b].text == "(")) {
    ++b;
  }
  ChainRef c;
  if (!parse_chain(t, b, e, c)) return "";
  const std::vector<std::string> parts = split_chain(c.key);

  const SymClass* own =
      fn.def->qual_class.empty()
          ? nullptr
          : st.find_class(simple_name(fn.def->qual_class));
  if (parts.size() == 1) {
    const std::string& name = parts[0];
    if (own != nullptr) {
      auto fit = own->fields.find(name);
      if (fit != own->fields.end() && fit->second->is_mutex) {
        return own->name + "::" + name;
      }
    }
    auto lit = locals.find(name);
    if (lit != locals.end() && type_is_mutex(lit->second.type)) {
      // A reference/pointer local aliases a mutex owned elsewhere.
      if (lit->second.type.find('&') != std::string::npos ||
          lit->second.type.find('*') != std::string::npos) {
        return "?:" + name;
      }
      return "local:" + fn.qualified + "::" + name;
    }
    for (const NamespaceVar& nv : fn.file->namespace_vars) {
      if (nv.name == name && nv.is_mutex) return "::" + name;
    }
  } else {
    // Member-object chain: resolve the owner of the final field.
    std::string type = resolve_type(fn, locals, st, parts[0]);
    for (std::size_t i = 1; i < parts.size(); ++i) {
      const SymClass* cls = st.find_class(Symtab::type_class(type));
      if (cls == nullptr) break;
      auto fit = cls->fields.find(parts[i]);
      if (fit == cls->fields.end()) break;
      if (i + 1 == parts.size() && fit->second->is_mutex) {
        return cls->name + "::" + parts[i];
      }
      type = fit->second->type;
    }
  }
  const std::string low = c.key;
  if (low.find("mu") != std::string::npos ||
      low.find("mutex") != std::string::npos ||
      low.find("lock") != std::string::npos) {
    return "?:" + c.key;
  }
  return "";
}

struct OrderEdge {
  std::string held;
  std::string acquired;
  const ParsedFile* file = nullptr;
  int line = 0;
};

struct OrderGraph {
  std::set<std::pair<std::string, std::string>> seen;
  std::vector<OrderEdge> edges;
};

struct GuardInfo {
  std::string name;  // guard variable; empty for the *_locked entry guard
  int scope = 0;
  std::vector<std::string> ids;
  bool from_entry = false;
};

const std::initializer_list<const char*> kGuardTypes = {
    "lock_guard", "scoped_lock", "unique_lock", "shared_lock"};

// One instance per function, driven from the single rule-runner thread.
class LockDomain : public Domain {  /*own:worker*/
 public:
  LockDomain(const SymFn& fn, const Symtab& st, const Cfg& cfg,
             std::map<std::string, LocalVar> locals, OrderGraph& order,
             std::vector<Finding>& out)
      : fn_(fn),
        st_(st),
        cfg_(cfg),
        locals_(std::move(locals)),
        order_(order),
        out_(out),
        t_(fn.file->ts.tokens) {
    cls_ = fn.def->qual_class.empty()
               ? nullptr
               : st.find_class(simple_name(fn.def->qual_class));
    if (cls_ != nullptr) {
      for (const auto& [name, fld] : cls_->fields) {
        if (fld->is_mutex) class_mutexes_.push_back(cls_->name + "::" + name);
      }
    }
    const std::string& name = fn.def->name;
    is_locked_convention_ =
        name.size() > 7 && name.compare(name.size() - 7, 7, "_locked") == 0;
    // Guarded-field pass: only meaningful for locking functions of a
    // mutex-owning class — lock-free writers are R6's department.
    field_check_ = cls_ != nullptr && !class_mutexes_.empty() &&
                   !cls_->own_worker && !is_locked_convention_ &&
                   name != simple_name(cls_->name) && name[0] != '~' &&
                   name.compare(0, 8, "operator") != 0 &&
                   body_has_raii_lock(fn);
  }

  AbsState entry_state() const override {
    AbsState s;
    if (is_locked_convention_ && !class_mutexes_.empty()) {
      s.emplace("g:0", 1);
    }
    return s;
  }

  void prepare() {
    // Slot 0 is the *_locked entry pseudo-guard (callers hold the class
    // mutexes by convention); it never feeds the acquisition-order graph.
    guards_.push_back(GuardInfo{"", 0, class_mutexes_, true});
  }

  int join(const std::string&, int a, int b) const override {
    return a == b ? a : 1;
  }
  int join_missing(const std::string&, int) const override { return kDrop; }

  void transfer(AbsState& s, const CfgStmt& stmt) override {
    // RAII: a guard dies when flow leaves its declaring scope.
    for (auto it = s.begin(); it != s.end();) {
      const GuardInfo& g = guards_[guard_index(it->first)];
      if (!cfg_.scope_encloses(g.scope, stmt.scope)) {
        it = s.erase(it);
      } else {
        ++it;
      }
    }
    scan_guard_decl(s, stmt);
    scan_unlock(s, stmt);
  }

  void visit(const AbsState& s, const CfgStmt& stmt) override {
    check_blocking(s, stmt);
    if (field_check_) check_fields(s, stmt);
  }

 private:
  const SymFn& fn_;
  const Symtab& st_;
  const Cfg& cfg_;
  std::map<std::string, LocalVar> locals_;
  OrderGraph& order_;
  std::vector<Finding>& out_;
  const std::vector<Token>& t_;
  const SymClass* cls_ = nullptr;
  std::vector<std::string> class_mutexes_;
  bool is_locked_convention_ = false;
  bool field_check_ = false;
  std::vector<GuardInfo> guards_;
  std::map<std::size_t, std::size_t> decl_at_;  // stmt.begin -> guard index

  static std::size_t guard_index(const std::string& key) {
    return static_cast<std::size_t>(std::stoul(key.substr(2)));
  }

  void emit(int line, const std::string& symbol, const std::string& msg) {
    if (line_annotated(*fn_.file, line, "lock:ok")) return;
    out_.push_back(make(kRuleLockDiscipline, fn_.file->path, line,
                        symbol.empty() ? fn_.qualified : symbol, msg));
  }

  std::vector<std::string> held_ids(const AbsState& s) const {
    std::vector<std::string> ids;
    for (const auto& [key, v] : s) {
      (void)v;
      for (const std::string& id : guards_[guard_index(key)].ids) {
        if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
          ids.push_back(id);
        }
      }
    }
    return ids;
  }

  static std::string join_ids(const std::vector<std::string>& ids) {
    std::string out;
    for (const std::string& id : ids) {
      if (!out.empty()) out += ", ";
      out += "'" + id + "'";
    }
    return out;
  }

  void scan_guard_decl(AbsState& s, const CfgStmt& stmt) {
    for (std::size_t k = stmt.begin; k + 2 < stmt.end; ++k) {
      if (t_[k].kind != Tok::Ident || !is_one_of(t_[k].text, kGuardTypes)) {
        continue;
      }
      std::size_t j = k + 1;
      if (j < stmt.end && t_[j].kind == Tok::Punct && t_[j].text == "<") {
        const std::size_t close = match_close(t_, j, "<", ">", stmt.end);
        if (close >= stmt.end) continue;
        j = close + 1;
      }
      if (j >= stmt.end || t_[j].kind != Tok::Ident) continue;  // not a decl
      const std::string guard_name = t_[j].text;
      if (j + 1 >= stmt.end || t_[j + 1].kind != Tok::Punct ||
          (t_[j + 1].text != "(" && t_[j + 1].text != "{")) {
        continue;
      }
      const char* open = t_[j + 1].text == "(" ? "(" : "{";
      const char* close_p = t_[j + 1].text == "(" ? ")" : "}";
      const std::size_t close = match_close(t_, j + 1, open, close_p,
                                            stmt.end);
      if (close >= stmt.end) continue;

      bool deferred = false;
      for (std::size_t a = j + 2; a < close; ++a) {
        if (t_[a].kind == Tok::Ident && t_[a].text == "defer_lock") {
          deferred = true;
        }
      }
      if (deferred) continue;  // not held at construction; approximation

      std::vector<std::string> ids;
      for (const auto& [ab, ae] : split_args(t_, j + 2, close)) {
        const std::string id = mutex_id(fn_, locals_, st_, t_, ab, ae);
        if (!id.empty() &&
            std::find(ids.begin(), ids.end(), id) == ids.end()) {
          ids.push_back(id);
        }
      }
      if (ids.empty()) continue;

      // Acquisition-order edges: every mutex already held orders before
      // every mutex this guard acquires.
      for (const auto& [key, v] : s) {
        (void)v;
        const GuardInfo& g = guards_[guard_index(key)];
        if (g.from_entry) continue;  // entry set is an over-approximation
        for (const std::string& held : g.ids) {
          if (held[0] == '?') continue;
          for (const std::string& acq : ids) {
            if (acq[0] == '?' || held == acq) continue;
            if (order_.seen.emplace(held, acq).second) {
              order_.edges.push_back(
                  OrderEdge{held, acq, fn_.file, t_[k].line});
            }
          }
        }
      }

      auto dit = decl_at_.find(stmt.begin);
      std::size_t idx;
      if (dit != decl_at_.end()) {
        idx = dit->second;
      } else {
        idx = guards_.size();
        guards_.push_back(GuardInfo{guard_name, stmt.scope, ids, false});
        decl_at_.emplace(stmt.begin, idx);
      }
      s["g:" + std::to_string(idx)] = 1;
      k = close;
    }
  }

  void scan_unlock(AbsState& s, const CfgStmt& stmt) {
    for (std::size_t k = stmt.begin; k + 2 < stmt.end; ++k) {
      if (t_[k].kind != Tok::Ident) continue;
      if (t_[k + 1].kind != Tok::Punct ||
          (t_[k + 1].text != "." && t_[k + 1].text != "->")) {
        continue;
      }
      if (t_[k + 2].kind != Tok::Ident ||
          (t_[k + 2].text != "unlock" && t_[k + 2].text != "release")) {
        continue;
      }
      for (auto it = s.begin(); it != s.end();) {
        const GuardInfo& g = guards_[guard_index(it->first)];
        if (!g.from_entry && g.name == t_[k].text) {
          it = s.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  void check_blocking(const AbsState& s, const CfgStmt& stmt) {
    if (s.empty()) return;
    const std::vector<std::string> held = held_ids(s);
    if (held.empty()) return;

    for (std::size_t k = stmt.begin; k + 1 < stmt.end; ++k) {
      if (t_[k].kind != Tok::Ident || t_[k + 1].kind != Tok::Punct ||
          t_[k + 1].text != "(") {
        continue;
      }
      const std::string& name = t_[k].text;
      const bool member =
          k > 0 && t_[k - 1].kind == Tok::Punct &&
          (t_[k - 1].text == "." || t_[k - 1].text == "->");

      if (member) {
        const std::string type = receiver_type(stmt, k);
        const std::string recv = receiver_name(k);
        if (is_one_of(name, {"wait", "wait_for", "wait_until"})) {
          const bool condvar =
              type.find("condition_variable") != std::string::npos ||
              recv.find("cv") != std::string::npos ||
              recv.find("cond") != std::string::npos;
          const bool future = type.find("future") != std::string::npos ||
                              recv.find("fut") != std::string::npos;
          if (condvar) {
            // cv.wait(lk) releases lk while sleeping; any *other* held lock
            // stays held across the sleep.
            std::vector<std::string> rest = held;
            const std::size_t close =
                match_close(t_, k + 1, "(", ")", stmt.end);
            for (const auto& [key, v] : s) {
              (void)v;
              const GuardInfo& g = guards_[guard_index(key)];
              bool named = false;
              for (std::size_t a = k + 2; a < close; ++a) {
                if (t_[a].kind == Tok::Ident && t_[a].text == g.name) {
                  named = true;
                }
              }
              if (!named) continue;
              for (const std::string& id : g.ids) {
                rest.erase(std::remove(rest.begin(), rest.end(), id),
                           rest.end());
              }
            }
            if (!rest.empty()) {
              emit(t_[k].line, fn_.qualified,
                   "condition_variable wait while still holding " +
                       join_ids(rest) +
                       " — only the wait lock is released during the sleep "
                       "(/*lock:ok: reason*/ if intended)");
            }
          } else if (future) {
            emit(t_[k].line, fn_.qualified,
                 "blocking future wait with " + join_ids(held) +
                     " held — the producer may need the same lock to make "
                     "progress (move the wait outside the guard)");
          }
        } else if (name == "get" &&
                   (type.find("future") != std::string::npos ||
                    recv.find("fut") != std::string::npos ||
                    recv.find("future") != std::string::npos)) {
          emit(t_[k].line, fn_.qualified,
               "future::get() with " + join_ids(held) +
                   " held blocks until another thread produces the value — "
                   "copy the future and get() outside the lock");
        } else if (name == "join" &&
                   (type.find("thread") != std::string::npos ||
                    recv.find("thread") != std::string::npos)) {
          emit(t_[k].line, fn_.qualified,
               "thread join with " + join_ids(held) +
                   " held — the joined thread may block on the same lock "
                   "(swap the container under the lock, join outside)");
        }
      } else {
        const bool scoped_free =
            k > 0 && t_[k - 1].kind == Tok::Punct && t_[k - 1].text == "::";
        const bool socketish = is_one_of(
            name, {"recv", "send", "accept", "poll", "connect", "select",
                   "sleep_for", "sleep_until"});
        const bool posix_io =
            scoped_free && is_one_of(name, {"read", "write"});
        if (socketish || posix_io) {
          emit(t_[k].line, fn_.qualified,
               "blocking call '" + name + "' with " + join_ids(held) +
                   " held — socket/sleep latency is attacker- or "
                   "peer-controlled; release the lock first");
        }
      }
    }
  }

  std::string receiver_name(std::size_t method) const {
    return method >= 2 && t_[method - 2].kind == Tok::Ident
               ? t_[method - 2].text
               : std::string();
  }

  std::string receiver_type(const CfgStmt& stmt, std::size_t method) const {
    // Walk back over the `a.b.c` chain feeding `.method(`.
    std::size_t cs = method;
    std::size_t q = method - 1;  // the '.' / '->'
    while (q > stmt.begin && t_[q].kind == Tok::Punct &&
           (t_[q].text == "." || t_[q].text == "->") &&
           t_[q - 1].kind == Tok::Ident) {
      cs = q - 1;
      if (cs == stmt.begin) break;
      q = cs - 1;
    }
    if (cs == method) return "";
    ChainRef c;
    if (!parse_chain(t_, cs, method - 1, c)) return "";
    const std::vector<std::string> parts = split_chain(c.key);
    return chain_type(fn_, locals_, st_, parts, parts.size());
  }

  void check_fields(const AbsState& s, const CfgStmt& stmt) {
    // Does the current lock set cover this class's mutexes (or an unknown
    // mutex we give the benefit of the doubt)?
    bool covered = false;
    for (const auto& [key, v] : s) {
      (void)v;
      for (const std::string& id : guards_[guard_index(key)].ids) {
        if (id[0] == '?' ||
            std::find(class_mutexes_.begin(), class_mutexes_.end(), id) !=
                class_mutexes_.end()) {
          covered = true;
        }
      }
    }
    if (covered) return;

    for (std::size_t k = stmt.begin; k < stmt.end; ++k) {
      if (t_[k].kind != Tok::Ident) continue;
      auto fit = cls_->fields.find(t_[k].text);
      if (fit == cls_->fields.end()) continue;
      const FieldDecl& fld = *fit->second;
      if (fld.is_atomic || fld.is_const || fld.is_mutex || fld.own_worker ||
          fld.own_guarded) {
        continue;
      }
      const bool through_other =
          k > 0 && t_[k - 1].kind == Tok::Punct &&
          (t_[k - 1].text == "." ||
           (t_[k - 1].text == "->" &&
            !(k >= 2 && t_[k - 2].text == "this")));
      if (through_other) continue;
      if (!is_write(stmt, k)) continue;
      if (line_annotated(*fn_.file, t_[k].line, "own:guarded")) continue;
      emit(t_[k].line, cls_->name + "::" + fld.name,
           "write to guarded field '" + fld.name +
               "' with an empty lock set — this function takes '" +
               class_mutexes_.front() +
               "' elsewhere, so this write races with the locked region "
               "(move it under the guard or annotate /*lock:ok: reason*/)");
    }
  }

  bool is_write(const CfgStmt& stmt, std::size_t k) const {
    if (k > stmt.begin && t_[k - 1].kind == Tok::Punct &&
        (t_[k - 1].text == "++" || t_[k - 1].text == "--")) {
      return true;
    }
    std::size_t j = k + 1;
    if (j < stmt.end && t_[j].kind == Tok::Punct && t_[j].text == "[") {
      const std::size_t close = match_close(t_, j, "[", "]", stmt.end);
      if (close >= stmt.end) return false;
      j = close + 1;
    }
    if (j >= stmt.end || t_[j].kind != Tok::Punct) return false;
    const std::string& op = t_[j].text;
    if (is_one_of(op, {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                       "<<=", ">>=", "++", "--"})) {
      return true;
    }
    if ((op == "." || op == "->") && j + 2 < stmt.end &&
        t_[j + 1].kind == Tok::Ident && t_[j + 2].kind == Tok::Punct &&
        t_[j + 2].text == "(") {
      return is_one_of(t_[j + 1].text,
                       {"push_back", "emplace_back", "emplace", "insert",
                        "erase", "clear", "resize", "reserve", "assign",
                        "pop_back", "pop_front", "push_front", "swap",
                        "reset"});
    }
    return false;
  }
};

}  // namespace

void rule_lock_discipline(const Symtab& st, CfgCache& cfgs,
                          std::vector<Finding>& out) {
  OrderGraph order;
  for (const SymFn& fn : st.fns) {
    if (fn.def->body_end <= fn.def->body_begin) continue;
    // Cheap pre-filter: no guard construct, no *_locked convention, nothing
    // for the domain to do.
    const std::set<std::string>& ids = fn.def->body_idents;
    const bool has_guard =
        ids.count("lock_guard") != 0 || ids.count("scoped_lock") != 0 ||
        ids.count("unique_lock") != 0 || ids.count("shared_lock") != 0;
    const std::string& name = fn.def->name;
    const bool locked_conv =
        name.size() > 7 && name.compare(name.size() - 7, 7, "_locked") == 0;
    if (!has_guard && !locked_conv) continue;

    const Cfg& cfg = cfgs.get(fn);
    LockDomain d(fn, st, cfg, scan_locals(fn), order, out);
    d.prepare();
    const AbsResult r = solve(cfg, d);
    report(cfg, d, r);
  }

  // Global acquisition-order consistency: an edge a->b plus a path b->..->a
  // is a potential deadlock cycle.
  std::map<std::string, std::set<std::string>> adj;
  for (const auto& [from, to] : order.seen) adj[from].insert(to);
  auto reaches = [&](const std::string& from, const std::string& to) {
    std::set<std::string> seen{from};
    std::vector<std::string> stack{from};
    while (!stack.empty()) {
      const std::string cur = stack.back();
      stack.pop_back();
      auto it = adj.find(cur);
      if (it == adj.end()) continue;
      for (const std::string& nxt : it->second) {
        if (nxt == to) return true;
        if (seen.insert(nxt).second) stack.push_back(nxt);
      }
    }
    return false;
  };
  std::set<std::pair<std::string, std::string>> reported;
  for (const OrderEdge& e : order.edges) {
    if (!reaches(e.acquired, e.held)) continue;
    const auto pair = std::minmax(e.held, e.acquired);
    if (!reported.emplace(pair.first, pair.second).second) continue;
    if (line_annotated(*e.file, e.line, "lock:ok")) continue;
    out.push_back(make(
        kRuleLockDiscipline, e.file->path, e.line,
        "lock-order:" + pair.first + "<->" + pair.second,
        "'" + e.acquired + "' is acquired here while '" + e.held +
            "' is held, but elsewhere the same mutexes are taken in the "
            "opposite order — pick one global order or collapse to one "
            "scoped_lock (/*lock:ok: reason*/ if externally serialized)"));
  }
}

// ---- R10: input-taint -----------------------------------------------------

namespace {

constexpr int kTainted = 2;
constexpr int kBounded = 1;

class TaintDomain : public Domain {
 public:
  TaintDomain(const SymFn& fn, const Symtab& st,
              std::map<std::string, LocalVar> locals,
              std::vector<Finding>& out)
      : fn_(fn),
        st_(st),
        locals_(std::move(locals)),
        out_(out),
        t_(fn.file->ts.tokens) {}

  int join(const std::string&, int a, int b) const override {
    return std::max(a, b);  // may-taint: any tainted path taints the join
  }
  int join_missing(const std::string&, int v) const override { return v; }

  void transfer(AbsState& s, const CfgStmt& stmt) override {
    const std::size_t op = find_assign(stmt);
    if (op == stmt.end) return;
    const std::string target = assign_target(stmt, op);
    if (target.empty()) return;
    int lvl = eval_range(s, op + 1, stmt.end);
    if (t_[op].text != "=") {  // compound assignment keeps existing taint
      lvl = std::max(lvl, level(s, target));
    }
    if (lvl > 0) {
      s["t:" + target] = lvl;
    } else {
      s.erase("t:" + target);
    }
  }

  void transfer_branch(AbsState& s, const CfgBlock& b, bool) override {
    // A comparison dominates both edges in the house idiom
    // `if (n > bound) fail(...)`: mark every compared chain as bounded. The
    // refinement is deliberately direction-blind — a path that skips the
    // check re-taints the join, which is exactly the "dominating check"
    // semantics the rule wants.
    if (!range_has_punct(t_, b.cond_begin, b.cond_end, kComparisons)) return;
    for (const ChainRef& c : chains_in(t_, b.cond_begin, b.cond_end)) {
      if (level(s, c.key) == kTainted) s["t:" + c.key] = kBounded;
    }
  }

  void visit(const AbsState& s, const CfgStmt& stmt) override {
    for (std::size_t k = stmt.begin; k < stmt.end; ++k) {
      if (t_[k].kind != Tok::Ident) continue;
      const std::string& name = t_[k].text;
      const bool call = k + 1 < stmt.end && t_[k + 1].kind == Tok::Punct &&
                        t_[k + 1].text == "(";
      const bool member =
          k > stmt.begin && t_[k - 1].kind == Tok::Punct &&
          (t_[k - 1].text == "." || t_[k - 1].text == "->");

      if (call && member && is_one_of(name, {"resize", "reserve"})) {
        const std::size_t close = match_close(t_, k + 1, "(", ")", stmt.end);
        check_sink(s, k + 2, close, t_[k].line,
                   "allocation size passed to ." + name + "()");
      }
      if (call && !member &&
          is_one_of(name, {"memcpy", "memmove", "memset", "strncpy"})) {
        const std::size_t close = match_close(t_, k + 1, "(", ")", stmt.end);
        const auto args = split_args(t_, k + 2, close);
        if (!args.empty()) {
          check_sink(s, args.back().first, args.back().second, t_[k].line,
                     name + "() length");
        }
      }
      if (name == "new") {
        // new T[expr]
        std::size_t j = k + 1;
        while (j < stmt.end &&
               (t_[j].kind == Tok::Ident ||
                (t_[j].kind == Tok::Punct &&
                 (t_[j].text == "::" || t_[j].text == "<" ||
                  t_[j].text == ">")))) {
          ++j;
        }
        if (j < stmt.end && t_[j].kind == Tok::Punct && t_[j].text == "[") {
          const std::size_t close = match_close(t_, j, "[", "]", stmt.end);
          check_sink(s, j + 1, close, t_[k].line, "new[] element count");
        }
      }
    }
    // Container indexing with a tainted subscript.
    for (const ChainRef& c : chains_in(t_, stmt.begin, stmt.end)) {
      if (c.is_call || c.end >= stmt.end || t_[c.end].kind != Tok::Punct ||
          t_[c.end].text != "[") {
        continue;
      }
      const std::vector<std::string> parts = split_chain(c.key);
      const std::string type =
          chain_type(fn_, locals_, st_, parts, parts.size());
      if (type.find("map") != std::string::npos) continue;  // keyed, not OOB
      const std::size_t close = match_close(t_, c.end, "[", "]", stmt.end);
      check_sink(s, c.end + 1, close, t_[c.end].line,
                 "index into '" + c.key + "'");
    }
  }

  void visit_branch(const AbsState& s, const CfgBlock& b) override {
    if (!b.loop_head) return;
    for (const ChainRef& c : chains_in(t_, b.cond_begin, b.cond_end)) {
      if (level(s, c.key) != kTainted) continue;
      if (line_annotated(*fn_.file, t_[c.begin].line, "taint:ok")) continue;
      out_.push_back(make(
          kRuleInputTaint, fn_.file->path, t_[c.begin].line, fn_.qualified,
          "loop bound '" + c.key +
              "' comes from untrusted input with no dominating bound check "
              "— an attacker picks the trip count (check against a cap or "
              "remaining() first; /*taint:ok: reason*/ if audited)"));
      return;
    }
  }

 private:
  const SymFn& fn_;
  const Symtab& st_;
  std::map<std::string, LocalVar> locals_;
  std::vector<Finding>& out_;
  const std::vector<Token>& t_;

  /// Effective taint of a chain: the most specific tracked prefix wins, so
  /// sanitizing `arr.items.size` beats the taint on `arr`.
  static int level(const AbsState& s, const std::string& key) {
    std::string probe = key;
    for (;;) {
      auto it = s.find("t:" + probe);
      if (it != s.end()) return it->second;
      const std::size_t dot = probe.rfind('.');
      if (dot == std::string::npos) return 0;
      probe.resize(dot);
    }
  }

  std::size_t find_assign(const CfgStmt& stmt) const {
    int depth = 0;
    for (std::size_t k = stmt.begin; k < stmt.end; ++k) {
      if (t_[k].kind != Tok::Punct) continue;
      const std::string& s = t_[k].text;
      if (s == "(" || s == "[" || s == "{") ++depth;
      if (s == ")" || s == "]" || s == "}") --depth;
      if (depth == 0 &&
          is_one_of(s, {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                        "<<=", ">>="})) {
        return k;
      }
    }
    return stmt.end;
  }

  std::string assign_target(const CfgStmt& stmt, std::size_t op) const {
    std::size_t p = op;
    if (p == stmt.begin) return "";
    --p;
    // Hop back over a subscript: `buf[i] = x` targets `buf`.
    if (t_[p].kind == Tok::Punct && t_[p].text == "]") {
      int depth = 0;
      while (p > stmt.begin) {
        if (t_[p].kind == Tok::Punct && t_[p].text == "]") ++depth;
        if (t_[p].kind == Tok::Punct && t_[p].text == "[" && --depth == 0) {
          if (p == stmt.begin) return "";
          --p;
          break;
        }
        --p;
      }
    }
    if (t_[p].kind != Tok::Ident) return "";
    // Walk back to the chain head.
    std::size_t cs = p;
    while (cs >= stmt.begin + 2 && t_[cs - 1].kind == Tok::Punct &&
           (t_[cs - 1].text == "." || t_[cs - 1].text == "->") &&
           t_[cs - 2].kind == Tok::Ident) {
      cs -= 2;
    }
    ChainRef c;
    if (!parse_chain(t_, cs, op, c)) return "";
    return c.key;
  }

  // Sources are only scanned in taint-scope files (rule_input_taint skips
  // the rest wholesale), so every call here is potentially a source.
  bool is_source(const AbsState& s, const ChainRef& c) const {
    if (!c.is_call) return false;
    const std::vector<std::string> parts = split_chain(c.key);
    if (parts.size() == 1) return false;  // free calls are never sources
    if (reader_writer_prims().count(parts.back()) != 0) {
      const std::string base =
          chain_type(fn_, locals_, st_, parts, parts.size() - 1);
      return base.find("StateReader") != std::string::npos;
    }
    // Derived from a tainted base — unless a bound check downgraded the
    // chain itself (kBounded falls through to level() in eval_range).
    return level(s, c.key) == kTainted;
  }

  int eval_range(const AbsState& s, std::size_t b, std::size_t e) const {
    int lvl = 0;
    for (std::size_t k = b; k < e;) {
      ChainRef c;
      if (!parse_chain(t_, k, e, c)) {
        ++k;
        continue;
      }
      k = c.end;
      if (is_source(s, c)) {
        lvl = std::max(lvl, kTainted);
      } else {
        lvl = std::max(lvl, level(s, c.key));
        // A non-source free function owns its return value: taint does not
        // flow through call results intra-procedurally (accept(tainted)
        // yields a clean bool), so its argument range is skipped. Member
        // calls keep the receiver's taint via level() above.
        if (c.is_call && c.key.find('.') == std::string::npos && k < e) {
          k = match_close(t_, k, "(", ")", e);
          if (k < e) ++k;
        }
      }
      if (lvl == kTainted) break;
    }
    if (lvl == kTainted && range_has_call(t_, b, e, {"min", "clamp"})) {
      lvl = kBounded;  // std::min(n, cap) bounds the value inline
    }
    return lvl;
  }

  void check_sink(const AbsState& s, std::size_t b, std::size_t e, int line,
                  const std::string& what) {
    if (eval_range(s, b, e) != kTainted) return;
    if (line_annotated(*fn_.file, line, "taint:ok")) return;
    out_.push_back(make(
        kRuleInputTaint, fn_.file->path, line, fn_.qualified,
        what + " comes from untrusted input with no dominating bound check "
              "— validate against a format cap (or remaining()) before "
              "sizing memory (/*taint:ok: reason*/ if audited)"));
  }
};

}  // namespace

void rule_input_taint(const Symtab& st, CfgCache& cfgs,
                      const std::vector<std::string>& taint_scopes,
                      std::vector<Finding>& out) {
  for (const SymFn& fn : st.fns) {
    if (fn.def->body_end <= fn.def->body_begin) continue;
    bool in_scope = taint_scopes.empty();
    for (const std::string& scope : taint_scopes) {
      if (fn.file->path.find(scope) != std::string::npos) in_scope = true;
    }
    if (!in_scope) continue;  // no sources -> nothing can reach a sink

    const Cfg& cfg = cfgs.get(fn);
    TaintDomain d(fn, st, scan_locals(fn), out);
    const AbsResult r = solve(cfg, d);
    report(cfg, d, r);
  }
}

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

void rule_narrowing_cast(const Symtab& st, CfgCache& cfgs,
                         std::vector<Finding>& out) {
  for (const SymFn& fn : st.fns) {
    if (fn.def->body_end <= fn.def->body_begin) continue;
    if (fn.def->body_idents.count("static_cast") == 0) continue;
    const Cfg& cfg = cfgs.get(fn);
    NarrowDomain d(fn, st, scan_locals(fn), out);
    const AbsResult r = solve(cfg, d);
    report(cfg, d, r);
  }
}

}  // namespace gpuqos::lint
