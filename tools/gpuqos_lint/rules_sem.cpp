// Semantic rule family R5: determinism hazards, driven by the cross-TU
// symbol table + call graph instead of per-file token scans.
#include <algorithm>

#include "dataflow.hpp"
#include "rules.hpp"

namespace gpuqos::lint {
namespace {

/// Resolve the type of a member chain starting at token `k` (`core`,
/// `this->pending_`, `gmi_.rob`): follow `.`/`->` links through known
/// classes. Returns the final type string ("" when unresolved) and sets
/// `chain` to the dotted source text.
std::string resolve_chain(const SymFn& fn,
                          const std::map<std::string, LocalVar>& locals,
                          const Symtab& st, const std::vector<Token>& t,
                          std::size_t k, std::size_t limit,
                          std::string& chain) {
  if (k >= limit || t[k].kind != Tok::Ident) return "";
  std::string type;
  chain = t[k].text;
  if (t[k].text == "this") {
    type = simple_name(fn.def->qual_class);
  } else {
    type = resolve_type(fn, locals, st, t[k].text);
  }
  ++k;
  while (k + 1 < limit && t[k].kind == Tok::Punct &&
         (t[k].text == "." || t[k].text == "->") &&
         t[k + 1].kind == Tok::Ident) {
    const SymClass* cls = st.find_class(Symtab::type_class(type));
    if (cls == nullptr && chain == "this") {
      cls = st.find_class(simple_name(fn.def->qual_class));
    }
    if (cls == nullptr) return "";
    auto fit = cls->fields.find(t[k + 1].text);
    if (fit == cls->fields.end()) return "";
    type = fit->second->type;
    chain += (t[k].text == "." ? "." : "->") + t[k + 1].text;
    k += 2;
  }
  return type;
}

}  // namespace

// ---- R5: det-hazard -------------------------------------------------------

void rule_det_hazard(const Symtab& st, const CallGraph& cg,
                     const std::vector<std::string>& det_roots,
                     std::vector<Finding>& out) {
  const std::vector<bool> reach = cg.reachable_from(st, det_roots);

  const std::string kEscape =
      "; if the use is order-independent or host-only, annotate the line "
      "/*det:ok: reason*/";

  for (std::size_t idx = 0; idx < st.fns.size(); ++idx) {
    const SymFn& fn = st.fns[idx];
    if (fn.def->body_end <= fn.def->body_begin) continue;
    const ParsedFile& pf = *fn.file;
    const std::vector<Token>& t = pf.ts.tokens;
    const std::map<std::string, LocalVar> locals = scan_locals(fn);
    const std::size_t begin = fn.def->body_begin;
    const std::size_t end = fn.def->body_end;
    const bool det = reach[idx];

    auto emit = [&](int line, const std::string& kind,
                    const std::string& detail, const std::string& msg) {
      if (line_annotated(pf, line, "det:ok")) return;
      out.push_back(make(kRuleDetHazard, pf.path, line,
                         fn.qualified + "#" + kind +
                             (detail.empty() ? "" : ":" + detail),
                         msg + kEscape));
    };

    // Pointer-keyed ordered containers leak allocation addresses into
    // iteration order in ANY function — flagged regardless of reachability
    // (decoder/report paths must also be stable run-to-run).
    for (const auto& [name, var] : locals) {
      if (var.is_param || !type_is_ptr_keyed_ordered(var.type)) continue;
      emit(var.line, "ptr-key", name,
           "'" + name + "' is an ordered container keyed by a raw pointer — "
           "its iteration order is the allocator's and differs run to run "
           "under ASLR; key by a stable id or index instead");
    }

    if (!det) continue;  // the remaining checks apply on det paths only

    for (std::size_t k = begin + 1; k + 1 < end; ++k) {
      if (t[k].kind != Tok::Ident) continue;
      const std::string& s = t[k].text;
      const Token& next = t[k + 1];
      const Token* prev = k > 0 ? &t[k - 1] : nullptr;
      const bool member_access =
          prev != nullptr && prev->kind == Tok::Punct &&
          (prev->text == "." || prev->text == "->");
      const bool call = next.kind == Tok::Punct && next.text == "(";

      // Wall-clock / PRNG reads: simulated state must never depend on host
      // time or the C runtime's hidden PRNG stream.
      if (call && !member_access &&
          is_one_of(s, {"rand", "srand", "time", "clock", "gettimeofday",
                        "localtime", "gmtime", "mktime", "random"})) {
        emit(t[k].line, "wall-clock", s,
             "call to '" + s + "()' on a tick/digest/save/load path — "
             "simulated state must not depend on host time or the libc "
             "PRNG; use the seeded simulation Rng / the engine cycle");
      } else if (is_one_of(s, {"steady_clock", "system_clock",
                               "high_resolution_clock"})) {
        emit(t[k].line, "wall-clock", s,
             "std::chrono " + s + " read on a tick/digest/save/load path — "
             "host time must not feed simulated state; use the engine "
             "cycle, or keep the reading strictly host-side");
      } else if (call && is_one_of(s, {"__rdtsc", "__builtin_ia32_rdtsc"})) {
        emit(t[k].line, "wall-clock", s,
             "TSC read on a tick/digest/save/load path — host cycle "
             "counters must not feed simulated state");
      }

      // Object addresses used as values: hashes/keys over pointers differ
      // run to run.
      if (s == "reinterpret_cast" && next.kind == Tok::Punct &&
          next.text == "<") {
        for (std::size_t j = k + 2; j < end && j < k + 12; ++j) {
          if (t[j].kind == Tok::Punct && t[j].text == ">") break;
          if (t[j].kind == Tok::Ident &&
              (t[j].text == "uintptr_t" || t[j].text == "intptr_t")) {
            emit(t[k].line, "addr-value", "",
                 "object address reinterpret_cast to an integer on a "
                 "det path — addresses differ run to run under ASLR and "
                 "must not reach digests, keys, or simulated state");
            break;
          }
        }
      } else if (s == "hash" && next.kind == Tok::Punct && next.text == "<") {
        const std::size_t close = match_close(t, k + 1, "<", ">", end);
        for (std::size_t j = k + 2; j < close; ++j) {
          if (t[j].kind == Tok::Punct && t[j].text == "*") {
            emit(t[k].line, "addr-value", "",
                 "std::hash over a pointer type on a det path — pointer "
                 "hashes differ run to run; hash a stable id instead");
            break;
          }
        }
      }

      // Range-for over an unordered container, plus order-dependent float
      // accumulation inside such a loop.
      if (s == "for" && call) {
        const std::size_t open = k + 1;
        const std::size_t close = match_close(t, open, "(", ")", end);
        std::size_t colon = close;
        int depth = 0;
        for (std::size_t j = open; j < close; ++j) {
          if (t[j].kind != Tok::Punct) continue;
          if (t[j].text == "(") ++depth;
          if (t[j].text == ")") --depth;
          if (t[j].text == ":" && depth == 1) {
            colon = j;
            break;
          }
        }
        if (colon == close) continue;  // classic for loop
        std::size_t c = colon + 1;
        while (c < close && t[c].kind == Tok::Punct &&
               (t[c].text == "*" || t[c].text == "&" || t[c].text == "(")) {
          ++c;
        }
        std::string chain;
        const std::string ctype =
            resolve_chain(fn, locals, st, t, c, close, chain);
        if (!type_is_unordered(ctype)) continue;
        emit(t[k].line, "unordered-iter", chain,
             "range-for over unordered container '" + chain + "' on a "
             "tick/digest/save/load path — bucket order varies with "
             "allocation history; iterate a sorted view, or fold with an "
             "order-independent op");
        // Float accumulation inside the loop body: even an annotated
        // XOR-style fold must not quietly grow a sum of floats.
        if (close + 1 < end && t[close + 1].kind == Tok::Punct &&
            t[close + 1].text == "{") {
          const std::size_t bclose =
              match_close(t, close + 1, "{", "}", end);
          for (std::size_t j = close + 2; j + 1 < bclose; ++j) {
            if (t[j].kind != Tok::Ident) continue;
            const Token& op = t[j + 1];
            if (op.kind != Tok::Punct ||
                (op.text != "+=" && op.text != "-=")) {
              continue;
            }
            const std::string vt =
                resolve_type(fn, locals, st, t[j].text);
            if (type_is_float(vt)) {
              emit(t[j].line, "float-accum", t[j].text,
                   "float accumulation into '" + t[j].text + "' inside an "
                   "unordered-container loop — summation order changes "
                   "the result; accumulate integers or sort first");
            }
          }
        }
      }
    }
  }

  // Fields of det classes (declaring tick/digest/save/load) keyed by raw
  // pointers: the ordering leaks into whatever those methods fold.
  for (const auto& [name, cls] : st.classes) {
    if (!cls.has_det_method) continue;
    for (const auto& [fname, field] : cls.fields) {
      if (!type_is_ptr_keyed_ordered(field->type)) continue;
      if (line_annotated(*cls.file, field->line, "det:ok")) continue;
      out.push_back(make(
          kRuleDetHazard, cls.file->path, field->line, name + "::" + fname,
          "field '" + fname + "' of det class '" + name + "' is an ordered "
          "container keyed by a raw pointer — iteration order differs run "
          "to run under ASLR; key by a stable id, or annotate the line "
          "/*det:ok: reason*/"));
    }
  }
}

}  // namespace gpuqos::lint
