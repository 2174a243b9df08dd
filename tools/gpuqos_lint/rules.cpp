#include "rules.hpp"

#include <algorithm>
#include <deque>
#include <map>

namespace gpuqos::lint {

// ---- R1: state-coverage ---------------------------------------------------

void rule_state_coverage(const std::vector<const ParsedFile*>& files,
                         std::vector<Finding>& out) {
  static const char* kTriple[] = {"save", "load", "digest"};
  // save() and load() that forward to one visit_state() walk cover the
  // fields the walk names.
  static const char* kWalk = "visit_state";

  // Merge out-of-line member definitions into each class's method table.
  // Classes are matched by unqualified name: the project keeps one class per
  // name (everything lives in namespace gpuqos).
  struct ClassRef {
    const ClassDecl* decl;
    const ParsedFile* file;
  };
  std::map<std::string, ClassRef> classes;
  for (const ParsedFile* pf : files) {
    for (const ClassDecl& c : pf->classes) {
      std::string simple = c.name.substr(c.name.rfind(':') + 1);
      classes.insert({simple, ClassRef{&c, pf}});
    }
  }
  std::map<std::string, std::map<std::string, std::set<std::string>>> bodies;
  for (const ParsedFile* pf : files) {
    for (const FunctionDef& fn : pf->functions) {
      if (fn.qual_class.empty()) continue;
      bodies[fn.qual_class][fn.name].insert(fn.body_idents.begin(),
                                            fn.body_idents.end());
    }
  }

  for (const auto& [name, ref] : classes) {
    const ClassDecl& c = *ref.decl;
    // Identifiers of method `m`'s in-class and out-of-line bodies.
    auto body_of = [&](const char* m) {
      std::set<std::string> body;
      auto it = c.methods.find(m);
      if (it != c.methods.end()) body = it->second.body_idents;
      auto bc = bodies.find(name);
      if (bc != bodies.end()) {
        auto bm = bc->second.find(m);
        if (bm != bc->second.end()) {
          body.insert(bm->second.begin(), bm->second.end());
        }
      }
      return body;
    };
    for (const char* m : kTriple) {
      auto it = c.methods.find(m);
      if (it == c.methods.end() || !it->second.declared) continue;
      std::set<std::string> body = body_of(m);
      const bool is_digest = std::string(m) == "digest";
      if (!is_digest && body.count(kWalk) != 0) {
        const std::set<std::string> walk = body_of(kWalk);
        // The walk is not in the scanned set: nothing to check against.
        if (walk.empty()) continue;
        body.insert(walk.begin(), walk.end());
      }
      // Declared but never defined in the scanned set (pure virtual, or the
      // definition lives outside the input): nothing to check against.
      if (body.empty()) continue;

      for (const FieldDecl& f : c.fields) {
        if (f.is_ref || f.is_ptr) continue;  // non-owning wiring
        if (is_digest ? f.skip_digest : f.skip_ckpt) continue;
        if (body.count(f.name) != 0) continue;
        out.push_back(make(
            kRuleStateCoverage, ref.file->path, f.line, name + "::" + f.name,
            "field '" + f.name + "' of '" + name +
                "' is not referenced in " + m +
                "() — checkpoint/digest coverage drifts silently; cover the "
                "field or annotate it " +
                (is_digest ? "/*digest:skip*/ (derived or instrumentation "
                             "state, with a reason)"
                           : "/*ckpt:skip*/ (transient state, with a "
                             "reason)")));
      }
    }
  }
}

// ---- R2: thread-purity ----------------------------------------------------

void rule_thread_purity(const std::vector<const ParsedFile*>& files,
                        const std::vector<std::string>& roots,
                        std::vector<Finding>& out) {
  struct FnRef {
    const FunctionDef* fn;
    const ParsedFile* file;
  };
  std::vector<FnRef> fns;
  std::multimap<std::string, std::size_t> by_name;
  for (const ParsedFile* pf : files) {
    for (const FunctionDef& fn : pf->functions) {
      by_name.insert({fn.name, fns.size()});
      fns.push_back(FnRef{&fn, pf});
    }
  }

  // Identifier-based reachability from the purity roots: body mentions a
  // name -> edge to every function of that name. Over-approximate by design
  // (virtual dispatch, SmallFn callbacks, and recorded #define bodies all
  // collapse to name references). With no root in the scanned set, every
  // function counts as reachable.
  std::vector<bool> reachable(fns.size(), false);
  std::deque<std::size_t> work;
  for (const std::string& root : roots) {
    auto [lo, hi] = by_name.equal_range(root);
    for (auto it = lo; it != hi; ++it) {
      if (!reachable[it->second]) {
        reachable[it->second] = true;
        work.push_back(it->second);
      }
    }
  }
  const bool have_roots = !work.empty();
  if (!have_roots) reachable.assign(fns.size(), true);
  while (!work.empty()) {
    const std::size_t idx = work.front();
    work.pop_front();
    for (const std::string& ident : fns[idx].fn->body_idents) {
      auto [lo, hi] = by_name.equal_range(ident);
      for (auto it = lo; it != hi; ++it) {
        if (!reachable[it->second]) {
          reachable[it->second] = true;
          work.push_back(it->second);
        }
      }
    }
  }
  auto referenced_by_reachable = [&](const std::string& name) {
    if (!have_roots) return true;
    for (std::size_t k = 0; k < fns.size(); ++k) {
      if (reachable[k] && fns[k].fn->body_idents.count(name) != 0) return true;
    }
    return false;
  };

  const std::string kWhy =
      " — shared mutable state breaks run_many() pooled-sweep determinism "
      "(serial-vs-pooled digest equality); make it const, move it into the "
      "simulation, or allowlist it with NOLINT-gpuqos(thread-purity) and a "
      "reason";

  for (std::size_t k = 0; k < fns.size(); ++k) {
    if (!reachable[k]) continue;
    for (const LocalStatic& v : fns[k].fn->local_statics) {
      if (v.is_const) continue;
      std::string kind = v.is_thread_local ? "thread_local" : "static";
      if (v.is_atomic) kind += " atomic";
      if (v.is_mutex) kind += " mutex";
      out.push_back(make(kRuleThreadPurity, fns[k].file->path, v.line, v.name,
                         "mutable function-local " + kind + " '" + v.name +
                             "' in '" + fns[k].fn->name + "()'" + kWhy));
    }
  }
  for (const ParsedFile* pf : files) {
    for (const NamespaceVar& v : pf->namespace_vars) {
      if (v.is_const) continue;
      if (!referenced_by_reachable(v.name)) continue;
      std::string kind = v.is_atomic ? "atomic variable" : "variable";
      if (v.is_mutex) kind = "mutex";
      out.push_back(make(kRuleThreadPurity, pf->path, v.line, v.name,
                         "namespace-scope mutable " + kind + " '" + v.name +
                             "'" + kWhy));
    }
    for (const ClassDecl& c : pf->classes) {
      for (const FieldDecl& f : c.static_members) {
        if (f.is_const || f.is_atomic) continue;
        if (!referenced_by_reachable(f.name)) continue;
        out.push_back(make(kRuleThreadPurity, pf->path, f.line,
                           c.name + "::" + f.name,
                           "non-atomic mutable static member '" + c.name +
                               "::" + f.name + "'" + kWhy));
      }
    }
  }
}

// ---- R3: check-hygiene ----------------------------------------------------

void rule_check_hygiene(const ParsedFile& file, std::vector<Finding>& out) {
  const std::vector<Token>& t = file.ts.tokens;
  bool in_directive = false;
  for (std::size_t k = 0; k < t.size(); ++k) {
    if (t[k].starts_line) in_directive = t[k].kind == Tok::Hash;
    if (in_directive) continue;  // `#include <new>` is not an allocation
    if (t[k].kind != Tok::Ident) continue;
    const std::string& s = t[k].text;
    const Token* next = k + 1 < t.size() ? &t[k + 1] : nullptr;
    const Token* prev = k > 0 ? &t[k - 1] : nullptr;
    auto prev_is = [&](const char* p) {
      return prev != nullptr && prev->text == p;
    };
    if (s == "assert" && next != nullptr && next->text == "(" &&
        !prev_is("#") && !prev_is(".") && !prev_is("::") && !prev_is("->")) {
      out.push_back(make(kRuleCheckHygiene, file.path, t[k].line, "",
                         "bare assert() — use GPUQOS_CHECK(cond, msg): it "
                         "stamps the simulation cycle and module and routes "
                         "through the log sink before aborting"));
    } else if ((s == "cerr" || s == "clog") && !prev_is(".") &&
               !prev_is("->")) {
      out.push_back(make(kRuleCheckHygiene, file.path, t[k].line, "",
                         "un-stamped std::" + s +
                             " logging — use GPUQOS_LOG (cycle-stamped, "
                             "pluggable sink) so sweeps and CI capture it"));
    } else if (s == "new" && !prev_is("operator")) {
      // Placement new constructs into existing storage (no allocation) and
      // is allowed; `new (args...) T` is recognized by the '(' that follows.
      if (next != nullptr && next->text == "(") continue;
      out.push_back(make(kRuleCheckHygiene, file.path, t[k].line, "",
                         "raw new outside an annotated arena — use "
                         "std::make_unique/containers, or annotate the arena "
                         "with NOLINT-gpuqos(check-hygiene) and a reason"));
    } else if (s == "delete" && !prev_is("=") && !prev_is("operator")) {
      out.push_back(make(kRuleCheckHygiene, file.path, t[k].line, "",
                         "raw delete outside an annotated arena — owning "
                         "state must use RAII, or annotate the arena with "
                         "NOLINT-gpuqos(check-hygiene) and a reason"));
    }
  }
}

// ---- R4: header-hygiene ---------------------------------------------------

void rule_header_hygiene(const ParsedFile& file, std::vector<Finding>& out) {
  if (file.path.size() < 4 ||
      file.path.compare(file.path.size() - 4, 4, ".hpp") != 0) {
    return;
  }
  const std::vector<Token>& t = file.ts.tokens;
  bool guarded = false;
  std::string ifndef_sym;
  std::size_t k = 0;
  while (k < t.size() && t[k].kind != Tok::Eof) {
    if (t[k].kind != Tok::Hash) break;  // code before any guard
    // Walk this directive's tokens.
    std::size_t d = k + 1;
    std::vector<const Token*> dir;
    while (d < t.size() && !t[d].starts_line && t[d].kind != Tok::Eof) {
      dir.push_back(&t[d]);
      ++d;
    }
    if (dir.size() >= 2 && dir[0]->text == "pragma" &&
        dir[1]->text == "once") {
      guarded = true;
      break;
    }
    if (!dir.empty() && dir[0]->text == "ifndef" && dir.size() >= 2) {
      ifndef_sym = dir[1]->text;
    } else if (!dir.empty() && dir[0]->text == "define" && dir.size() >= 2 &&
               !ifndef_sym.empty() && dir[1]->text == ifndef_sym) {
      guarded = true;
      break;
    }
    k = d;
  }
  if (!guarded) {
    out.push_back(make(kRuleHeaderHygiene, file.path, 1, "",
                       "header has no #pragma once (or include guard) before "
                       "its first declaration — double inclusion breaks the "
                       "header_compile self-containment build"));
  }
}

}  // namespace gpuqos::lint
