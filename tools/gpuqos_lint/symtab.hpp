// Cross-translation-unit symbol table (docs/ANALYSIS.md, "gpuqos-lint").
//
// Flattens every ParsedFile into one view: all function definitions indexed
// by unqualified and qualified name, and per-class field/method summaries
// merged across TUs (a class declared in a header and defined out-of-line in
// a .cpp contributes to the same SymClass). Classes are keyed by simple name
// — the project keeps one class per name, everything in namespace gpuqos.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "ast.hpp"

namespace gpuqos::lint {

struct SymClass {
  std::string name;                 // simple (unqualified) class name
  const ClassDecl* decl = nullptr;  // first declaration seen
  const ParsedFile* file = nullptr;
  std::map<std::string, const FieldDecl*> fields;  // non-static data members
  bool has_det_method = false;  // declares tick/digest/save/load
};

struct SymFn {
  const FunctionDef* def = nullptr;
  const ParsedFile* file = nullptr;
  std::string qualified;  // "Engine::save" for members, "run_many" for free
};

struct Symtab {
  std::vector<SymFn> fns;
  std::multimap<std::string, std::size_t> by_name;  // unqualified fn name
  std::multimap<std::string, std::size_t> by_qualified;
  std::map<std::string, SymClass> classes;  // by simple class name

  [[nodiscard]] const SymClass* find_class(const std::string& simple) const {
    auto it = classes.find(simple);
    return it != classes.end() ? &it->second : nullptr;
  }

  /// Simple class name a declaration type string refers to: the last
  /// identifier at angle depth 0 ("const Foo&" -> "Foo",
  /// "std::unordered_map<K, V>" -> "unordered_map"). Empty when the type is
  /// built-in or unparseable.
  [[nodiscard]] static std::string type_class(const std::string& type);
};

[[nodiscard]] Symtab build_symtab(const std::vector<const ParsedFile*>& files);

}  // namespace gpuqos::lint
