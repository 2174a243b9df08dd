// gpuqos-lint declaration model.
//
// Deliberately shallow: the rules need classes with their fields and the
// bodies of save()/load()/digest(), every function definition (for the
// thread-purity reachability walk), and namespace-scope variables. Nothing
// else about the program is recovered.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "token.hpp"

namespace gpuqos::lint {

struct FieldDecl {
  std::string name;
  std::string type;  // declaration-head type tokens, space-joined
  int line = 0;
  bool is_static = false;
  bool is_const = false;      // const or constexpr
  bool is_atomic = false;     // std::atomic<...> (or atomic_*)
  bool is_thread_local = false;
  bool is_ref = false;        // reference member: non-owning wiring
  bool is_ptr = false;        // raw-pointer member: non-owning wiring
  bool is_mutex = false;      // std::mutex / std::shared_mutex and friends
  bool skip_ckpt = false;     // /*ckpt:skip*/ annotation on the declaration
  bool skip_digest = false;   // /*digest:skip*/ annotation on the declaration
};

struct MethodInfo {
  bool declared = false;
  int line = 0;  // declaration line inside the class body
  std::set<std::string> body_idents;  // empty until a definition is seen
  bool has_body = false;
};

struct ClassDecl {
  std::string name;  // unqualified; nested classes use Outer::Inner
  int line = 0;
  std::vector<FieldDecl> fields;          // non-static data members
  std::vector<FieldDecl> static_members;  // static data members
  std::map<std::string, MethodInfo> methods;  // every declared member function
};

struct LocalStatic {
  std::string name;
  std::string type;  // declaration tokens before the initializer, joined
  int line = 0;
  bool is_const = false;
  bool is_atomic = false;
  bool is_thread_local = false;
  bool is_mutex = false;
};

struct ParamDecl {
  std::string name;  // empty for unnamed parameters
  std::string type;
};

struct FunctionDef {
  std::string name;        // unqualified ("save", "run_many", ...)
  std::string qual_class;  // "Engine" for Engine::save, empty for free fns
  int line = 0;
  std::set<std::string> body_idents;
  std::vector<LocalStatic> local_statics;
  std::vector<ParamDecl> params;
  // Token range of the body brace group in ParsedFile::ts.tokens:
  // [body_begin, body_end), '{' included. 0,0 when there is no body
  // (declarations, recorded #define pseudo-functions).
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

struct NamespaceVar {
  std::string name;
  std::string type;
  int line = 0;
  bool is_const = false;
  bool is_atomic = false;
  bool is_thread_local = false;
  bool is_mutex = false;
};

struct ParsedFile {
  std::string path;
  TokenStream ts;
  std::vector<ClassDecl> classes;
  std::vector<NamespaceVar> namespace_vars;
  std::vector<FunctionDef> functions;
};

/// Parse one file's token stream into the shallow declaration model.
[[nodiscard]] ParsedFile parse(std::string path, TokenStream ts);

}  // namespace gpuqos::lint
