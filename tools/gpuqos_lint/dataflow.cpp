#include "dataflow.hpp"

#include <algorithm>
#include <sstream>

namespace gpuqos::lint {
namespace {

bool is_stmt_keyword(const std::string& s) {
  static const char* kKw[] = {"if",     "else",    "for",      "while",
                              "do",     "switch",  "case",     "return",
                              "break",  "continue", "goto",    "using",
                              "delete", "new",     "throw",    "try",
                              "catch",  "default",  "sizeof",  "typedef",
                              "static_assert", "co_return", "co_await"};
  return std::any_of(std::begin(kKw), std::end(kKw),
                     [&](const char* k) { return s == k; });
}

bool is_type_word(const std::string& s) {
  return s == "const" || s == "constexpr" || s == "static" ||
         s == "thread_local" || s == "volatile" || s == "unsigned" ||
         s == "signed" || s == "long" || s == "short" || s == "int" ||
         s == "char" || s == "bool" || s == "float" || s == "double" ||
         s == "void" || s == "auto" || s == "typename" || s == "struct" ||
         s == "class" || s == "mutable" || s == "register";
}

bool angle_opens_after(const Token& prev) {
  if (prev.kind == Tok::Ident) return prev.text != "operator";
  return prev.kind == Tok::Punct && (prev.text == ">" || prev.text == "::");
}

bool contains_word(const std::string& type, const char* word) {
  // Token-boundary search in a space-joined token string.
  const std::string w = word;
  std::size_t pos = 0;
  while ((pos = type.find(w, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || type[pos - 1] == ' ';
    const std::size_t end = pos + w.size();
    const bool right_ok = end == type.size() || type[end] == ' ';
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

}  // namespace

std::map<std::string, LocalVar> scan_locals(const SymFn& fn) {
  std::map<std::string, LocalVar> out;
  for (const ParamDecl& p : fn.def->params) {
    if (p.name.empty()) continue;
    LocalVar v;
    v.type = p.type;
    v.line = fn.def->line;
    v.is_param = true;
    out.emplace(p.name, std::move(v));
  }
  if (fn.def->body_end <= fn.def->body_begin) return out;
  const std::vector<Token>& t = fn.file->ts.tokens;

  // Statement-head scan: at each statement start, try to read
  // `type-tokens name` up to `=` / `;` / `{` / `(`-with-args.
  bool stmt_start = true;
  std::size_t k = fn.def->body_begin + 1;
  const std::size_t end = fn.def->body_end > 0 ? fn.def->body_end - 1
                                               : fn.def->body_begin;
  while (k < end) {
    const Token& tk = t[k];
    if (tk.kind == Tok::Punct) {
      stmt_start = tk.text == ";" || tk.text == "{" || tk.text == "}" ||
                   tk.text == "(";
      ++k;
      continue;
    }
    if (tk.kind == Tok::Hash) {
      // Skip the directive's tokens.
      ++k;
      while (k < end && !t[k].starts_line) ++k;
      stmt_start = true;
      continue;
    }
    if (!stmt_start || tk.kind != Tok::Ident || is_stmt_keyword(tk.text)) {
      stmt_start = false;
      ++k;
      continue;
    }
    // Candidate declaration: collect type/name tokens.
    std::vector<std::size_t> decl;
    int angle = 0;
    bool ok = false;
    std::size_t j = k;
    for (; j < end; ++j) {
      const Token& dt = t[j];
      if (dt.kind == Tok::Punct) {
        if (dt.text == "<") {
          if (j > 0 && angle_opens_after(t[j - 1])) {
            ++angle;
          } else {
            break;  // comparison: not a declaration
          }
        } else if (dt.text == ">" && angle > 0) {
          --angle;
        } else if (dt.text == ">>" && angle > 0) {
          angle = angle >= 2 ? angle - 2 : 0;
        } else if (angle == 0 && (dt.text == "=" || dt.text == ";" ||
                                  dt.text == "{" || dt.text == "(" ||
                                  dt.text == ":")) {
          ok = true;
          break;
        } else if (dt.text == "*" || dt.text == "&" || dt.text == "&&" ||
                   dt.text == "::") {
          // type punctuation — keep collecting
        } else if (angle != 0 && dt.text == ",") {
          // template-argument separator — keep collecting
        } else {
          break;  // expression punctuation: abandon
        }
        decl.push_back(j);
        continue;
      }
      if (dt.kind == Tok::Ident || dt.kind == Tok::Number) {
        decl.push_back(j);
        continue;
      }
      break;  // strings/chars: expression, abandon
    }
    if (ok && decl.size() >= 2) {
      const std::string& term = t[j].text;
      std::size_t name_k = static_cast<std::size_t>(-1);
      for (std::size_t d = 0; d < decl.size(); ++d) {
        const Token& dt = t[decl[d]];
        if (dt.kind == Tok::Ident && !is_type_word(dt.text) &&
            !is_stmt_keyword(dt.text)) {
          name_k = d;
        }
      }
      // The name must be the last collected token with a type part before
      // it; `ns::f(args)` is a qualified call, not a direct-init.
      const bool qualified_call =
          term == "(" && name_k != static_cast<std::size_t>(-1) &&
          name_k > 0 && t[decl[name_k - 1]].text == "::";
      if (!qualified_call && name_k != static_cast<std::size_t>(-1) &&
          name_k == decl.size() - 1 && name_k > 0) {
        const Token& name_tok = t[decl[name_k]];
        if (out.count(name_tok.text) == 0) {
          LocalVar v;
          for (std::size_t d = 0; d < name_k; ++d) {
            if (!v.type.empty()) v.type += ' ';
            v.type += t[decl[d]].text;
          }
          v.line = name_tok.line;
          if (!v.type.empty()) out.emplace(name_tok.text, std::move(v));
        }
      }
    }
    k = j > k ? j : k + 1;
    stmt_start = false;
  }
  return out;
}

bool type_is_unordered(const std::string& type) {
  return type.find("unordered_") != std::string::npos;
}

bool type_is_float(const std::string& type) {
  return contains_word(type, "float") || contains_word(type, "double");
}

bool type_is_ptr_keyed_ordered(const std::string& type) {
  // Find `map <` / `set <` (and multi- variants), then look for a `*` in the
  // first template argument (up to a top-level comma or the closing angle).
  static const char* kNames[] = {"map", "multimap", "set", "multiset"};
  for (const char* n : kNames) {
    std::size_t pos = 0;
    const std::string needle = std::string(n) + " <";
    while ((pos = type.find(needle, pos)) != std::string::npos) {
      const bool left_ok = pos == 0 || type[pos - 1] == ' ';
      if (!left_ok) {
        pos += needle.size();
        continue;
      }
      int angle = 0;
      bool in_first_arg = true;
      std::size_t k = pos + needle.size() - 1;  // at the '<'
      std::string tok;
      std::istringstream ss(type.substr(k));
      while (ss >> tok && in_first_arg) {
        if (tok == "<") {
          ++angle;
        } else if (tok == ">" || tok == ">>") {
          angle -= tok == ">>" ? 2 : 1;
          if (angle <= 0) in_first_arg = false;
        } else if (tok == "," && angle == 1) {
          in_first_arg = false;
        } else if (tok == "*" && angle == 1) {
          return true;
        }
      }
      pos += needle.size();
    }
  }
  return false;
}

bool line_annotated(const ParsedFile& pf, int line, const char* tag) {
  for (const Comment& c : pf.ts.comments) {
    if (c.line != line && !(c.own_line && c.line == line - 1)) continue;
    if (c.text.find(tag) != std::string::npos) return true;
  }
  return false;
}

std::string resolve_type(const SymFn& fn,
                         const std::map<std::string, LocalVar>& locals,
                         const Symtab& st, const std::string& name) {
  auto lit = locals.find(name);
  if (lit != locals.end()) return lit->second.type;
  if (!fn.def->qual_class.empty()) {
    const std::string simple =
        fn.def->qual_class.substr(fn.def->qual_class.rfind(':') + 1);
    const SymClass* cls = st.find_class(simple);
    if (cls != nullptr) {
      auto fit = cls->fields.find(name);
      if (fit != cls->fields.end()) return fit->second->type;
    }
  }
  for (const NamespaceVar& v : fn.file->namespace_vars) {
    if (v.name == name) return v.type;
  }
  return "";
}

}  // namespace gpuqos::lint
