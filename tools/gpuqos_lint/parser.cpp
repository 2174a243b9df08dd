#include <algorithm>
#include <cstddef>

#include "ast.hpp"

// Lightweight declaration parser: a single forward pass with a scope stack,
// classifying each brace group from the statement head that precedes it
// (namespace / class / enum / function-body / initializer). It recovers
// classes + fields + method bodies, free-function bodies, namespace-scope
// variables, and function-local statics. Known, accepted limitations (none
// occur in this codebase; self-lint keeps it that way):
//   * constructor member-init lists written with braces (`: x_{1} {`) — the
//     project style uses parens;
//   * multi-declarator members share the head's cv-flags;
//   * function-pointer members are classified as method declarations.

namespace gpuqos::lint {
namespace {

bool is_one_of(const std::string& s, std::initializer_list<const char*> set) {
  return std::any_of(set.begin(), set.end(),
                     [&](const char* v) { return s == v; });
}

/// Keywords that can appear in a declaration head but never name a field.
bool is_decl_keyword(const std::string& s) {
  return is_one_of(
      s, {"static",   "const",    "constexpr", "consteval", "constinit",
          "mutable",  "volatile", "inline",    "extern",    "thread_local",
          "virtual",  "explicit", "typename",  "unsigned",  "signed",
          "long",     "short",    "int",       "char",      "bool",
          "float",    "double",   "void",      "auto",      "register",
          "struct",   "class",    "union",     "enum",      "operator",
          "noexcept", "override", "final",     "default",   "nullptr",
          "true",     "false",    "alignas",   "decltype"});
}

struct Parser {
  explicit Parser(ParsedFile& out) : out_(out), t_(out.ts.tokens) {}

  void run() { parse_scope(nullptr, ""); }

  ParsedFile& out_;
  const std::vector<Token>& t_;
  std::size_t i_ = 0;

  [[nodiscard]] const Token& cur() const { return t_[i_]; }
  [[nodiscard]] bool eof() const { return t_[i_].kind == Tok::Eof; }
  [[nodiscard]] bool at_punct(const char* p) const {
    return cur().kind == Tok::Punct && cur().text == p;
  }

  /// Skip a preprocessor directive. Object/function macro definitions are
  /// recorded as pseudo-functions ("GPUQOS_LOG" -> {log_message, ...}) so
  /// the thread-purity reachability walk can follow macro indirection.
  void skip_directive() {
    ++i_;  // the '#'
    std::vector<std::size_t> toks;
    while (!eof() && !cur().starts_line) {
      toks.push_back(i_);
      ++i_;
    }
    if (toks.size() >= 2 && t_[toks[0]].kind == Tok::Ident &&
        t_[toks[0]].text == "define" && t_[toks[1]].kind == Tok::Ident) {
      FunctionDef fn;
      fn.name = t_[toks[1]].text;
      fn.line = t_[toks[1]].line;
      for (std::size_t k = 2; k < toks.size(); ++k) {
        if (t_[toks[k]].kind == Tok::Ident) {
          fn.body_idents.insert(t_[toks[k]].text);
        }
      }
      out_.functions.push_back(std::move(fn));
    }
  }

  /// Skip a balanced {...} group; cur() must be at the '{'.
  void skip_braces() {
    int depth = 0;
    while (!eof()) {
      if (at_punct("{")) ++depth;
      if (at_punct("}")) {
        --depth;
        if (depth == 0) {
          ++i_;
          return;
        }
      }
      ++i_;
    }
  }

  void parse_scope(ClassDecl* cls, const std::string& nest_prefix) {
    while (!eof()) {
      if (at_punct("}")) {
        ++i_;
        return;
      }
      if (at_punct(";")) {
        ++i_;
        continue;
      }
      if (cur().kind == Tok::Hash) {
        skip_directive();
        continue;
      }
      if (cls != nullptr && cur().kind == Tok::Ident &&
          is_one_of(cur().text, {"public", "private", "protected"}) &&
          t_[i_ + 1].kind == Tok::Punct && t_[i_ + 1].text == ":") {
        i_ += 2;
        continue;
      }
      parse_element(cls, nest_prefix);
    }
  }

  // ---- element parsing ----------------------------------------------------

  struct Head {
    std::vector<std::size_t> toks;  // indices into t_
    int angle = 0;                  // template-angle depth
    int paren = 0;
    int bracket = 0;                  // [...] depth: captures, attributes
    bool saw_toplevel_eq = false;     // '=' at angle/paren depth 0
    bool saw_toplevel_paren = false;  // '(' at angle depth 0 (before any '=')
    int first_line = 0;
    [[nodiscard]] bool contains(const char* kw, const Parser& p) const {
      return std::any_of(toks.begin(), toks.end(), [&](std::size_t k) {
        return p.t_[k].kind == Tok::Ident && p.t_[k].text == kw;
      });
    }
  };

  /// Whether a '<' after `prev` opens a template-argument list. Openers
  /// follow a name or a closing angle (std::vector<..., SmallFn<...); the
  /// '<' of `operator<` is part of the operator's name, not an opener.
  static bool angle_opens_after(const Token& prev) {
    if (prev.kind == Tok::Ident) return prev.text != "operator";
    return prev.kind == Tok::Punct && (prev.text == ">" || prev.text == "::");
  }

  /// Keywords whose following (...) group is part of the type, not a
  /// function declarator: `decltype(0u) v_;` declares a field.
  static bool is_type_paren_keyword(const Token& tk) {
    return tk.kind == Tok::Ident &&
           is_one_of(tk.text,
                     {"decltype", "noexcept", "alignas", "__attribute__"});
  }

  void head_track(Head& h, const Token& tk) {
    if (tk.kind != Tok::Punct) return;
    const std::string& s = tk.text;
    if (s == "[") {
      ++h.bracket;
      return;
    }
    if (s == "]") {
      if (h.bracket > 0) --h.bracket;
      return;
    }
    // Inside [...] (lambda init-captures, attributes, array bounds) the
    // tokens are opaque: a `<` comparison or `=` there is not a declarator
    // boundary.
    if (h.bracket > 0) return;
    if (s == "<") {
      if (!h.toks.empty() && angle_opens_after(t_[h.toks.back()])) ++h.angle;
    } else if (s == ">" && h.angle > 0) {
      --h.angle;
    } else if (s == ">>" && h.angle > 0) {
      h.angle = h.angle >= 2 ? h.angle - 2 : 0;
    } else if (s == "(") {
      if (h.angle == 0 && !h.saw_toplevel_eq &&
          !(h.paren == 0 && !h.toks.empty() &&
            is_type_paren_keyword(t_[h.toks.back()]))) {
        h.saw_toplevel_paren = true;
      }
      ++h.paren;
    } else if (s == ")") {
      if (h.paren > 0) --h.paren;
    } else if (s == "=" && h.angle == 0 && h.paren == 0) {
      h.saw_toplevel_eq = true;
    }
  }

  void parse_element(ClassDecl* cls, const std::string& nest_prefix) {
    Head head;
    head.first_line = cur().line;
    while (!eof()) {
      if (cur().kind == Tok::Hash) {
        skip_directive();
        continue;
      }
      if (at_punct(";") && head.paren == 0) {
        const int end_line = cur().line;
        ++i_;
        finish_declaration(cls, head, end_line);
        return;
      }
      if (at_punct("{") && head.paren == 0) {
        if (head.contains("namespace", *this)) {
          ++i_;
          parse_scope(nullptr, nest_prefix);
          return;
        }
        if (head.contains("enum", *this)) {
          skip_braces();
          consume_to_semi();
          return;
        }
        if (head.saw_toplevel_paren && !head.saw_toplevel_eq) {
          parse_function(cls, head);
          return;
        }
        if (class_key_index(head) != npos) {
          parse_class(cls, head, nest_prefix);
          return;
        }
        // Brace initializer (or a construct this parser doesn't model):
        // swallow it and keep reading the declaration.
        skip_braces();
        continue;
      }
      head_track(head, cur());
      head.toks.push_back(i_);
      ++i_;
    }
  }

  void consume_to_semi() {
    int depth = 0;
    while (!eof()) {
      if (at_punct("{")) ++depth;
      if (at_punct("}") && depth > 0) --depth;
      if (at_punct(";") && depth == 0) {
        ++i_;
        return;
      }
      ++i_;
    }
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Index (into head.toks) of the last class/struct/union key at angle
  /// depth 0 — skipping template-parameter `class T` occurrences.
  [[nodiscard]] std::size_t class_key_index(const Head& head) const {
    std::size_t found = npos;
    int angle = 0;
    for (std::size_t k = 0; k < head.toks.size(); ++k) {
      const Token& tk = t_[head.toks[k]];
      if (tk.kind == Tok::Punct) {
        if (tk.text == "<") {
          if (k > 0) {
            const Token& prev = t_[head.toks[k - 1]];
            if (prev.kind == Tok::Ident || prev.text == ">" ||
                prev.text == "::") {
              ++angle;
            }
          }
        } else if (tk.text == ">" && angle > 0) {
          --angle;
        } else if (tk.text == ">>" && angle > 0) {
          angle = angle >= 2 ? angle - 2 : 0;
        }
      }
      if (angle == 0 && tk.kind == Tok::Ident &&
          is_one_of(tk.text, {"class", "struct", "union"})) {
        found = k;
      }
    }
    return found;
  }

  // ---- classes ------------------------------------------------------------

  void parse_class(ClassDecl* outer, const Head& head,
                   const std::string& nest_prefix) {
    ClassDecl decl;
    decl.line = head.first_line;
    const std::size_t key = class_key_index(head);
    for (std::size_t k = key + 1; k < head.toks.size(); ++k) {
      const Token& tk = t_[head.toks[k]];
      if (tk.kind == Tok::Ident && !is_decl_keyword(tk.text)) {
        decl.name = tk.text;
        break;
      }
      // Stop at the base-clause ':' — an unnamed class stays unnamed.
      if (tk.kind == Tok::Punct && tk.text == ":") break;
    }
    if (outer != nullptr && !decl.name.empty()) {
      decl.name = (nest_prefix.empty() ? outer->name : nest_prefix) +
                  "::" + decl.name;
    }
    ++i_;  // '{'
    parse_scope(&decl, decl.name);
    consume_to_semi();
    if (!decl.name.empty()) out_.classes.push_back(std::move(decl));
  }

  // ---- functions ----------------------------------------------------------

  /// Function name and (for out-of-line members) the qualifying class, taken
  /// from the tokens just before the declarator '('. Returns the index of
  /// that '(' in head.toks (npos when the head has none), so callers can
  /// parse the parameter list. Handles operator names (operator<, (), [],
  /// conversion operators) and class-template qualifiers (Box<T>::digest).
  static std::size_t function_name(const Parser& p, const Head& head,
                                   std::string& name, std::string& qual) {
    auto text = [&](std::size_t k) -> const std::string& {
      return p.t_[head.toks[k]].text;
    };
    int angle = 0;
    int skip_paren = 0;  // depth inside a decltype/noexcept/alignas group
    std::size_t paren = npos;
    for (std::size_t k = 0; k < head.toks.size(); ++k) {
      const Token& tk = p.t_[head.toks[k]];
      if (tk.kind != Tok::Punct) continue;
      if (tk.text == "<") {
        if (k > 0 && angle_opens_after(p.t_[head.toks[k - 1]])) ++angle;
      } else if (tk.text == ">" && angle > 0) {
        --angle;
      } else if (tk.text == ">>" && angle > 0) {
        angle = angle >= 2 ? angle - 2 : 0;
      } else if (tk.text == "(") {
        if (skip_paren > 0) {
          ++skip_paren;
        } else if (angle == 0) {
          if (k > 0 && is_type_paren_keyword(p.t_[head.toks[k - 1]])) {
            ++skip_paren;  // type parens: keep looking for the declarator
          } else {
            paren = k;
            break;
          }
        }
      } else if (tk.text == ")" && skip_paren > 0) {
        --skip_paren;
      }
    }
    if (paren == npos || paren == 0) return npos;
    const Token& before = p.t_[head.toks[paren - 1]];
    if (before.kind == Tok::Ident) {
      // `operator()` — this '(' is the call operator's name, not the list.
      name = before.text == "operator" ? "operator()" : before.text;
    } else if (before.kind == Tok::Punct) {
      if (paren >= 3 && before.text == "]" && text(paren - 2) == "[" &&
          text(paren - 3) == "operator") {
        name = "operator[]";
      } else if (paren >= 2 && text(paren - 2) == "operator") {
        name = "operator" + before.text;  // operator<, operator==, ...
      }
    }
    if (name.empty()) return paren;
    if (before.kind == Tok::Ident && before.text != "operator") {
      // Conversion operators: `operator std::uint64_t()` — the ident before
      // '(' names a type and "operator" sits behind the type tokens.
      for (std::size_t j = paren - 1; j > 0; --j) {
        const Token& tk = p.t_[head.toks[j - 1]];
        const bool type_tok =
            tk.kind == Tok::Ident ||
            (tk.kind == Tok::Punct &&
             (tk.text == "::" || tk.text == "<" || tk.text == ">" ||
              tk.text == ">>" || tk.text == "*" || tk.text == "&"));
        if (!type_tok) break;
        if (tk.kind == Tok::Ident && tk.text == "operator") {
          name = "operator " + name;
          return paren;  // no :: qualifier applies to the conversion name
        }
      }
    }
    if (paren >= 3 && text(paren - 2) == "::") {
      std::size_t j = paren - 3;
      if (p.t_[head.toks[j]].kind == Tok::Ident) {
        qual = text(j);
      } else if (text(j) == ">" || text(j) == ">>") {
        // Class-template member: walk back over `<T, ...>` to the name.
        int depth = 0;
        while (true) {
          const std::string& s = text(j);
          if (s == ">") ++depth;
          if (s == ">>") depth += 2;
          if (s == "<") --depth;
          if (depth == 0 || j == 0) break;
          --j;
        }
        if (depth == 0 && j > 0 &&
            p.t_[head.toks[j - 1]].kind == Tok::Ident) {
          qual = text(j - 1);
        }
      }
    }
    return paren;
  }

  /// Parse the parameter list opened at head.toks[paren] into fn.params.
  void parse_params(const Head& head, std::size_t paren, FunctionDef& fn) {
    std::vector<std::vector<std::size_t>> chunks(1);
    int depth = 1;
    int angle = 0;
    int bracket = 0;
    for (std::size_t k = paren + 1; k < head.toks.size(); ++k) {
      const Token& tk = t_[head.toks[k]];
      if (tk.kind == Tok::Punct) {
        if (tk.text == "(") {
          ++depth;
        } else if (tk.text == ")") {
          if (--depth == 0) break;
        } else if (tk.text == "[") {
          ++bracket;
        } else if (tk.text == "]") {
          if (bracket > 0) --bracket;
        } else if (bracket == 0 && tk.text == "<" &&
                   angle_opens_after(t_[head.toks[k - 1]])) {
          ++angle;
        } else if (bracket == 0 && tk.text == ">" && angle > 0) {
          --angle;
        } else if (bracket == 0 && tk.text == ">>" && angle > 0) {
          angle = angle >= 2 ? angle - 2 : 0;
        } else if (tk.text == "," && depth == 1 && angle == 0 &&
                   bracket == 0) {
          chunks.emplace_back();
          continue;
        }
      }
      chunks.back().push_back(head.toks[k]);
    }
    for (const auto& chunk : chunks) {
      if (chunk.empty()) continue;
      int a = 0;
      int par = 0;
      std::size_t name_k = npos;
      std::size_t type_end = chunk.size();
      for (std::size_t k = 0; k < chunk.size(); ++k) {
        const Token& tk = t_[chunk[k]];
        if (tk.kind == Tok::Punct) {
          if (tk.text == "(") {
            ++par;
          } else if (tk.text == ")" && par > 0) {
            --par;
          } else if (par == 0 && tk.text == "<" && k > 0 &&
                     angle_opens_after(t_[chunk[k - 1]])) {
            ++a;
          } else if (par == 0 && tk.text == ">" && a > 0) {
            --a;
          } else if (par == 0 && tk.text == ">>" && a > 0) {
            a = a >= 2 ? a - 2 : 0;
          } else if (par == 0 && a == 0 && tk.text == "=") {
            type_end = std::min(type_end, k);
            break;  // default argument
          }
          continue;
        }
        if (tk.kind == Tok::Ident && a == 0 && par == 0 &&
            !is_decl_keyword(tk.text)) {
          name_k = k;
        }
      }
      ParamDecl pd;
      // A lone ident is a type, not a name (`f(Foo)` vs `f(Foo f)`).
      if (name_k != npos && name_k > 0) {
        pd.name = t_[chunk[name_k]].text;
        type_end = std::min(type_end, name_k);
      }
      for (std::size_t k = 0; k < type_end; ++k) {
        if (!pd.type.empty()) pd.type += ' ';
        pd.type += t_[chunk[k]].text;
      }
      if (pd.type == "void" && pd.name.empty()) continue;
      if (pd.type.empty() && pd.name.empty()) continue;
      fn.params.push_back(std::move(pd));
    }
  }

  void parse_function(ClassDecl* cls, const Head& head) {
    FunctionDef fn;
    fn.line = head.first_line;
    const std::size_t paren =
        function_name(*this, head, fn.name, fn.qual_class);
    if (cls != nullptr && fn.qual_class.empty()) fn.qual_class = cls->name;
    if (paren != npos) parse_params(head, paren, fn);
    fn.body_begin = i_;  // the '{'
    ++i_;
    scan_function_body(fn);
    fn.body_end = i_;  // one past the matching '}'
    if (cls != nullptr && !fn.name.empty()) {
      MethodInfo& m = cls->methods[fn.name];
      m.declared = true;
      m.line = head.first_line;
      m.has_body = true;
      m.body_idents.insert(fn.body_idents.begin(), fn.body_idents.end());
    }
    if (!fn.name.empty()) out_.functions.push_back(std::move(fn));
  }

  void scan_function_body(FunctionDef& fn) {
    int depth = 1;
    std::string prev_punct = "{";
    bool prev_was_punct = true;
    while (!eof() && depth > 0) {
      const Token& tk = cur();
      if (tk.kind == Tok::Punct) {
        if (tk.text == "{") ++depth;
        if (tk.text == "}") {
          --depth;
          if (depth == 0) {
            ++i_;
            return;
          }
        }
        prev_punct = tk.text;
        prev_was_punct = true;
        ++i_;
        continue;
      }
      if (tk.kind == Tok::Hash) {
        skip_directive();
        continue;
      }
      if (tk.kind == Tok::Ident) {
        fn.body_idents.insert(tk.text);
        const bool stmt_start =
            tk.starts_line ||
            (prev_was_punct &&
             (prev_punct == ";" || prev_punct == "{" || prev_punct == "}"));
        if (stmt_start &&
            (tk.text == "static" || tk.text == "thread_local")) {
          scan_local_static(fn);
          prev_was_punct = false;
          continue;
        }
      }
      prev_was_punct = false;
      ++i_;
    }
  }

  /// cur() is at the `static` / `thread_local` keyword of a block-scope
  /// declaration; consume through its ';', recording idents as body tokens.
  void scan_local_static(FunctionDef& fn) {
    LocalStatic var;
    var.line = cur().line;
    std::vector<std::size_t> decl;
    int depth = 0;
    while (!eof()) {
      const Token& tk = cur();
      if (tk.kind == Tok::Ident) fn.body_idents.insert(tk.text);
      if (tk.kind == Tok::Punct) {
        if (tk.text == "{") ++depth;
        if (tk.text == "}") --depth;
        if (tk.text == ";" && depth <= 0) {
          ++i_;
          break;
        }
      }
      decl.push_back(i_);
      ++i_;
    }
    int angle = 0;
    bool stop_flags = false;
    std::string last_ident;
    std::vector<std::string> type_toks;
    for (std::size_t k : decl) {
      const Token& tk = t_[k];
      if (tk.kind == Tok::Punct) {
        if (tk.text == "<") {
          if (angle_opens_after(t_[k - 1])) ++angle;
        } else if (tk.text == ">" && angle > 0) {
          --angle;
        } else if (tk.text == ">>" && angle > 0) {
          angle = angle >= 2 ? angle - 2 : 0;
        } else if ((tk.text == "=" || tk.text == "{" || tk.text == "[" ||
                    tk.text == "(") &&
                   angle == 0) {
          stop_flags = true;
        }
        if (!stop_flags) type_toks.push_back(tk.text);
        continue;
      }
      if (stop_flags) continue;
      if (tk.kind == Tok::Ident || tk.kind == Tok::Number) {
        type_toks.push_back(tk.text);
      }
      if (tk.kind != Tok::Ident || angle != 0) continue;
      if (tk.text == "const" || tk.text == "constexpr") var.is_const = true;
      if (tk.text == "thread_local") var.is_thread_local = true;
      if (tk.text.rfind("atomic", 0) == 0) var.is_atomic = true;
      if (tk.text.find("mutex") != std::string::npos) var.is_mutex = true;
      if (!is_decl_keyword(tk.text)) last_ident = tk.text;
    }
    var.name = last_ident;
    if (!type_toks.empty() && type_toks.back() == var.name) {
      type_toks.pop_back();
    }
    for (const std::string& s : type_toks) {
      if (!var.type.empty()) var.type += ' ';
      var.type += s;
    }
    if (!var.name.empty()) fn.local_statics.push_back(std::move(var));
  }

  // ---- terminal declarations (ended by ';') -------------------------------

  void finish_declaration(ClassDecl* cls, const Head& head, int end_line) {
    if (head.toks.empty()) return;
    if (head.contains("using", *this) || head.contains("typedef", *this) ||
        head.contains("friend", *this) ||
        head.contains("static_assert", *this)) {
      return;
    }
    // Class-template forward declarations and alias/variable templates have
    // no declarator parens; function/method template declarations do and
    // fall through so R1 sees the declared method.
    if (head.contains("template", *this) && !head.saw_toplevel_paren) return;
    if (head.saw_toplevel_paren) {
      // Function declaration (or a function-pointer member). Record declared
      // methods so R1 knows which of save/load/digest a class promises.
      if (cls != nullptr) {
        std::string name;
        std::string qual;
        function_name(*this, head, name, qual);
        if (!name.empty()) {
          MethodInfo& m = cls->methods[name];
          m.declared = true;
          if (m.line == 0) m.line = head.first_line;
        }
      }
      return;
    }
    if (class_key_index(head) != npos || head.contains("enum", *this) ||
        head.contains("namespace", *this) || head.contains("extern", *this)) {
      return;  // forward declarations, enum decls, extern hooks
    }
    emit_variables(cls, head, end_line);
  }

  void emit_variables(ClassDecl* cls, const Head& head, int end_line) {
    // Split on top-level commas; each chunk is one declarator (the first
    // carries the type).
    std::vector<std::vector<std::size_t>> chunks(1);
    int angle = 0;
    int paren = 0;
    int bracket = 0;
    bool after_eq = false;
    for (std::size_t k = 0; k < head.toks.size(); ++k) {
      const Token& tk = t_[head.toks[k]];
      if (tk.kind == Tok::Punct) {
        if (tk.text == "<") {
          if (k > 0) {
            const Token& prev = t_[head.toks[k - 1]];
            if (prev.kind == Tok::Ident || prev.text == ">" ||
                prev.text == "::") {
              ++angle;
            }
          }
        } else if (tk.text == ">" && angle > 0) {
          --angle;
        } else if (tk.text == ">>" && angle > 0) {
          angle = angle >= 2 ? angle - 2 : 0;
        } else if (tk.text == "(") {
          ++paren;
        } else if (tk.text == ")") {
          --paren;
        } else if (tk.text == "[") {
          ++bracket;
        } else if (tk.text == "]") {
          --bracket;
        } else if (tk.text == "=" && angle == 0 && paren == 0) {
          after_eq = true;
        } else if (tk.text == "," && angle == 0 && paren == 0 &&
                   bracket == 0) {
          chunks.emplace_back();
          after_eq = false;
          continue;
        }
      }
      chunks.back().push_back(head.toks[k]);
    }
    (void)after_eq;

    FieldDecl flags;  // head-wide cv/storage flags from the first chunk
    {
      int a = 0;
      bool stop = false;
      for (std::size_t k = 0; k < chunks[0].size() && !stop; ++k) {
        const Token& tk = t_[chunks[0][k]];
        if (tk.kind == Tok::Punct) {
          if (tk.text == "<") {
            const Token& prev = t_[chunks[0][k - 1]];
            if (prev.kind == Tok::Ident || prev.text == ">" ||
                prev.text == "::")
              ++a;
          } else if (tk.text == ">" && a > 0) {
            --a;
          } else if (tk.text == ">>" && a > 0) {
            a = a >= 2 ? a - 2 : 0;
          } else if (tk.text == "=" && a == 0) {
            stop = true;
          } else if ((tk.text == "&" || tk.text == "&&") && a == 0) {
            flags.is_ref = true;
          } else if (tk.text == "*" && a == 0) {
            flags.is_ptr = true;
          }
          continue;
        }
        if (tk.kind != Tok::Ident || a != 0) continue;
        if (tk.text == "static") flags.is_static = true;
        if (tk.text == "const" || tk.text == "constexpr") flags.is_const = true;
        if (tk.text == "thread_local") flags.is_thread_local = true;
        if (tk.text.rfind("atomic", 0) == 0) flags.is_atomic = true;
        if (tk.text.find("mutex") != std::string::npos) flags.is_mutex = true;
      }
    }

    std::string head_type;  // type tokens of the first declarator
    for (const auto& chunk : chunks) {
      std::string name;
      int name_line = head.first_line;
      std::size_t name_k = npos;
      int a = 0;
      for (std::size_t k = 0; k < chunk.size(); ++k) {
        const Token& tk = t_[chunk[k]];
        if (tk.kind == Tok::Punct) {
          if (tk.text == "<") {
            if (angle_opens_after(t_[chunk[k - 1]])) ++a;
          } else if (tk.text == ">" && a > 0) {
            --a;
          } else if (tk.text == ">>" && a > 0) {
            a = a >= 2 ? a - 2 : 0;
          } else if ((tk.text == "=" || tk.text == "[" || tk.text == ":") &&
                     a == 0) {
            break;
          }
          continue;
        }
        if (tk.kind == Tok::Ident && a == 0 && !is_decl_keyword(tk.text)) {
          name = tk.text;
          name_line = tk.line;
          name_k = k;
        }
      }
      if (name.empty()) continue;
      std::string type;
      for (std::size_t k = 0; k < chunk.size() && k < name_k; ++k) {
        if (!type.empty()) type += ' ';
        type += t_[chunk[k]].text;
      }
      if (head_type.empty()) head_type = type;
      if (type.empty()) type = head_type;  // later declarators share the head
      if (cls != nullptr) {
        FieldDecl f = flags;
        f.name = name;
        f.type = std::move(type);
        f.line = name_line;
        annotate(f, head.first_line, end_line);
        (f.is_static ? cls->static_members : cls->fields)
            .push_back(std::move(f));
      } else {
        NamespaceVar v;
        v.name = name;
        v.type = std::move(type);
        v.line = name_line;
        v.is_const = flags.is_const;
        v.is_atomic = flags.is_atomic;
        v.is_thread_local = flags.is_thread_local;
        v.is_mutex = flags.is_mutex;
        out_.namespace_vars.push_back(std::move(v));
      }
    }
  }

  /// /*ckpt:skip*/ and /*digest:skip*/ annotations attach to any comment on
  /// the declaration's lines.
  void annotate(FieldDecl& f, int first_line, int end_line) const {
    for (const Comment& c : out_.ts.comments) {
      if (c.line < first_line || c.line > end_line) continue;
      if (c.text.find("ckpt:skip") != std::string::npos) f.skip_ckpt = true;
      if (c.text.find("digest:skip") != std::string::npos)
        f.skip_digest = true;
    }
  }
};

}  // namespace

ParsedFile parse(std::string path, TokenStream ts) {
  ParsedFile out;
  out.path = std::move(path);
  out.ts = std::move(ts);
  Parser p(out);
  p.run();
  return out;
}

}  // namespace gpuqos::lint
