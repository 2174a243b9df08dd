#include "symtab.hpp"

#include <cctype>
#include <sstream>

namespace gpuqos::lint {
namespace {

std::string simple_name(const std::string& name) {
  return name.substr(name.rfind(':') + 1);
}

bool is_cv_word(const std::string& s) {
  return s == "const" || s == "constexpr" || s == "volatile" ||
         s == "static" || s == "mutable" || s == "inline" ||
         s == "thread_local" || s == "typename" || s == "struct" ||
         s == "class" || s == "union" || s == "enum";
}

}  // namespace

std::string Symtab::type_class(const std::string& type) {
  std::istringstream ss(type);
  std::string tok;
  std::string last;
  int angle = 0;
  while (ss >> tok) {
    if (tok == "<") {
      ++angle;
    } else if (tok == ">" && angle > 0) {
      --angle;
    } else if (tok == ">>" && angle > 0) {
      angle = angle >= 2 ? angle - 2 : 0;
    } else if (angle == 0 && !tok.empty() &&
               (std::isalpha(static_cast<unsigned char>(tok[0])) != 0 ||
                tok[0] == '_') &&
               !is_cv_word(tok)) {
      last = tok;
    }
  }
  return last;
}

Symtab build_symtab(const std::vector<const ParsedFile*>& files) {
  Symtab st;
  for (const ParsedFile* pf : files) {
    for (const ClassDecl& c : pf->classes) {
      const std::string simple = simple_name(c.name);
      SymClass& sc = st.classes[simple];
      if (sc.decl == nullptr) {
        sc.name = simple;
        sc.decl = &c;
        sc.file = pf;
      }
      for (const FieldDecl& f : c.fields) sc.fields.emplace(f.name, &f);
      static const char* kDetMethods[] = {"tick", "digest", "save", "load"};
      for (const char* m : kDetMethods) {
        auto it = c.methods.find(m);
        if (it != c.methods.end() && it->second.declared) {
          sc.has_det_method = true;
        }
      }
    }
    for (const FunctionDef& fn : pf->functions) {
      const std::size_t idx = st.fns.size();
      SymFn sf;
      sf.def = &fn;
      sf.file = pf;
      sf.qualified = fn.qual_class.empty()
                         ? fn.name
                         : simple_name(fn.qual_class) + "::" + fn.name;
      st.by_name.insert({fn.name, idx});
      st.by_qualified.insert({sf.qualified, idx});
      st.fns.push_back(std::move(sf));
    }
  }
  return st;
}

}  // namespace gpuqos::lint
