#include "cfg.hpp"

namespace gpuqos::lint {
namespace {

class Builder {
 public:
  Builder(const std::vector<Token>& t, std::size_t begin, std::size_t end)
      : t_(t), begin_(begin), end_(end) {}

  Cfg build() {
    cfg_.entry = new_block();
    cfg_.exit = new_block();
    cur_ = cfg_.entry;
    if (end_ > begin_ + 1) {
      // Skip the opening '{'; the matching '}' is the last token.
      parse_stmts(begin_ + 1, end_ - 1, nullptr);
    }
    edge(cur_, cfg_.exit);
    return std::move(cfg_);
  }

 private:
  struct SwitchCtx {
    std::size_t head;
    bool labeled = false;  // a case/default label has started a block
  };

  const std::vector<Token>& t_;
  std::size_t begin_;
  std::size_t end_;
  Cfg cfg_;
  std::size_t cur_ = 0;
  std::vector<std::size_t> break_targets_;
  std::vector<std::size_t> continue_targets_;

  std::size_t new_block() {
    cfg_.blocks.emplace_back();
    return cfg_.blocks.size() - 1;
  }
  void edge(std::size_t from, std::size_t to) {
    cfg_.blocks[from].succ.push_back(to);
  }
  void add_stmt(std::size_t b, std::size_t e) {
    if (e > b) cfg_.blocks[cur_].stmts.push_back(CfgStmt{b, e});
  }

  [[nodiscard]] bool is_punct(std::size_t k, const char* p) const {
    return k < end_ && t_[k].kind == Tok::Punct && t_[k].text == p;
  }
  [[nodiscard]] bool is_ident(std::size_t k, const char* s) const {
    return k < end_ && t_[k].kind == Tok::Ident && t_[k].text == s;
  }

  /// One past the group closer matching the opener at `k` (any of ([{).
  [[nodiscard]] std::size_t skip_group(std::size_t k) const {
    int depth = 0;
    for (; k < end_; ++k) {
      if (t_[k].kind != Tok::Punct) continue;
      const std::string& s = t_[k].text;
      if (s == "(" || s == "[" || s == "{") ++depth;
      if ((s == ")" || s == "]" || s == "}") && --depth == 0) return k + 1;
    }
    return end_;
  }

  /// One past the ';' ending a plain statement, skipping nested groups
  /// (lambda bodies, init-lists, call arguments).
  [[nodiscard]] std::size_t skip_to_semi(std::size_t k) const {
    while (k < end_) {
      if (t_[k].kind == Tok::Punct) {
        const std::string& s = t_[k].text;
        if (s == ";") return k + 1;
        if (s == "(" || s == "[" || s == "{") {
          k = skip_group(k);
          continue;
        }
        if (s == "}") return k;  // unterminated: don't escape the scope
      }
      ++k;
    }
    return end_;
  }

  /// Statements until an unmatched '}' (not consumed) or `stop`.
  std::size_t parse_stmts(std::size_t k, std::size_t stop, SwitchCtx* sw) {
    while (k < stop && !is_punct(k, "}")) k = parse_stmt(k, stop, sw);
    return k;
  }

  std::size_t parse_stmt(std::size_t k, std::size_t stop, SwitchCtx* sw) {
    if (t_[k].kind == Tok::Hash) {  // preprocessor line: skip it
      ++k;
      while (k < stop && !t_[k].starts_line) ++k;
      return k;
    }
    if (is_punct(k, ";")) return k + 1;
    if (is_punct(k, "{")) {  // bare compound: same block flow
      const std::size_t close = skip_group(k) - 1;
      k = parse_stmts(k + 1, close, nullptr);
      return is_punct(k, "}") ? k + 1 : k;
    }
    if (t_[k].kind == Tok::Ident) {
      const std::string& s = t_[k].text;
      if (s == "if") return parse_if(k, stop);
      if (s == "while") return parse_while(k, stop);
      if (s == "for") return parse_for(k, stop);
      if (s == "do") return parse_do(k, stop);
      if (s == "switch") return parse_switch(k, stop);
      if (s == "try") return parse_try(k, stop);
      if (s == "return" || s == "throw") {
        const std::size_t e = skip_to_semi(k);
        add_stmt(k, e);
        edge(cur_, cfg_.exit);
        cur_ = new_block();  // anything after is dead code
        return e;
      }
      if (s == "break" || s == "continue") {
        add_stmt(k, k + 1);
        const std::vector<std::size_t>& targets =
            s == "break" ? break_targets_ : continue_targets_;
        edge(cur_, targets.empty() ? cfg_.exit : targets.back());
        cur_ = new_block();
        return skip_to_semi(k);
      }
      if (sw != nullptr && (s == "case" || s == "default")) {
        // New leader block: an edge from the switch head plus fall-through
        // from the previous label's statements.
        std::size_t j = k + 1;
        while (j < stop && !is_punct(j, ":")) ++j;
        const std::size_t lbl = new_block();
        edge(sw->head, lbl);  // dispatch edge
        edge(cur_, lbl);      // fall-through from the previous label

        sw->labeled = true;
        cur_ = lbl;
        return j < stop ? j + 1 : stop;
      }
      if (s == "else") {
        // Stray else (shouldn't happen): treat its statement as plain flow.
        return parse_stmt(k + 1, stop, sw);
      }
    }
    const std::size_t e = skip_to_semi(k);
    add_stmt(k, e);
    return e;
  }

  /// One branch arm: a braced compound or a single statement. Returns the
  /// cursor past the arm.
  std::size_t parse_arm(std::size_t k, std::size_t stop) {
    if (is_punct(k, "{")) {
      const std::size_t close = skip_group(k) - 1;
      k = parse_stmts(k + 1, close, nullptr);
      return is_punct(k, "}") ? k + 1 : k;
    }
    return parse_stmt(k, stop, nullptr);
  }

  /// Condition parens starting at `k` (the keyword). Sets [cb, ce) to the
  /// condition token range and returns one past the ')'.
  std::size_t read_cond(std::size_t k, std::size_t& cb, std::size_t& ce) {
    std::size_t open = k + 1;
    if (is_ident(open, "constexpr")) ++open;  // if constexpr (...)
    if (!is_punct(open, "(")) {
      cb = ce = k;
      return k + 1;
    }
    const std::size_t past = skip_group(open);
    cb = open + 1;
    ce = past > 0 ? past - 1 : open + 1;
    return past;
  }

  std::size_t parse_if(std::size_t k, std::size_t stop) {
    std::size_t cb = 0;
    std::size_t ce = 0;
    k = read_cond(k, cb, ce);
    add_stmt(cb, ce);  // the condition is evaluated here
    cfg_.blocks[cur_].has_cond = true;
    cfg_.blocks[cur_].cond_begin = cb;
    cfg_.blocks[cur_].cond_end = ce;
    const std::size_t head = cur_;

    const std::size_t then_entry = new_block();
    cur_ = then_entry;
    k = parse_arm(k, stop);
    const std::size_t then_last = cur_;

    if (is_ident(k, "else")) {
      const std::size_t else_entry = new_block();
      cur_ = else_entry;
      k = parse_arm(k + 1, stop);
      const std::size_t else_last = cur_;
      const std::size_t merge = new_block();
      edge(head, then_entry);  // true
      edge(head, else_entry);  // false
      edge(then_last, merge);
      edge(else_last, merge);
      cur_ = merge;
      return k;
    }
    const std::size_t merge = new_block();
    edge(head, then_entry);  // true
    edge(head, merge);       // false
    edge(then_last, merge);
    cur_ = merge;
    return k;
  }

  std::size_t parse_while(std::size_t k, std::size_t stop) {
    std::size_t cb = 0;
    std::size_t ce = 0;
    k = read_cond(k, cb, ce);
    const std::size_t head = new_block();
    edge(cur_, head);
    cur_ = head;
    add_stmt(cb, ce);
    cfg_.blocks[head].has_cond = true;
    cfg_.blocks[head].loop_head = true;
    cfg_.blocks[head].cond_begin = cb;
    cfg_.blocks[head].cond_end = ce;

    const std::size_t body = new_block();
    const std::size_t after = new_block();
    edge(head, body);   // true
    edge(head, after);  // false
    break_targets_.push_back(after);
    continue_targets_.push_back(head);
    cur_ = body;
    k = parse_arm(k, stop);
    edge(cur_, head);  // back edge
    break_targets_.pop_back();
    continue_targets_.pop_back();
    cur_ = after;
    return k;
  }

  std::size_t parse_for(std::size_t k, std::size_t stop) {
    const std::size_t open = k + 1;
    if (!is_punct(open, "(")) {  // malformed: treat as a plain statement
      const std::size_t e = skip_to_semi(k);
      add_stmt(k, e);
      return e;
    }
    const std::size_t past = skip_group(open);
    const std::size_t close = past - 1;

    // Range-for has a ':' at paren depth 1 before any ';'.
    std::size_t colon = close;
    std::size_t semi1 = close;
    std::size_t semi2 = close;
    int depth = 0;
    for (std::size_t j = open; j < close; ++j) {
      if (t_[j].kind != Tok::Punct) continue;
      const std::string& s = t_[j].text;
      if (s == "(" || s == "[" || s == "{") ++depth;
      if (s == ")" || s == "]" || s == "}") --depth;
      if (depth != 1) continue;
      if (s == ":" && colon == close && semi1 == close &&
          (j == open + 1 || t_[j - 1].text != ":")) {
        colon = j;
      } else if (s == ";") {
        if (semi1 == close) {
          semi1 = j;
        } else if (semi2 == close) {
          semi2 = j;
        }
      }
    }

    const std::size_t head = new_block();
    const std::size_t body = new_block();
    const std::size_t after = new_block();
    if (colon != close && semi1 == close) {
      // Range-for: the whole head is one evaluated statement; no condition
      // to refine on, but both continue-and-exit edges exist.
      edge(cur_, head);
      cur_ = head;
      add_stmt(open + 1, close);
      edge(head, body);
      edge(head, after);
    } else {
      if (semi1 != close) add_stmt(open + 1, semi1);  // init
      edge(cur_, head);
      cur_ = head;
      const std::size_t cb = semi1 != close ? semi1 + 1 : open + 1;
      const std::size_t ce = semi2 != close ? semi2 : close;
      if (ce > cb) {
        add_stmt(cb, ce);
        cfg_.blocks[head].has_cond = true;
        cfg_.blocks[head].loop_head = true;
        cfg_.blocks[head].cond_begin = cb;
        cfg_.blocks[head].cond_end = ce;
        edge(head, body);   // true
        edge(head, after);  // false
      } else {
        edge(head, body);  // for(;;): after is only reachable via break
      }
    }
    break_targets_.push_back(after);
    continue_targets_.push_back(head);
    cur_ = body;
    std::size_t kk = parse_arm(past, stop);
    if (semi2 != close && close > semi2 + 1) {
      add_stmt(semi2 + 1, close);  // increment, re-evaluated per trip
    }
    edge(cur_, head);
    break_targets_.pop_back();
    continue_targets_.pop_back();
    cur_ = after;
    return kk;
  }

  std::size_t parse_do(std::size_t k, std::size_t stop) {
    const std::size_t body = new_block();
    const std::size_t cond = new_block();
    const std::size_t after = new_block();
    edge(cur_, body);
    break_targets_.push_back(after);
    continue_targets_.push_back(cond);
    cur_ = body;
    k = parse_arm(k + 1, stop);
    edge(cur_, cond);
    break_targets_.pop_back();
    continue_targets_.pop_back();

    cur_ = cond;
    if (is_ident(k, "while")) {
      std::size_t cb = 0;
      std::size_t ce = 0;
      k = read_cond(k, cb, ce);
      add_stmt(cb, ce);
      cfg_.blocks[cond].has_cond = true;
      cfg_.blocks[cond].loop_head = true;
      cfg_.blocks[cond].cond_begin = cb;
      cfg_.blocks[cond].cond_end = ce;
      if (is_punct(k, ";")) ++k;
    }
    edge(cond, body);   // true
    edge(cond, after);  // false
    cur_ = after;
    return k;
  }

  std::size_t parse_switch(std::size_t k, std::size_t stop) {
    std::size_t cb = 0;
    std::size_t ce = 0;
    k = read_cond(k, cb, ce);
    add_stmt(cb, ce);
    const std::size_t head = cur_;
    const std::size_t after = new_block();
    break_targets_.push_back(after);
    SwitchCtx sw{head, false};
    if (is_punct(k, "{")) {
      const std::size_t close = skip_group(k) - 1;
      // Statements before the first label are dead; a fresh block keeps them
      // out of the head's flow.
      cur_ = new_block();
      k = parse_stmts(k + 1, close, &sw);
      if (is_punct(k, "}")) ++k;
    }
    edge(cur_, after);
    edge(head, after);  // no matching label / no default
    break_targets_.pop_back();
    cur_ = after;
    (void)stop;
    return k;
  }

  std::size_t parse_try(std::size_t k, std::size_t stop) {
    // Conservative linearization: the try compound flows into each catch
    // compound in order. Must-facts from the try body may leak into the
    // handlers; the project uses try/catch sparingly enough that this stays
    // honest.
    ++k;  // 'try'
    if (is_punct(k, "{")) {
      const std::size_t close = skip_group(k) - 1;
      k = parse_stmts(k + 1, close, nullptr);
      if (is_punct(k, "}")) ++k;
    }
    while (is_ident(k, "catch")) {
      ++k;
      if (is_punct(k, "(")) k = skip_group(k);
      const std::size_t before = cur_;
      const std::size_t handler = new_block();
      const std::size_t merge = new_block();
      edge(before, handler);  // exception path
      edge(before, merge);    // clean path
      cur_ = handler;
      if (is_punct(k, "{")) {
        const std::size_t close = skip_group(k) - 1;
        k = parse_stmts(k + 1, close, nullptr);
        if (is_punct(k, "}")) ++k;
      }
      edge(cur_, merge);
      cur_ = merge;
    }
    (void)stop;
    return k;
  }
};

}  // namespace

Cfg build_cfg(const std::vector<Token>& tokens, std::size_t body_begin,
              std::size_t body_end) {
  if (body_end <= body_begin || body_end > tokens.size()) {
    Cfg cfg;
    cfg.entry = 0;
    cfg.exit = 1;
    cfg.blocks.resize(2);
    cfg.blocks[0].succ.push_back(1);
    return cfg;
  }
  return Builder(tokens, body_begin, body_end).build();
}

}  // namespace gpuqos::lint
