#include "token_engine.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "lexer.hpp"
#include "policy.hpp"

namespace mpcsd_verify {
namespace {

using Toks = std::vector<Tok>;

[[nodiscard]] bool is(const Tok& t, std::string_view text) {
  return t.text == text;
}
[[nodiscard]] bool is_punct(const Tok& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}
[[nodiscard]] bool is_ident(const Tok& t) { return t.kind == TokKind::kIdent; }

/// Type keywords that must never be mistaken for a declared variable name.
[[nodiscard]] bool is_type_keyword(std::string_view s) {
  static const std::unordered_set<std::string_view> kw = {
      "auto",     "bool",    "char",     "char8_t", "char16_t", "char32_t",
      "const",    "double",  "float",    "int",     "long",     "short",
      "signed",   "unsigned", "void",    "wchar_t", "constexpr", "static",
      "inline",   "volatile", "mutable", "typename", "struct",  "class",
      "enum",     "union",   "register", "extern",  "thread_local",
  };
  return kw.count(s) > 0;
}

/// The x86 intrinsics header an `#include` directive names, or "" if none:
/// the fixed set below plus every `avx512*intrin.h`.
[[nodiscard]] std::string_view intrinsics_header(std::string_view directive) {
  static constexpr std::string_view fixed[] = {
      "immintrin.h", "x86intrin.h", "emmintrin.h",
      "smmintrin.h", "avxintrin.h", "avx2intrin.h",
  };
  for (const auto h : fixed) {
    if (directive.find(h) != std::string_view::npos) return h;
  }
  constexpr std::string_view suffix = "intrin.h";
  const auto avx512 = directive.find("avx512");
  if (avx512 == std::string_view::npos) return {};
  const auto end = directive.find(suffix, avx512);
  if (end == std::string_view::npos) return {};
  return directive.substr(avx512, end + suffix.size() - avx512);
}

/// Index after the `>` matching the `<` at `i` (toks[i] must be "<").
/// `>>` closes two levels.  Returns `i` unchanged if this is not a
/// template argument list (hits ; { } or EOF first).
[[nodiscard]] std::size_t skip_angles(const Toks& t, std::size_t i) {
  if (i >= t.size() || !is_punct(t[i], "<")) return i;
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    const Tok& tk = t[j];
    if (tk.kind != TokKind::kPunct) continue;
    if (tk.text == "<" || tk.text == "<<") depth += tk.text == "<" ? 1 : 2;
    if (tk.text == ">") --depth;
    if (tk.text == ">>") depth -= 2;
    if (tk.text == ";" || tk.text == "{" || tk.text == "}") return i;
    if (depth <= 0) return j + 1;
  }
  return i;
}

/// Index after the closer matching opener toks[i] (one of ( [ {).
[[nodiscard]] std::size_t skip_group(const Toks& t, std::size_t i) {
  if (i >= t.size() || t[i].kind != TokKind::kPunct) return i + 1;
  const std::string_view open = t[i].text;
  std::string_view close;
  if (open == "(") close = ")";
  else if (open == "[") close = "]";
  else if (open == "{") close = "}";
  else return i + 1;
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (is_punct(t[j], open)) ++depth;
    if (is_punct(t[j], close)) {
      if (--depth == 0) return j + 1;
    }
  }
  return t.size();
}

struct Lambda {
  unsigned intro_line = 0;
  bool machine_body = false;
  bool is_mutable = false;
  std::size_t body_begin = 0;  ///< token index of '{'
  std::size_t body_end = 0;    ///< token index one past matching '}'
};

class FileAnalysis {
 public:
  FileAnalysis(std::string path, Toks toks)
      : path_(std::move(path)), t_(std::move(toks)) {}

  Diagnostics run() {
    collect_declarations();
    collect_lambdas();
    apply_mutable_rule();
    apply_determinism_rules();
    apply_confinement_rules();
    finish();
    return std::move(out_);
  }

 private:
  void diag(DiagId id, unsigned line, std::string detail) {
    out_.push_back(Diagnostic{id, path_, line, std::move(detail)});
  }

  // --- declaration scanning ------------------------------------------------

  /// Records the declared name after a type at `i` (first token of the
  /// declarator tail): skips & * and returns the identifier if it is a
  /// plausible variable name.
  void record_declared_name(std::size_t i, std::unordered_set<std::string>* into) {
    while (i < t_.size() && (is_punct(t_[i], "&") || is_punct(t_[i], "*") ||
                             is_punct(t_[i], "&&"))) {
      ++i;
    }
    if (i >= t_.size() || !is_ident(t_[i]) || is_type_keyword(t_[i].text)) return;
    if (i + 1 < t_.size() && (is_punct(t_[i + 1], "::") || is_punct(t_[i + 1], "<")))
      return;  // qualifier or template name, not a declarator
    into->insert(t_[i].text);
  }

  void collect_declarations() {
    for (std::size_t i = 0; i < t_.size(); ++i) {
      const Tok& tk = t_[i];
      if (!is_ident(tk)) continue;

      // unordered container declarations and aliases.
      if (tk.text == "unordered_map" || tk.text == "unordered_set" ||
          tk.text == "unordered_multimap" || tk.text == "unordered_multiset") {
        if (i + 1 < t_.size() && is_punct(t_[i + 1], "<")) {
          const std::size_t after = skip_angles(t_, i + 1);
          if (after != i + 1) {
            check_pointer_key(i + 2, after - 1, tk.line);
            if (after < t_.size() && !is_punct(t_[after], "::")) {
              record_declared_name(after, &unordered_names_);
            }
          }
        }
        continue;
      }

      // `using Alias = ... unordered_map<...> ...;` makes Alias unordered.
      if (tk.text == "using" && i + 2 < t_.size() && is_ident(t_[i + 1]) &&
          is_punct(t_[i + 2], "=")) {
        for (std::size_t j = i + 3; j < t_.size() && !is_punct(t_[j], ";"); ++j) {
          if (is_ident(t_[j]) && (t_[j].text == "unordered_map" ||
                                  t_[j].text == "unordered_set")) {
            unordered_aliases_.insert(t_[i + 1].text);
            break;
          }
          if (j > i + 40) break;
        }
        continue;
      }

      // Declarations through an unordered alias: `Alias name`.
      if (unordered_aliases_.count(tk.text) > 0 && i + 1 < t_.size() &&
          !is_punct(t_[i + 1], "=")) {
        record_declared_name(i + 1, &unordered_names_);
        continue;
      }

      // std::map/std::set with pointer keys, std::hash over a pointer.
      if ((tk.text == "map" || tk.text == "set" || tk.text == "multimap" ||
           tk.text == "multiset" || tk.text == "hash") &&
          i >= 2 && is_punct(t_[i - 1], "::") && is(t_[i - 2], "std") &&
          i + 1 < t_.size() && is_punct(t_[i + 1], "<")) {
        const std::size_t after = skip_angles(t_, i + 1);
        if (after != i + 1) check_pointer_key(i + 2, after - 1, tk.line);
      }
    }
  }

  /// Records a pointer-keyed verdict if the first top-level template
  /// argument in [begin, end) contains a `*`.
  void check_pointer_key(std::size_t begin, std::size_t end, unsigned line) {
    int depth = 0;
    for (std::size_t j = begin; j < end && j < t_.size(); ++j) {
      const Tok& tk = t_[j];
      if (tk.kind != TokKind::kPunct) continue;
      if (tk.text == "<" || tk.text == "(") ++depth;
      if (tk.text == ">" || tk.text == ")") --depth;
      if (depth == 0 && tk.text == ",") return;  // key type ended, no '*'
      if (depth == 0 && tk.text == "*") {
        pointer_key_decls_.push_back({line, j});
        return;
      }
    }
  }

  // --- lambda scanning -----------------------------------------------------

  [[nodiscard]] bool lambda_intro_position(std::size_t i) const {
    if (i == 0) return true;
    const Tok& p = t_[i - 1];
    if (p.kind == TokKind::kIdent)
      return p.text == "return" || p.text == "co_return" || p.text == "case";
    if (p.kind == TokKind::kDirective) return true;
    if (p.kind != TokKind::kPunct) return false;
    return p.text != ")" && p.text != "]" && p.text != "}";
  }

  void collect_lambdas() {
    for (std::size_t i = 0; i < t_.size(); ++i) {
      if (!is_punct(t_[i], "[")) continue;
      if (i + 1 < t_.size() && is_punct(t_[i + 1], "[")) continue;  // [[attr]]
      if (!lambda_intro_position(i)) continue;
      parse_lambda(i);
    }
  }

  void parse_lambda(std::size_t intro) {
    const std::size_t intro_end = skip_group(t_, intro);  // one past ']'
    if (intro_end <= intro || intro_end > t_.size()) return;

    Lambda lam;
    lam.intro_line = t_[intro].line;
    if (!is_capture_list(intro + 1, intro_end - 1)) return;

    std::size_t i = intro_end;
    if (i < t_.size() && is_punct(t_[i], "<")) {  // C++20 template lambda
      const std::size_t after = skip_angles(t_, i);
      if (after == i) return;
      i = after;
    }
    if (i >= t_.size() || !is_punct(t_[i], "(")) return;  // no param list
    const std::size_t params_begin = i + 1;
    const std::size_t params_end_excl = skip_group(t_, i);  // one past ')'
    if (params_end_excl > t_.size()) return;
    lam.machine_body = params_are_machine_context(params_begin, params_end_excl - 1);

    // Specifier region up to the body brace.
    i = params_end_excl;
    for (std::size_t guard = 0; i < t_.size() && guard < 64; ++guard) {
      const Tok& tk = t_[i];
      if (is_punct(tk, "{")) break;
      if (is_punct(tk, ";") || is_punct(tk, ")") || is_punct(tk, ",")) return;
      if (is_ident(tk) && tk.text == "mutable") {
        lam.is_mutable = true;
        ++i;
        continue;
      }
      if (is_punct(tk, "(")) {  // noexcept(...)
        i = skip_group(t_, i);
        continue;
      }
      if (is_punct(tk, "<")) {
        const std::size_t after = skip_angles(t_, i);
        i = after == i ? i + 1 : after;
        continue;
      }
      ++i;  // noexcept, ->, type tokens
    }
    if (i >= t_.size() || !is_punct(t_[i], "{")) return;
    lam.body_begin = i;
    lam.body_end = skip_group(t_, i);
    lambdas_.push_back(std::move(lam));
  }

  /// True if [begin, end) parses as a capture list (`&`, `=`, `this`,
  /// `*this`, `&name`, `name`, init-captures, packs), telling a lambda
  /// introducer apart from a subscript.
  [[nodiscard]] bool is_capture_list(std::size_t begin, std::size_t end) const {
    std::size_t i = begin;
    while (i < end) {
      if ((is_punct(t_[i], "&") || is_punct(t_[i], "=")) &&
          (i + 1 >= end || is_punct(t_[i + 1], ","))) {
        i += 1;
      } else if (is_punct(t_[i], "*") && i + 1 < end && is(t_[i + 1], "this")) {
        i += 2;
      } else if (is_punct(t_[i], "&") && i + 1 < end && is_ident(t_[i + 1])) {
        i += 2;
      } else if (is_ident(t_[i])) {
        i += 1;
      } else {
        return false;  // not a capture list (e.g. subscript misdetected)
      }
      if (i < end && is_punct(t_[i], "...")) ++i;  // pack expansion
      if (i < end && is_punct(t_[i], "=")) {       // init-capture
        int depth = 0;  // skip initializer up to top-level comma
        while (i < end) {
          const Tok& tk = t_[i];
          if (tk.kind == TokKind::kPunct) {
            if (tk.text == "(" || tk.text == "[" || tk.text == "{") ++depth;
            if (tk.text == ")" || tk.text == "]" || tk.text == "}") --depth;
            if (tk.text == "," && depth == 0) break;
          }
          ++i;
        }
      }
      if (i < end) {
        if (!is_punct(t_[i], ",")) return false;
        ++i;
      }
    }
    return true;
  }

  [[nodiscard]] bool params_are_machine_context(std::size_t begin,
                                                std::size_t end) const {
    for (std::size_t i = begin; i < end && i < t_.size(); ++i) {
      if (!is_ident(t_[i])) continue;
      if (t_[i].text == "MachineContext") {
        if (i + 1 < end && is_punct(t_[i + 1], "&")) return true;
      }
      if (t_[i].text == "StageContext" && i + 1 < end &&
          is_punct(t_[i + 1], "<")) {
        const std::size_t after = skip_angles(t_, i + 1);
        if (after != i + 1 && after < t_.size() && is_punct(t_[after], "&"))
          return true;
      }
    }
    return false;
  }

  // --- rule passes ---------------------------------------------------------

  void apply_mutable_rule() {
    for (const Lambda& lam : lambdas_) {
      if (lam.machine_body && lam.is_mutable) {
        diag(DiagId::kConfMutableLambda, lam.intro_line, "machine body");
      } else if (lam.is_mutable && Policy::mutable_scoped(path_)) {
        diag(DiagId::kConfMutableLambda, lam.intro_line, "simulator/driver code");
      }
    }
  }

  [[nodiscard]] bool in_machine_body(std::size_t idx) const {
    for (const Lambda& lam : lambdas_) {
      if (lam.machine_body && idx > lam.body_begin && idx < lam.body_end)
        return true;
    }
    return false;
  }

  [[nodiscard]] bool det_scope(std::size_t idx) const {
    return det_file_ || in_machine_body(idx);
  }

  void apply_determinism_rules() {
    det_file_ = Policy::det_scoped_file(path_);

    for (const auto& [line, idx] : pointer_key_decls_) {
      if (det_scope(idx)) diag(DiagId::kDetPointerKeyed, line, "pointer key");
    }

    for (std::size_t i = 0; i < t_.size(); ++i) {
      // Range-for over an unordered container: for (... : name)
      if (is_ident(t_[i]) && t_[i].text == "for" && i + 1 < t_.size() &&
          is_punct(t_[i + 1], "(")) {
        const std::size_t close = skip_group(t_, i + 1);
        int depth = 0;
        for (std::size_t j = i + 1; j + 1 < close && j < t_.size(); ++j) {
          if (is_punct(t_[j], "(")) ++depth;
          if (is_punct(t_[j], ")")) --depth;
          if (depth == 1 && is_punct(t_[j], ":") && j + 3 == close &&
              is_ident(t_[j + 1]) &&
              unordered_names_.count(t_[j + 1].text) > 0 && det_scope(j + 1)) {
            diag(DiagId::kDetUnorderedIter, t_[j + 1].line, t_[j + 1].text);
          }
        }
      }
      // Iterator-driven iteration: name.begin() / name.cbegin()
      if (is_ident(t_[i]) && unordered_names_.count(t_[i].text) > 0 &&
          i + 3 < t_.size() && is_punct(t_[i + 1], ".") && is_ident(t_[i + 2]) &&
          (t_[i + 2].text == "begin" || t_[i + 2].text == "cbegin") &&
          is_punct(t_[i + 3], "(") && det_scope(i)) {
        diag(DiagId::kDetUnorderedIter, t_[i].line, t_[i].text + ".begin()");
      }
      // Direct clock reads: <clock>::now(
      if (is_ident(t_[i]) &&
          (t_[i].text == "steady_clock" || t_[i].text == "system_clock" ||
           t_[i].text == "high_resolution_clock") &&
          i + 3 < t_.size() && is_punct(t_[i + 1], "::") &&
          is(t_[i + 2], "now") && is_punct(t_[i + 3], "(") && det_scope(i)) {
        diag(DiagId::kDetWallClock, t_[i].line, t_[i].text + "::now()");
      }
    }
  }

  void apply_confinement_rules() {
    if (!Policy::in_lint_sources(path_)) return;
    const bool allow_reinterpret = Policy::allow_reinterpret_cast(path_);
    const bool allow_wall = Policy::allow_wall_seconds(path_);
    const bool allow_intrin = Policy::allow_intrinsics(path_);
    const bool allow_proc = Policy::allow_process_primitives(path_);
    const bool allow_router = Policy::allow_router_constants(path_);

    static const std::unordered_set<std::string_view> process_prims = {
        "fork",         "vfork",    "mmap",       "munmap",
        "memfd_create", "shm_open", "shm_unlink",
    };

    for (std::size_t i = 0; i < t_.size(); ++i) {
      const Tok& tk = t_[i];
      if (tk.kind == TokKind::kDirective) {
        if (!allow_intrin && tk.text.find("include") != std::string::npos) {
          const std::string_view h = intrinsics_header(tk.text);
          if (!h.empty()) diag(DiagId::kConfIntrinsics, tk.line, std::string(h));
        }
        continue;
      }
      if (!is_ident(tk)) continue;
      if (!allow_reinterpret && tk.text == "reinterpret_cast") {
        diag(DiagId::kConfReinterpretCast, tk.line, "");
      }
      if (tk.text == "const_cast") diag(DiagId::kConfConstCast, tk.line, "");
      if (!allow_wall && tk.text == "wall_seconds" && i >= 1 &&
          (is_punct(t_[i - 1], ".") || is_punct(t_[i - 1], "->")) &&
          i + 1 < t_.size() && t_[i + 1].kind == TokKind::kPunct &&
          (t_[i + 1].text == "=" || t_[i + 1].text == "+=" ||
           t_[i + 1].text == "-=" || t_[i + 1].text == "*=" ||
           t_[i + 1].text == "/=")) {
        diag(DiagId::kConfWallSeconds, tk.line, "wall_seconds write");
      }
      if (!allow_proc && process_prims.count(tk.text) > 0 &&
          i + 1 < t_.size() && is_punct(t_[i + 1], "(") &&
          (i == 0 ||
           (!is_punct(t_[i - 1], ".") && !is_punct(t_[i - 1], "->")))) {
        diag(DiagId::kConfProcessPrimitive, tk.line, tk.text + "()");
      }
      if (!allow_router && tk.text.rfind("kRouter", 0) == 0) {
        diag(DiagId::kConfRouterConstant, tk.line, tk.text);
      }
    }
  }

  void finish() {
    std::sort(out_.begin(), out_.end(), [](const Diagnostic& a, const Diagnostic& b) {
      if (a.line != b.line) return a.line < b.line;
      if (a.id != b.id) return a.id < b.id;
      return a.detail < b.detail;
    });
    out_.erase(std::unique(out_.begin(), out_.end(),
                           [](const Diagnostic& a, const Diagnostic& b) {
                             return a.id == b.id && a.line == b.line &&
                                    a.detail == b.detail;
                           }),
               out_.end());
  }

  std::string path_;
  Toks t_;
  Diagnostics out_;
  std::vector<Lambda> lambdas_;
  std::unordered_set<std::string> unordered_names_;
  std::unordered_set<std::string> unordered_aliases_;
  std::vector<std::pair<unsigned, std::size_t>> pointer_key_decls_;
  bool det_file_ = false;
};

}  // namespace

Diagnostics analyze_file_tokens(std::string_view path, std::string_view source) {
  return FileAnalysis(normalize_path(path), lex(source)).run();
}

}  // namespace mpcsd_verify
