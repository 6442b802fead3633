#include "line_rules.h"

#include <cctype>

namespace davlint {

namespace {

/// Token immediately left of position `pos` (exclusive), identifier chars
/// plus '.' and ':' so "std::chrono" and "obj.field" read as one token.
std::string token_left_of(const std::string& s, std::size_t pos) {
  std::size_t end = pos;
  while (end > 0 && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  std::size_t begin = end;
  while (begin > 0 && (is_ident_char(s[begin - 1]) || s[begin - 1] == '.' ||
                       s[begin - 1] == ':')) {
    --begin;
  }
  return s.substr(begin, end - begin);
}

const std::set<std::string> kDeclPrefixTokens = {
    "void",   "auto",  "int",      "double", "float",    "bool",
    "long",   "short", "unsigned", "signed", "virtual",  "constexpr",
    "inline", "static"};

/// True if `text` contains `name(` as a free-function call: not preceded by
/// an identifier character, '.', '>' (member access), and not a function
/// *declaration* (preceding token is a type keyword, e.g. "double time()").
bool has_free_call(const std::string& text, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = text.find(name + "(", pos)) != std::string::npos) {
    const bool at_start = pos == 0;
    char before = at_start ? ' ' : text[pos - 1];
    // std::time( and ::time( are still wall-clock calls; skip only member
    // access (obj.time(), ptr->time()) and identifier suffixes (due_time().
    if (at_start || (!is_ident_char(before) && before != '.' && before != '>')) {
      const std::string prev = token_left_of(text, pos);
      if (!kDeclPrefixTokens.count(prev)) return true;
    }
    pos += name.size();
  }
  return false;
}

/// Skip matched angle brackets starting at `pos` (which must point at '<').
/// Returns the index one past the matching '>', or npos.
std::size_t skip_template_args(const std::string& s, std::size_t pos) {
  int depth = 0;
  for (std::size_t i = pos; i < s.size(); ++i) {
    if (s[i] == '<') ++depth;
    if (s[i] == '>') {
      --depth;
      if (depth == 0) return i + 1;
    }
  }
  return std::string::npos;
}

/// Extract the identifier being declared after a type ending at `pos`.
std::string read_identifier(const std::string& s, std::size_t pos) {
  while (pos < s.size() &&
         (std::isspace(static_cast<unsigned char>(s[pos])) || s[pos] == '&' ||
          s[pos] == '*')) {
    ++pos;
  }
  std::string ident;
  while (pos < s.size() && is_ident_char(s[pos])) ident.push_back(s[pos++]);
  return ident;
}

bool is_float_literal(const std::string& tok) {
  if (tok.empty()) return false;
  std::string t = tok;
  if (t.back() == 'f' || t.back() == 'F') t.pop_back();
  bool saw_dot = false, saw_digit = false;
  for (std::size_t i = 0; i < t.size(); ++i) {
    char c = t[i];
    if (c == '.') {
      if (saw_dot) return false;
      saw_dot = true;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      saw_digit = true;
    } else if ((c == 'e' || c == 'E') && saw_digit && i + 1 < t.size()) {
      // exponent: rest must be optional sign + digits
      std::size_t j = i + 1;
      if (t[j] == '+' || t[j] == '-') ++j;
      if (j >= t.size()) return false;
      for (; j < t.size(); ++j) {
        if (!std::isdigit(static_cast<unsigned char>(t[j]))) return false;
      }
      return saw_dot;
    } else {
      return false;
    }
  }
  return saw_dot && saw_digit;
}

/// Token immediately left of position `pos` (exclusive).
std::string token_left(const std::string& s, std::size_t pos) {
  std::size_t end = pos;
  while (end > 0 && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  std::size_t begin = end;
  while (begin > 0 && (is_ident_char(s[begin - 1]) || s[begin - 1] == '.')) {
    --begin;
  }
  return s.substr(begin, end - begin);
}

/// Token immediately right of position `pos`.
std::string token_right(const std::string& s, std::size_t pos) {
  std::size_t begin = pos;
  while (begin < s.size() &&
         (std::isspace(static_cast<unsigned char>(s[begin])) ||
          s[begin] == '-' || s[begin] == '+')) {
    ++begin;
  }
  std::size_t end = begin;
  while (end < s.size() && (is_ident_char(s[end]) || s[end] == '.')) ++end;
  return s.substr(begin, end - begin);
}

const std::set<std::string> kPodTypes = {
    "int",      "unsigned", "long",     "short",    "char",     "bool",
    "float",    "double",   "size_t",   "int8_t",   "int16_t",  "int32_t",
    "int64_t",  "uint8_t",  "uint16_t", "uint32_t", "uint64_t", "uintptr_t",
    "intptr_t", "ptrdiff_t"};

bool is_pod_type_token(std::string tok) {
  if (tok.rfind("std::", 0) == 0) tok = tok.substr(5);
  return kPodTypes.count(tok) > 0;
}

class LineScanner {
 public:
  LineScanner(const SourceFile& f, const std::set<std::string>& enabled)
      : f_(f), enabled_(enabled) {
    const std::string& path = f.path;
    // obs-clock carve-outs: the util/trace span primitives and the src/obs/
    // exporters measure span durations (that is their job; the determinism
    // contract in util/trace.h confines wall time to dur_ns), and the
    // executor times real worker processes. No per-line suppressions needed
    // there.
    obs_clock_exempt_ = path.find("/obs/") != std::string::npos ||
                        path.rfind("obs/", 0) == 0 ||
                        path.find("util/trace") != std::string::npos ||
                        path.find("campaign/executor") != std::string::npos;
    // The EnvOptions facade is the single sanctioned env-reading TU; every
    // other layer takes a validated EnvOptions value instead of peeking at
    // the process environment (hidden inputs break run reproducibility).
    env_read_exempt_ = path.find("campaign/env_options") != std::string::npos;
  }

  void scan(std::vector<Finding>& findings) {
    for (std::size_t i = 0; i < f_.raw_lines.size(); ++i) {
      const std::string& raw = f_.raw_lines[i];
      const std::string& code = f_.code_lines[i];
      const int lineno = static_cast<int>(i) + 1;
      check_line(raw, code, lineno, findings);
      update_struct_state(code);
    }
  }

 private:
  void report(std::vector<Finding>& findings, const std::string& raw,
              int lineno, const std::string& rule, const std::string& msg) {
    if (!enabled_.count(rule) || is_suppressed(raw, rule)) return;
    findings.push_back({f_.path, lineno, rule, msg});
  }

  void check_line(const std::string& raw, const std::string& code, int lineno,
                  std::vector<Finding>& findings) {
    check_rand(raw, code, lineno, findings);
    check_random_device(raw, code, lineno, findings);
    check_wall_clock(raw, code, lineno, findings);
    check_obs_clock(raw, code, lineno, findings);
    check_unordered(raw, code, lineno, findings);
    check_float_eq(raw, code, lineno, findings);
    check_uninit_pod(raw, code, lineno, findings);
    check_env_read(raw, code, lineno, findings);
  }

  void check_rand(const std::string& raw, const std::string& code, int lineno,
                  std::vector<Finding>& findings) {
    for (const char* fn : {"rand", "srand", "rand_r", "drand48", "random"}) {
      if (has_free_call(code, fn)) {
        report(findings, raw, lineno, "rand",
               std::string(fn) + "() uses process-global state; use dav::Rng "
                                 "seeded from the campaign seed");
      }
    }
  }

  void check_random_device(const std::string& raw, const std::string& code,
                           int lineno, std::vector<Finding>& findings) {
    if (code.find("std::random_device") != std::string::npos ||
        has_free_call(code, "random_device")) {
      report(findings, raw, lineno, "random-device",
             "std::random_device is nondeterministic; seed dav::Rng from the "
             "campaign seed");
    }
  }

  void check_wall_clock(const std::string& raw, const std::string& code,
                        int lineno, std::vector<Finding>& findings) {
    if (code.find("system_clock") != std::string::npos) {
      report(findings, raw, lineno, "wall-clock",
             "std::chrono::system_clock reads the wall clock; simulated time "
             "must come from World::time()");
      return;
    }
    for (const char* fn :
         {"time", "clock", "gettimeofday", "clock_gettime", "localtime",
          "gmtime", "ftime"}) {
      if (has_free_call(code, fn)) {
        report(findings, raw, lineno, "wall-clock",
               std::string(fn) + "() reads the wall clock; simulated time "
                                 "must come from World::time()");
        return;
      }
    }
  }

  void check_obs_clock(const std::string& raw, const std::string& code,
                       int lineno, std::vector<Finding>& findings) {
    if (obs_clock_exempt_) return;
    for (const char* clk : {"steady_clock", "high_resolution_clock"}) {
      if (code.find(clk) != std::string::npos) {
        report(findings, raw, lineno, "obs-clock",
               std::string(clk) + " is a wall clock; profiling belongs in "
                                  "the util/trace span primitives "
                                  "(SpanScope), never in simulation state");
        return;
      }
    }
  }

  void check_unordered(const std::string& raw, const std::string& code,
                       int lineno, std::vector<Finding>& findings) {
    // Remember identifiers declared with an unordered container type.
    std::size_t pos = 0;
    while (pos < code.size()) {
      std::size_t hit = code.find("unordered_map", pos);
      std::size_t hit2 = code.find("unordered_set", pos);
      hit = std::min(hit, hit2);
      if (hit == std::string::npos) break;
      std::size_t after = hit + 13;  // both names are 13 chars
      if (after < code.size() && code[after] == '<') {
        std::size_t end = skip_template_args(code, after);
        if (end != std::string::npos) {
          std::string ident = read_identifier(code, end);
          if (!ident.empty()) unordered_idents_.insert(ident);
          pos = end;
          continue;
        }
      }
      pos = after;
    }
    // Range-for over a tracked identifier.
    pos = 0;
    while ((pos = code.find("for", pos)) != std::string::npos) {
      const bool boundary_l = pos == 0 || !is_ident_char(code[pos - 1]);
      const bool boundary_r =
          pos + 3 >= code.size() || !is_ident_char(code[pos + 3]);
      if (!boundary_l || !boundary_r) {
        pos += 3;
        continue;
      }
      std::size_t open = code.find('(', pos);
      std::size_t colon =
          open == std::string::npos ? std::string::npos : code.find(':', open);
      if (colon != std::string::npos && colon + 1 < code.size() &&
          code[colon + 1] != ':' && (colon == 0 || code[colon - 1] != ':')) {
        std::string range = read_identifier(code, colon + 1);
        if (unordered_idents_.count(range)) {
          report(findings, raw, lineno, "unordered-iter",
                 "range-for over unordered container '" + range +
                     "' has unspecified order; use a sorted container or sort "
                     "before serializing");
        }
      }
      pos += 3;
    }
  }

  void check_float_eq(const std::string& raw, const std::string& code,
                      int lineno, std::vector<Finding>& findings) {
    for (std::size_t i = 0; i + 1 < code.size(); ++i) {
      if ((code[i] != '=' && code[i] != '!') || code[i + 1] != '=') continue;
      // Skip ==/!= that are part of <= >= === or assignment.
      if (i + 2 < code.size() && code[i + 2] == '=') continue;
      if (i > 0 && (code[i - 1] == '=' || code[i - 1] == '<' ||
                    code[i - 1] == '>' || code[i - 1] == '!')) {
        continue;
      }
      const std::string lhs = token_left(code, i);
      const std::string rhs = token_right(code, i + 2);
      if (is_float_literal(lhs) || is_float_literal(rhs)) {
        report(findings, raw, lineno, "float-eq",
               "exact floating-point comparison against literal; use an "
               "epsilon tolerance or integer state");
        i += 1;
      }
    }
  }

  void check_env_read(const std::string& raw, const std::string& code,
                      int lineno, std::vector<Finding>& findings) {
    if (env_read_exempt_) return;
    for (const char* fn : {"getenv", "secure_getenv", "setenv", "putenv"}) {
      if (has_free_call(code, fn)) {
        report(findings, raw, lineno, "env-read",
               std::string(fn) + "() outside campaign/env_options; route "
                                 "configuration through dav::EnvOptions");
        return;
      }
    }
  }

  /// Track struct/class scopes so member declarations can be told apart from
  /// locals inside inline methods: members sit exactly one brace level inside
  /// the struct's opening brace.
  void update_struct_state(const std::string& code) {
    for (std::size_t i = 0; i < code.size(); ++i) {
      // Only `struct` scopes count: the uninit-pod rule targets aggregates;
      // a `class` is assumed to initialize members in its constructors, and
      // `enum class` must not open a member scope at all.
      const char* kw = "struct";
      const std::size_t n = 6;
      if (code.compare(i, n, kw) == 0 &&
          (i == 0 || !is_ident_char(code[i - 1])) &&
          (i + n >= code.size() || !is_ident_char(code[i + n])) &&
          token_left_of(code, i) != "enum") {
        // Declaration only counts if this statement opens a brace before a
        // ';' (forward declarations don't).
        std::size_t brace = code.find('{', i);
        std::size_t semi = code.find(';', i);
        if (brace != std::string::npos &&
            (semi == std::string::npos || brace < semi)) {
          pending_struct_ = true;
        }
      }
      if (code[i] == '{') {
        ++depth_;
        if (pending_struct_) {
          struct_depths_.push_back(depth_);
          pending_struct_ = false;
        }
      } else if (code[i] == '}') {
        if (!struct_depths_.empty() && struct_depths_.back() == depth_) {
          struct_depths_.pop_back();
        }
        --depth_;
      }
    }
  }

  void check_uninit_pod(const std::string& raw, const std::string& code,
                        int lineno, std::vector<Finding>& findings) {
    if (struct_depths_.empty() || struct_depths_.back() != depth_) return;
    // Member lines look like "  int foo;" — a POD type token, an identifier,
    // then ';', with no initializer, parens (functions) or "static".
    std::size_t i = 0;
    while (i < code.size() &&
           std::isspace(static_cast<unsigned char>(code[i]))) {
      ++i;
    }
    std::size_t type_end = i;
    while (type_end < code.size() &&
           (is_ident_char(code[type_end]) || code[type_end] == ':')) {
      ++type_end;
    }
    std::string type_tok = code.substr(i, type_end - i);
    // "unsigned int" / "long long" style two-token types.
    if ((type_tok == "unsigned" || type_tok == "long" ||
         type_tok == "signed" || type_tok == "short") &&
        type_end < code.size()) {
      std::string second = read_identifier(code, type_end);
      if (is_pod_type_token(second)) {
        type_end = code.find(second, type_end) + second.size();
      }
    }
    if (!is_pod_type_token(type_tok)) return;
    std::string ident = read_identifier(code, type_end);
    if (ident.empty()) return;
    std::size_t rest_pos = code.find(ident, type_end) + ident.size();
    std::string rest = code.substr(rest_pos);
    if (rest.find('=') != std::string::npos ||
        rest.find('{') != std::string::npos) {
      return;  // has an initializer
    }
    if (rest.find(';') == std::string::npos) return;  // not a declaration
    // Parens anywhere mean a function declaration or a continuation of a
    // multi-line parameter list, never a plain member.
    if (code.find('(') != std::string::npos ||
        code.find(')') != std::string::npos) {
      return;
    }
    if (code.find("static") != std::string::npos) return;
    report(findings, raw, lineno, "uninit-pod",
           "POD member '" + ident + "' has no initializer; golden traces must "
           "never read indeterminate bytes");
  }

  const SourceFile& f_;
  const std::set<std::string>& enabled_;
  bool obs_clock_exempt_ = false;
  bool env_read_exempt_ = false;
  std::set<std::string> unordered_idents_;
  std::vector<int> struct_depths_;
  int depth_ = 0;
  bool pending_struct_ = false;
};

}  // namespace

void run_line_rules(const SourceFile& f, const std::set<std::string>& enabled,
                    std::vector<Finding>& findings) {
  LineScanner scanner(f, enabled);
  scanner.scan(findings);
}

}  // namespace davlint
