#include "semantic_rules.h"

#include <algorithm>
#include <cctype>
#include <map>

namespace davlint {

namespace {

// ---- signal-safety / fork-safety -----------------------------------------

/// External free calls legal in a signal handler or a fork() child branch:
/// the POSIX async-signal-safe set this codebase actually needs, plus pure
/// helpers (memcpy/strlen/min/max) that touch no global state. Everything
/// not listed and not defined in the project is a violation — default deny.
const std::set<std::string>& sigsafe_allowlist() {
  static const std::set<std::string> allow = {
      // syscalls / POSIX async-signal-safe
      "write",    "read",     "close",       "open",       "openat",
      "dup",      "dup2",     "pipe",        "pipe2",      "poll",
      "_exit",    "_Exit",    "abort",       "raise",      "kill",
      "getpid",   "getppid",  "waitpid",     "wait",       "signal",
      "sigaction", "sigemptyset", "sigfillset", "sigaddset", "sigdelset",
      "sigprocmask", "pthread_sigmask", "setrlimit", "getrlimit",
      "getrusage", "alarm",   "execve",      "execv",      "execvp",
      "execl",    "execle",   "execlp",      "fork",       "unlink",
      "fsync",    "fdatasync", "ftruncate",  "lseek",      "chdir",
      "umask",
      // sockets (async-signal-safe per POSIX, so a forked child or a signal
      // handler may use them)
      "socket",   "socketpair", "bind",      "listen",     "accept",
      "accept4",  "connect",  "send",        "recv",       "sendto",
      "recvfrom", "shutdown", "setsockopt",  "getsockopt", "getsockname",
      // pure / no-global-state helpers
      "memcpy",   "memmove",  "memset",      "memcmp",     "strlen",
      "strcmp",   "strncmp",  "strcpy",      "strncpy",    "stpcpy",
      "strcat",   "strchr",   "strrchr",     "min",        "max"};
  return allow;
}

/// Member-call names known to allocate, lock, or grow buffers — banned in
/// async-signal-safe contexts regardless of the object. Unknown member
/// calls (accessors like .size()/.data()) are assumed safe; project-defined
/// methods are traversed through the call graph instead.
const std::set<std::string>& alloc_members() {
  static const std::set<std::string> deny = {
      "push_back", "emplace_back", "append",  "assign", "insert",
      "emplace",   "resize",       "reserve", "substr", "str",
      "lock",      "unlock",       "try_lock", "flush", "push"};
  return deny;
}

bool looks_like_macro(const std::string& name) {
  return !name.empty() &&
         std::none_of(name.begin(), name.end(), [](unsigned char c) {
           return std::islower(c) != 0;
         });
}

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string hop(const FunctionDef& def) {
  return def.name + " (" + basename_of(def.file->path) + ":" +
         std::to_string(def.line) + ")";
}

bool line_suppressed(const SourceFile& f, int line, const std::string& rule) {
  if (line < 1 || line > static_cast<int>(f.raw_lines.size())) return false;
  return is_suppressed(f.raw_lines[static_cast<std::size_t>(line) - 1], rule);
}

/// One reachability sweep: from a root context (handler body or fork-child
/// branch) walk the call graph and flag everything outside the allowlist.
/// Findings anchor at the first hop (the call written in the root context),
/// so one justified allow() there cuts the whole sanctioned subtree; deeper
/// allow()s cut at any intermediate hop.
class SafetyWalk {
 public:
  SafetyWalk(const CallGraph& graph, std::string rule, std::string root_desc,
             std::vector<Finding>& out)
      : graph_(graph),
        rule_(std::move(rule)),
        root_desc_(std::move(root_desc)),
        out_(out) {}

  /// Check one call made in the root context.
  void check_root_call(const FunctionDef& root, const CallSite& call,
                       const std::string& chain0) {
    anchor_file_ = root.file->path;
    anchor_line_ = call.line;
    check_call(root, call, chain0);
  }

  void flag_root_expr(const FunctionDef& root, int line, const char* what,
                      const std::string& chain0) {
    if (line_suppressed(*root.file, line, rule_)) return;
    anchor_file_ = root.file->path;
    anchor_line_ = line;
    emit(chain0 + " -> " + what + " at " + basename_of(root.file->path) + ":" +
         std::to_string(line));
  }

 private:
  void emit(const std::string& chain) {
    out_.push_back({anchor_file_, anchor_line_, rule_,
                    root_desc_ + ": " + chain +
                        " — not on the async-signal-safe allowlist"});
  }

  void check_call(const FunctionDef& in, const CallSite& call,
                  const std::string& chain) {
    if (line_suppressed(*in.file, call.line, rule_)) return;
    const std::string at = basename_of(in.file->path) + ":" +
                           std::to_string(call.line);
    if (call.member) {
      // Member calls: deny-list only. Resolving `.close()`/`.data()` by
      // simple name across every class would chain into unrelated types,
      // so unknown members are assumed safe (accessors) — the deny list
      // names the allocating/locking growth methods that matter here.
      if (alloc_members().count(call.callee)) {
        emit(chain + " -> " +
             (call.object.empty() ? call.callee : call.object + "." +
                                                      call.callee) +
             "() at " + at + " (allocating/locking member call)");
      }
      return;
    }
    if (call.global_scope) {
      // `::name(...)` bypasses project symbols by construction.
      if (sigsafe_allowlist().count(call.callee)) return;
      emit(chain + " -> ::" + call.callee + "() at " + at);
      return;
    }
    if (call.qualifier == "std" || call.qualifier == "chrono") {
      // The handful of std facilities that are pure casts/comparisons.
      static const std::set<std::string> std_safe = {
          "move", "forward", "min", "max", "begin", "end", "data", "size"};
      if (std_safe.count(call.callee)) return;
      emit(chain + " -> std::" + call.callee + "() at " + at);
      return;
    }
    const auto& defs = graph_.defs(call.callee);
    if (!defs.empty()) {
      descend(call.callee, chain);
      return;
    }
    if (sigsafe_allowlist().count(call.callee)) return;
    if (looks_like_macro(call.callee)) return;  // WIFEXITED & friends
    emit(chain + " -> " + call.callee + "() at " + at);
  }

  void descend(const std::string& name, const std::string& chain) {
    for (const FunctionDef* def : graph_.defs(name)) {
      if (!visited_.insert(def).second) continue;
      const std::string chain2 = chain + " -> " + hop(*def);
      // Everything in a reached body counts, including its own fork-child
      // lines: we are already in an async-signal-safe context.
      for (int ln : def->new_lines) flag_expr(*def, ln, "new expression", chain);
      for (int ln : def->fork_child_new_lines)
        flag_expr(*def, ln, "new expression", chain);
      for (int ln : def->throw_lines)
        flag_expr(*def, ln, "throw expression", chain);
      for (int ln : def->fork_child_throw_lines)
        flag_expr(*def, ln, "throw expression", chain);
      for (const CallSite& c : def->calls) check_call(*def, c, chain2);
    }
  }

  void flag_expr(const FunctionDef& def, int line, const char* what,
                 const std::string& chain) {
    if (line_suppressed(*def.file, line, rule_)) return;
    emit(chain + " -> " + hop(def) + " -> " + what + " at " +
         basename_of(def.file->path) + ":" + std::to_string(line));
  }

  const CallGraph& graph_;
  std::string rule_;
  std::string root_desc_;
  std::vector<Finding>& out_;
  std::set<const FunctionDef*> visited_;
  std::string anchor_file_;
  int anchor_line_ = 0;
};

void run_signal_safety(const std::vector<TuIndex>& tus, const CallGraph& graph,
                       std::vector<Finding>& out) {
  // Collect registered handler names (dedup: one walk per handler name).
  std::set<std::string> handler_names;
  for (const TuIndex& tu : tus) {
    for (const FunctionDef& fn : tu.functions) {
      for (const auto& reg : fn.handlers_registered) {
        handler_names.insert(reg.first);
      }
    }
  }
  for (const std::string& name : handler_names) {
    for (const FunctionDef* h : graph.defs(name)) {
      SafetyWalk walk(graph, "signal-safety", "signal handler '" + name + "'",
                      out);
      const std::string chain0 = hop(*h);
      for (int ln : h->new_lines) walk.flag_root_expr(*h, ln, "new expression", chain0);
      for (int ln : h->fork_child_new_lines)
        walk.flag_root_expr(*h, ln, "new expression", chain0);
      for (int ln : h->throw_lines)
        walk.flag_root_expr(*h, ln, "throw expression", chain0);
      for (int ln : h->fork_child_throw_lines)
        walk.flag_root_expr(*h, ln, "throw expression", chain0);
      for (const CallSite& c : h->calls) walk.check_root_call(*h, c, chain0);
    }
  }
}

void run_fork_safety(const std::vector<TuIndex>& tus, const CallGraph& graph,
                     std::vector<Finding>& out) {
  for (const TuIndex& tu : tus) {
    for (const FunctionDef& fn : tu.functions) {
      const bool has_child_work = !fn.fork_child_new_lines.empty() ||
                                  !fn.fork_child_throw_lines.empty() ||
                                  std::any_of(fn.calls.begin(), fn.calls.end(),
                                              [](const CallSite& c) {
                                                return c.in_fork_child;
                                              });
      if (!has_child_work) continue;
      SafetyWalk walk(graph, "fork-safety",
                      "fork() child branch in '" + fn.name + "'", out);
      const std::string chain0 = hop(fn);
      for (int ln : fn.fork_child_new_lines)
        walk.flag_root_expr(fn, ln, "new expression", chain0);
      for (int ln : fn.fork_child_throw_lines)
        walk.flag_root_expr(fn, ln, "throw expression", chain0);
      for (const CallSite& c : fn.calls) {
        if (c.in_fork_child) walk.check_root_call(fn, c, chain0);
      }
    }
  }
}

// ---- layering -------------------------------------------------------------

/// Layer of a directory path (filename already removed): the deepest
/// component naming a module wins. -1 = not part of the layered tree
/// (tests/bench/examples and unscoped fixture files are unconstrained).
int dir_layer(const std::string& dir) {
  int layer = -1;
  std::size_t start = 0;
  while (start <= dir.size()) {
    std::size_t slash = dir.find('/', start);
    const std::string comp =
        dir.substr(start, (slash == std::string::npos ? dir.size() : slash) -
                              start);
    if (comp == "util") layer = 0;
    else if (comp == "sim" || comp == "fi") layer = 1;
    else if (comp == "sensors") layer = 2;
    else if (comp == "agent") layer = 3;
    else if (comp == "core") layer = 4;
    else if (comp == "uav") layer = 5;
    else if (comp == "obs") layer = 6;
    else if (comp == "campaign") layer = 7;
    else if (comp == "tools") layer = 8;
    if (slash == std::string::npos) break;
    start = slash + 1;
  }
  return layer;
}

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

const char* layer_name(int layer) {
  switch (layer) {
    case 0: return "util";
    case 1: return "sim/fi";
    case 2: return "sensors";
    case 3: return "agent";
    case 4: return "core";
    case 5: return "uav";
    case 6: return "obs";
    case 7: return "campaign";
    case 8: return "tools";
    default: return "?";
  }
}

void run_layering(const std::vector<TuIndex>& tus,
                  std::vector<Finding>& out) {
  // Back-edges against the module DAG.
  for (const TuIndex& tu : tus) {
    const int mine = dir_layer(dirname_of(tu.file->path));
    if (mine < 0) continue;
    for (const Include& inc : tu.includes) {
      const int target = dir_layer(dirname_of(inc.target));
      if (target < 0 || target <= mine) continue;
      if (line_suppressed(*tu.file, inc.line, "layering")) continue;
      out.push_back(
          {tu.file->path, inc.line, "layering",
           "include \"" + inc.target + "\" (layer " +
               layer_name(target) + ") from a " + layer_name(mine) +
               "-layer file is a back-edge against util -> {sim,fi} -> "
               "sensors -> agent -> core -> uav -> obs -> campaign -> "
               "tools"});
    }
  }

  // Include cycles among the scanned files.
  std::map<std::string, const TuIndex*> by_path;
  for (const TuIndex& tu : tus) by_path[tu.file->path] = &tu;
  const auto resolve = [&](const std::string& target) -> const TuIndex* {
    for (const auto& [path, tu] : by_path) {
      if (path == target || (path.size() > target.size() + 1 &&
                             path.compare(path.size() - target.size() - 1, 1,
                                          "/") == 0 &&
                             path.compare(path.size() - target.size(),
                                          target.size(), target) == 0)) {
        return tu;
      }
    }
    return nullptr;
  };

  std::set<std::string> reported;
  for (const TuIndex& root : tus) {
    // Iterative DFS with an explicit path stack; the graph is tiny.
    std::vector<std::pair<const TuIndex*, std::size_t>> stack;
    std::set<const TuIndex*> on_path;
    stack.emplace_back(&root, 0);
    on_path.insert(&root);
    std::set<const TuIndex*> seen;  // per-root visited (bounded work)
    while (!stack.empty()) {
      auto& [tu, next] = stack.back();
      if (next >= tu->includes.size()) {
        on_path.erase(tu);
        stack.pop_back();
        continue;
      }
      const Include& inc = tu->includes[next++];
      const TuIndex* target = resolve(inc.target);
      if (target == nullptr) continue;
      if (on_path.count(target)) {
        if (target == &root) {  // report each cycle once, at its lowest file
          std::string cyc = basename_of(root.file->path);
          for (const auto& [t, n] : stack) {
            if (t != &root) cyc += " -> " + basename_of(t->file->path);
          }
          cyc += " -> " + basename_of(root.file->path);
          if (reported.insert(cyc).second &&
              !line_suppressed(*tu->file, inc.line, "layering")) {
            out.push_back({tu->file->path, inc.line, "layering",
                           "include cycle: " + cyc});
          }
        }
        continue;
      }
      if (!seen.insert(target).second) continue;
      stack.emplace_back(target, 0);
      on_path.insert(target);
    }
  }
}

// ---- taint ----------------------------------------------------------------

const std::set<std::string>& taint_sources() {
  static const std::set<std::string> src = {
      "steady_clock", "high_resolution_clock", "system_clock", "dur_ns",
      "wall_sec",     "elapsed_sec",           "getrusage",    "ru_utime",
      "ru_stime",     "slot_busy_sec"};
  return src;
}

const std::set<std::string>& taint_sinks() {
  static const std::set<std::string> sinks = {
      "serialize_run_result", "run_config_digest", "journal_append"};
  return sinks;
}

bool is_punct_tok(const Token& t, const char* s) {
  return t.kind == Token::Kind::kPunct && t.text == s;
}

/// Per-function forward dataflow over `;`-separated statements: an
/// assignment whose RHS mentions a source (or an already-tainted ident)
/// taints every ident on its LHS. Two sweeps give a cheap fixpoint.
class TaintPass {
 public:
  TaintPass(const TuIndex& tu, const std::set<std::string>& extra_sources)
      : tu_(tu), sources_(taint_sources()) {
    // TU-local clock aliases: `using Clock = std::chrono::steady_clock;`
    const auto& T = tu.file->tokens;
    for (std::size_t i = 0; i + 3 < T.size(); ++i) {
      if (T[i].kind != Token::Kind::kIdent || T[i].text != "using") continue;
      if (T[i + 1].kind != Token::Kind::kIdent || !is_punct_tok(T[i + 2], "="))
        continue;
      for (std::size_t j = i + 3; j < T.size() && !is_punct_tok(T[j], ";");
           ++j) {
        if (T[j].kind == Token::Kind::kIdent && sources_.count(T[j].text)) {
          sources_.insert(T[i + 1].text);
          break;
        }
      }
    }
    for (const std::string& s : extra_sources) sources_.insert(s);
  }

  /// Analyze one function; appends sink findings and reports whether the
  /// function returns a tainted value (for the TU-level second pass).
  bool analyze(const FunctionDef& fn, std::vector<Finding>* out) {
    const auto& T = tu_.file->tokens;
    std::set<std::string> tainted;

    // Statement list: token index ranges split at ';'.
    std::vector<std::pair<std::size_t, std::size_t>> stmts;
    std::size_t begin = fn.tok_begin;
    for (std::size_t i = fn.tok_begin; i < fn.tok_end; ++i) {
      if (is_punct_tok(T[i], ";")) {
        stmts.emplace_back(begin, i);
        begin = i + 1;
      }
    }
    if (begin < fn.tok_end) stmts.emplace_back(begin, fn.tok_end);

    const auto mentions_taint = [&](std::size_t from, std::size_t to) {
      for (std::size_t i = from; i < to; ++i) {
        if (T[i].kind == Token::Kind::kIdent &&
            (sources_.count(T[i].text) || tainted.count(T[i].text))) {
          return true;
        }
      }
      return false;
    };

    for (int sweep = 0; sweep < 2; ++sweep) {
      for (const auto& [s, e] : stmts) {
        // First simple-assignment operator in the statement ('=' that is
        // not ==, <=, >=, !=; '+=' style compounds count via their '=').
        std::size_t op = 0;
        for (std::size_t i = s; i < e; ++i) {
          if (!is_punct_tok(T[i], "=")) continue;
          if (i + 1 < e && is_punct_tok(T[i + 1], "=")) {
            ++i;
            continue;
          }
          if (i > s && (is_punct_tok(T[i - 1], "<") ||
                        is_punct_tok(T[i - 1], ">") ||
                        is_punct_tok(T[i - 1], "!") ||
                        is_punct_tok(T[i - 1], "="))) {
            continue;
          }
          op = i;
          break;
        }
        if (op == 0) continue;
        if (!mentions_taint(op + 1, e)) continue;
        // Idents inside [...] / (...) on the LHS are indices/arguments, not
        // assignment targets (a[w.slot] += dur must not taint `w`).
        int nest = 0;
        for (std::size_t i = s; i < op; ++i) {
          if (is_punct_tok(T[i], "[") || is_punct_tok(T[i], "(")) ++nest;
          else if (is_punct_tok(T[i], "]") || is_punct_tok(T[i], ")")) --nest;
          else if (nest == 0 && T[i].kind == Token::Kind::kIdent) {
            tainted.insert(T[i].text);
          }
        }
      }
    }

    if (out != nullptr) {
      for (const CallSite& c : fn.calls) {
        const bool member_journal_sink =
            c.member && c.callee == "append" &&
            c.object.find("journal") != std::string::npos;
        if (!member_journal_sink &&
            (c.member || !taint_sinks().count(c.callee))) {
          continue;
        }
        // Argument tokens: from the '(' after the callee to its match.
        std::size_t close = c.tok + 1;
        int depth = 0;
        for (std::size_t i = c.tok + 1; i < fn.tok_end; ++i) {
          if (is_punct_tok(T[i], "(")) ++depth;
          if (is_punct_tok(T[i], ")") && --depth == 0) {
            close = i;
            break;
          }
        }
        bool dirty = false;
        std::string via;
        for (std::size_t i = c.tok + 2; i < close; ++i) {
          if (T[i].kind == Token::Kind::kIdent &&
              (sources_.count(T[i].text) || tainted.count(T[i].text))) {
            dirty = true;
            via = T[i].text;
            break;
          }
        }
        if (!dirty) continue;
        if (line_suppressed(*tu_.file, c.line, "taint")) continue;
        out->push_back(
            {tu_.file->path, c.line, "taint",
             "'" + via + "' derives from a wall-clock/trace source and "
             "reaches '" + c.callee + "' — serialized/journaled state must "
             "be a function of the run seed only"});
      }
    }

    // Does a `return` statement mention taint?
    for (const auto& [s, e] : stmts) {
      if (s < e && T[s].kind == Token::Kind::kIdent && T[s].text == "return" &&
          mentions_taint(s + 1, e)) {
        return true;
      }
    }
    return false;
  }

 private:
  const TuIndex& tu_;
  std::set<std::string> sources_;
};

void run_taint(const std::vector<TuIndex>& tus, std::vector<Finding>& out) {
  for (const TuIndex& tu : tus) {
    // Pass 1: which functions in this TU return tainted values?
    std::set<std::string> tainted_fns;
    {
      TaintPass pass(tu, {});
      for (const FunctionDef& fn : tu.functions) {
        if (pass.analyze(fn, nullptr)) tainted_fns.insert(fn.name);
      }
    }
    // Pass 2: sink detection with tainted-returning functions as sources.
    TaintPass pass(tu, tainted_fns);
    for (const FunctionDef& fn : tu.functions) pass.analyze(fn, &out);
  }
}

}  // namespace

void run_semantic_rules(const std::vector<TuIndex>& tus, const CallGraph& graph,
                        const std::set<std::string>& enabled,
                        std::vector<Finding>& findings) {
  if (enabled.count("signal-safety")) run_signal_safety(tus, graph, findings);
  if (enabled.count("fork-safety")) run_fork_safety(tus, graph, findings);
  if (enabled.count("layering")) run_layering(tus, findings);
  if (enabled.count("taint")) run_taint(tus, findings);
}

}  // namespace davlint
