// davlint — project lint gate for the determinism & safety conventions the
// campaign layer depends on (see DESIGN.md §12 and README "Static analysis").
//
// v2: a project-wide semantic analyzer. One lexer pass strips comments and
// literals and produces a token stream per file; per-TU indexes record
// function definitions, call sites, includes, fork-child regions and signal
// handler registrations; a cross-TU call graph drives the semantic rules
// (signal-safety, fork-safety, layering, taint) while the original eight
// line rules run on the stripped lines.
//
// Usage:   davlint [--list-rules] [--rules-md] [--rules=a,b,...]
//                  <file-or-dir>...
// Exit:    0 clean, 1 findings, 2 usage or I/O error
// Silence: append "davlint: allow(<rule>)" in a comment on the same line.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "callgraph.h"
#include "lexer.h"
#include "line_rules.h"
#include "rules.h"
#include "semantic_rules.h"
#include "tu_index.h"

namespace fs = std::filesystem;
using namespace davlint;

namespace {

bool has_cxx_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".h" ||
         ext == ".hpp";
}

}  // namespace

int main(int argc, char** argv) {
  std::set<std::string> enabled;
  for (const auto& r : rules()) enabled.insert(r.name);
  std::vector<std::string> inputs;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const auto& r : rules()) {
        std::cout << r.name << ": " << r.summary << "\n";
      }
      return 0;
    }
    if (arg == "--rules-md") {
      std::cout << rules_markdown();
      return 0;
    }
    if (arg.rfind("--rules=", 0) == 0) {
      enabled.clear();
      std::stringstream ss(arg.substr(8));
      std::string item;
      while (std::getline(ss, item, ',')) {
        if (!is_known_rule(item)) {
          std::cerr << "davlint: unknown rule '" << item << "'\n";
          return 2;
        }
        enabled.insert(item);
      }
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::cerr << "davlint: unknown option " << arg << "\n";
      return 2;
    }
    inputs.push_back(arg);
  }
  if (inputs.empty()) {
    std::cerr << "usage: davlint [--list-rules] [--rules-md] [--rules=a,b] "
                 "<file-or-dir>...\n";
    return 2;
  }

  std::vector<std::string> paths;
  for (const auto& input : inputs) {
    fs::path p(input);
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(p)) {
        if (entry.is_regular_file() && has_cxx_extension(entry.path())) {
          paths.push_back(entry.path().string());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      paths.push_back(p.string());
    } else {
      std::cerr << "davlint: no such file or directory: " << input << "\n";
      return 2;
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  // Lex everything up front: the line rules reuse the stripped lines, the
  // semantic rules the token streams.
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const auto& p : paths) {
    SourceFile f;
    if (!lex_file(p, f)) {
      std::cerr << "davlint: cannot read " << p << "\n";
      return 2;
    }
    files.push_back(std::move(f));
  }

  std::vector<Finding> findings;
  for (const SourceFile& f : files) run_line_rules(f, enabled, findings);

  std::vector<TuIndex> tus;
  tus.reserve(files.size());
  for (const SourceFile& f : files) tus.push_back(index_tu(f));
  CallGraph graph(tus);
  run_semantic_rules(tus, graph, enabled, findings);

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule &&
                                      a.message == b.message;
                             }),
                 findings.end());

  for (const auto& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  if (!findings.empty()) {
    std::cout << "davlint: " << findings.size() << " finding"
              << (findings.size() == 1 ? "" : "s") << " in " << files.size()
              << " files\n";
    return 1;
  }
  return 0;
}
