// deps family: whole-repo architecture & dataflow rules.
//
// The lint family checks conventions a single file can prove; these rules
// check the contracts that only exist *between* files: the module layering,
// and the error-handling / locking discipline whose facts (a callee's return
// type, a lock's extent) live in another translation unit.
//
// Rules:
//
//   layering        every `#include` under src/ is projected onto a module
//                   graph and checked against the declarative repo-root
//                   LAYERS spec. Upward edges (a lower layer including a
//                   higher one), same-layer include cycles, and modules
//                   missing from the spec all fail, with the offending
//                   include chain printed. Exceptions are declared in the
//                   LAYERS [allow] section, never in code.
//   layer-pure-util util/ is the bottom of the world: it may not include
//                   anything outside util/ (stricter than the level-0 rule
//                   alone — it also bans includes of undeclared trees).
//   unchecked-status
//                   a call whose declaration — resolved across every header
//                   in src/ — returns Status or Result<T>, where the result
//                   is dropped: a bare call statement, a `(void)` cast, or
//                   an assignment to a local that is never read again in
//                   its scope. Runs on src/, tools/ and examples/. Suppress
//                   a provably-safe drop with
//                   `// cmdeps: status-ok — <reason>`.
//   blocking-under-lock
//                   a blocking operation — FeatureService::Call, artifact
//                   IO (fstream / *Tsv / *Csv helpers), sleeping, or
//                   ThreadPool::Submit / ParallelFor —
//                   between a MutexLock construction and the end of its
//                   scope, or inside a function annotated CM_REQUIRES
//                   (which executes under a caller-held lock). Runs on src/
//                   and tools/. Suppress with
//                   `// cmdeps: blocking-ok — <reason>`.

#include <map>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/include_graph.h"
#include "analysis/text.h"
#include "cmcheck/families.h"

using analysis::Finding;
using analysis::IncludeGraph;
using analysis::SourceFile;

namespace {

constexpr const char* kStatusOk = "cmdeps: status-ok";
constexpr const char* kBlockingOk = "cmdeps: blocking-ok";

// ---------------------------------------------------------------------------
// layer-pure-util.
// ---------------------------------------------------------------------------
void CheckPureUtil(const IncludeGraph& graph, std::vector<Finding>* findings) {
  for (const analysis::IncludeEdge& e : graph.edges) {
    if (e.from_module != "util") continue;
    if (e.to_include.rfind("util/", 0) == 0) continue;
    findings->push_back(
        {"layer-pure-util", e.from_file, e.line,
         "util/ may only include util/ (found \"" + e.to_include +
             "\") — util is the foundation layer every other module builds "
             "on; a util dependency on anything above it is an inversion",
         "move the shared code into util/, or the dependent code out of "
         "util/"});
  }
}

// ---------------------------------------------------------------------------
// unchecked-status: cross-header return-type resolution + call-site checks.
// ---------------------------------------------------------------------------

/// Where one Status/Result-returning function was declared (first wins).
struct StatusFn {
  std::string file;
  int line = 0;
  bool returns_result = false;  ///< Result<T> rather than Status.
};

/// Scans every header for declarations returning Status or Result<T> and
/// indexes them by function name. Token-level: `Status Name(` and
/// `Result<...> Name(` (with nesting-aware template skip), anywhere in the
/// stripped text, so members, free functions and virtuals all register.
std::map<std::string, StatusFn> CollectStatusFunctions(
    const std::vector<SourceFile>& files) {
  std::map<std::string, StatusFn> fns;
  static const std::regex type_re(R"(\b(Status|Result)\b)");
  for (const SourceFile& file : files) {
    if (!file.is_header) continue;
    const std::string& text = file.stripped_text;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), type_re);
         it != std::sregex_iterator(); ++it) {
      const size_t type_begin = static_cast<size_t>(it->position());
      // Qualified uses (`Status::OK`, `foo::Status`) are not return types
      // in declaration position for this codebase's style.
      if (type_begin >= 2 && text[type_begin - 1] == ':' &&
          text[type_begin - 2] == ':') {
        continue;
      }
      size_t pos = type_begin + static_cast<size_t>(it->length());
      const bool is_result = (*it)[1] == "Result";
      if (is_result) {
        pos = analysis::SkipWhitespace(text, pos);
        if (pos >= text.size() || text[pos] != '<') continue;
        pos = analysis::SkipTemplateArgs(text, pos);
        if (pos == std::string::npos) continue;
      } else if (pos < text.size() && text[pos] == ':') {
        continue;  // `Status::OK(...)` — qualified member, not a return type
      }
      pos = analysis::SkipWhitespace(text, pos);
      size_t end = pos;
      while (end < text.size() && analysis::IsIdentChar(text[end])) ++end;
      if (end == pos) continue;  // no identifier: variable/param/etc.
      const std::string name = text.substr(pos, end - pos);
      const size_t paren = analysis::SkipWhitespace(text, end);
      if (paren >= text.size() || text[paren] != '(') continue;
      if (name == "operator") continue;
      fns.emplace(name, StatusFn{file.rel,
                                 analysis::LineOfOffset(text, type_begin),
                                 is_result});
    }
  }
  return fns;
}

/// Removes from `fns` every name that is *also* declared with a non-Status
/// return type somewhere in the tree (any file, since .cc-local classes
/// declare their members in the .cc). Name-level resolution cannot tell
/// `FeatureSchema::Add` (Result) from `SparseRow::Add` (void) apart at a
/// call site, so colliding names are conservatively skipped rather than
/// flagged on the wrong overload.
void EraseAmbiguousNames(const std::vector<SourceFile>& files,
                         std::map<std::string, StatusFn>* fns) {
  static const std::set<std::string> kNotReturnTypes = {
      "return", "co_return", "co_await", "co_yield", "new",    "delete",
      "throw",  "else",      "case",     "goto",     "const",  "Status",
      "Result", "operator",  "typename", "template", "sizeof", "using"};
  static const std::regex decl_re(
      R"(\b([A-Za-z_]\w*)\s+([A-Za-z_]\w*)\s*\()");
  std::set<std::string> ambiguous;
  for (const SourceFile& file : files) {
    const std::string& text = file.stripped_text;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), decl_re);
         it != std::sregex_iterator(); ++it) {
      const std::string ret = (*it)[1];
      const std::string name = (*it)[2];
      if (fns->count(name) == 0) continue;
      if (kNotReturnTypes.count(ret) > 0) continue;
      ambiguous.insert(name);
    }
  }
  for (const std::string& name : ambiguous) fns->erase(name);
}

/// Offset of the first character of each line, for line->offset mapping.
std::vector<size_t> LineOffsets(const std::string& text) {
  std::vector<size_t> offsets{0};
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') offsets.push_back(i + 1);
  }
  return offsets;
}

/// True when the stripped line at index `i` begins a new statement (the
/// previous non-blank, non-preprocessor line ended one).
bool StartsStatement(const std::vector<std::string>& lines, size_t i) {
  for (size_t j = i; j > 0; --j) {
    const std::string& prev = lines[j - 1];
    size_t end = prev.find_last_not_of(" \t\r");
    if (end == std::string::npos) continue;  // blank: keep looking up
    const char c = prev[end];
    if (prev.find_first_not_of(" \t") != std::string::npos &&
        prev[prev.find_first_not_of(" \t")] == '#') {
      return true;  // preprocessor line above
    }
    return c == ';' || c == '{' || c == '}' || c == ':';
  }
  return true;  // first line of the file
}

std::string StatusOkHint(int line) {
  return "append '// " + std::string(kStatusOk) +
         " — <why the drop is safe>' on line " + std::to_string(line) +
         " (or the line above)";
}

void CheckUncheckedStatus(const SourceFile& file,
                          const std::map<std::string, StatusFn>& fns,
                          std::vector<Finding>* findings) {
  const std::string& text = file.stripped_text;
  const std::vector<size_t> line_offsets = LineOffsets(text);

  auto describe = [&fns](const std::string& name) {
    const StatusFn& fn = fns.at(name);
    return std::string(fn.returns_result ? "Result" : "Status") +
           "-returning '" + name + "' (declared " + fn.file + ":" +
           std::to_string(fn.line) + ")";
  };

  // ---- Case 1: bare call statement `obj.Fn(...);` / `Fn(...);`. ----------
  static const std::regex bare_re(
      R"(^(\s*)((?:[A-Za-z_]\w*(?:\.|->|::))*)([A-Za-z_]\w*)\s*\()");
  for (size_t i = 0; i < file.stripped_lines.size(); ++i) {
    std::smatch m;
    const std::string& line = file.stripped_lines[i];
    if (!std::regex_search(line, m, bare_re)) continue;
    const std::string name = m[3];
    if (fns.count(name) == 0) continue;
    if (!StartsStatement(file.stripped_lines, i)) continue;
    // The call's value must be truly discarded: matching ')' directly
    // followed by ';'.
    const size_t open = line_offsets[i] + static_cast<size_t>(m.position(3));
    const size_t paren = text.find('(', open);
    if (paren == std::string::npos) continue;
    const size_t close = analysis::MatchingParen(text, paren);
    if (close == std::string::npos) continue;
    const size_t after = analysis::SkipWhitespace(text, close + 1);
    if (after >= text.size() || text[after] != ';') continue;
    const int lineno = static_cast<int>(i + 1);
    if (analysis::HasSuppressionNear(file.raw_lines, lineno, kStatusOk)) {
      continue;
    }
    findings->push_back(
        {"unchecked-status", file.rel, lineno,
         "call to " + describe(name) +
             " discards the result — a dropped Status is a silently "
             "swallowed failure; propagate it, CM_CHECK_OK it, or suppress "
             "with a justification",
         StatusOkHint(lineno)});
  }

  // ---- Case 2: `(void)Fn(...)` cast. -------------------------------------
  static const std::regex void_re(
      R"(\(\s*void\s*\)\s*((?:[A-Za-z_]\w*(?:\.|->|::))*)([A-Za-z_]\w*)\s*\()");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), void_re);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[2];
    if (fns.count(name) == 0) continue;
    const int lineno =
        analysis::LineOfOffset(text, static_cast<size_t>(it->position()));
    if (analysis::HasSuppressionNear(file.raw_lines, lineno, kStatusOk)) {
      continue;
    }
    findings->push_back(
        {"unchecked-status", file.rel, lineno,
         "(void)-cast of " + describe(name) +
             " hides a fallible call — handle the error or suppress with a "
             "justification",
         StatusOkHint(lineno)});
  }

  // ---- Case 3: Status/Result local assigned but never read. --------------
  static const std::regex local_re(
      R"(^\s*(?:const\s+)?(Status|auto)\s+([a-z_]\w*)\s*=)");
  for (size_t i = 0; i < file.stripped_lines.size(); ++i) {
    std::smatch m;
    const std::string& line = file.stripped_lines[i];
    if (!std::regex_search(line, m, local_re)) continue;
    if (!StartsStatement(file.stripped_lines, i)) continue;
    const std::string var = m[2];
    const size_t decl_begin = line_offsets[i];
    const size_t stmt_end = text.find(';', decl_begin);
    if (stmt_end == std::string::npos) continue;
    // A lambda initializer is a callable, not a Status value; the fallible
    // calls inside its body are checked where the body's own statements run.
    const size_t init = analysis::SkipWhitespace(
        text, decl_begin + static_cast<size_t>(m.position(0) + m.length(0)));
    if (init < text.size() && text[init] == '[') continue;
    if (m[1] == "auto") {
      // Only flag `auto` locals whose initializer calls a known
      // Status/Result function (otherwise the type is unknowable here).
      const std::string rhs = text.substr(decl_begin, stmt_end - decl_begin);
      static const std::regex call_re(R"(([A-Za-z_]\w*)\s*\()");
      bool fallible = false;
      for (auto c = std::sregex_iterator(rhs.begin(), rhs.end(), call_re);
           c != std::sregex_iterator(); ++c) {
        if (fns.count((*c)[1]) > 0) {
          fallible = true;
          break;
        }
      }
      if (!fallible) continue;
    }
    const size_t scope_end = analysis::EnclosingScopeEnd(text, stmt_end);
    const std::string rest = text.substr(stmt_end, scope_end - stmt_end);
    const std::regex use_re("\\b" + var + "\\b");
    if (std::regex_search(rest, use_re)) continue;
    const int lineno = static_cast<int>(i + 1);
    if (analysis::HasSuppressionNear(file.raw_lines, lineno, kStatusOk)) {
      continue;
    }
    findings->push_back(
        {"unchecked-status", file.rel, lineno,
         "'" + var + "' holds a Status/Result that is never read in its "
             "scope — the error outcome is silently dropped",
         StatusOkHint(lineno)});
  }
}

// ---------------------------------------------------------------------------
// blocking-under-lock.
// ---------------------------------------------------------------------------

struct BlockingPattern {
  std::regex re;
  const char* what;
};

const std::vector<BlockingPattern>& BlockingPatterns() {
  static const std::vector<BlockingPattern> kPatterns = {
      {std::regex(R"((\.|->)Call\s*\()"),
       "a FeatureService::Call (an RPC in production)"},
      {std::regex(R"((\.|->|::)Submit\s*\()"), "ThreadPool::Submit"},
      {std::regex(R"((\.|->)ParallelFor\s*\()"),
       "a parallel fan-out (blocks until every worker finishes)"},
      {std::regex(
           R"(\b(sleep_for|sleep_until|usleep|nanosleep|SleepFor)\s*(\(|\<))"),
       "a sleep"},
      {std::regex(R"(\b(std::)?(i|o)fstream\b)"), "file-stream IO"},
      {std::regex(R"(\b(Read|Write)[A-Za-z0-9]*(Tsv|Csv|Json)\s*\()"),
       "artifact IO"},
  };
  return kPatterns;
}

/// Scans [begin, end) of `file` for blocking operations; `held` describes
/// the lock for the message.
void ScanLockedRegion(const SourceFile& file, size_t begin, size_t end,
                      const std::string& held,
                      std::vector<Finding>* findings) {
  const std::string region = file.stripped_text.substr(begin, end - begin);
  for (const BlockingPattern& pattern : BlockingPatterns()) {
    for (auto it =
             std::sregex_iterator(region.begin(), region.end(), pattern.re);
         it != std::sregex_iterator(); ++it) {
      const size_t offset = begin + static_cast<size_t>(it->position());
      const int lineno = analysis::LineOfOffset(file.stripped_text, offset);
      if (analysis::HasSuppressionNear(file.raw_lines, lineno, kBlockingOk)) {
        continue;
      }
      findings->push_back(
          {"blocking-under-lock", file.rel, lineno,
           std::string(pattern.what) + " runs while " + held +
               " — every other thread contending that mutex stalls for the "
               "full blocking duration; move the work outside the critical "
               "section or suppress with a justification",
           "append '// " + std::string(kBlockingOk) +
               " — <why blocking here is safe>' on line " +
               std::to_string(lineno) + " (or the line above)"});
    }
  }
}

void CheckBlockingUnderLock(const SourceFile& file,
                            std::vector<Finding>* findings) {
  const std::string& text = file.stripped_text;

  // ---- MutexLock guard scopes. -------------------------------------------
  static const std::regex lock_re(R"(\bMutexLock\s+([A-Za-z_]\w*)\s*\()");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), lock_re);
       it != std::sregex_iterator(); ++it) {
    const size_t decl = static_cast<size_t>(it->position());
    const size_t stmt_end = text.find(';', decl);
    if (stmt_end == std::string::npos) continue;
    const size_t scope_end = analysis::EnclosingScopeEnd(text, stmt_end);
    ScanLockedRegion(file, stmt_end, scope_end,
                     "MutexLock '" + std::string((*it)[1]) + "' (" + file.rel +
                         ":" +
                         std::to_string(analysis::LineOfOffset(text, decl)) +
                         ") is held",
                     findings);
  }

  // ---- Functions annotated CM_REQUIRES run under a caller-held lock. -----
  static const std::regex requires_re(R"(\bCM_REQUIRES\s*\()");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), requires_re);
       it != std::sregex_iterator(); ++it) {
    const size_t open = text.find(
        '(', static_cast<size_t>(it->position()));
    const size_t close = analysis::MatchingParen(text, open);
    if (close == std::string::npos) continue;
    // Definition bodies only; annotated declarations end in ';'.
    size_t pos = close + 1;
    while (pos < text.size() && text[pos] != '{' && text[pos] != ';') ++pos;
    if (pos >= text.size() || text[pos] != '{') continue;
    const size_t body_end = analysis::MatchingBrace(text, pos);
    if (body_end == std::string::npos) continue;
    ScanLockedRegion(
        file, pos, body_end,
        "the caller's lock is held (CM_REQUIRES, " + file.rel + ":" +
            std::to_string(analysis::LineOfOffset(
                text, static_cast<size_t>(it->position()))) +
            ")",
        findings);
  }
}

}  // namespace

namespace cmcheck {

void CheckDeps(const Tree& tree, std::vector<Finding>* findings) {
  const std::vector<SourceFile>& files = tree.files;
  const IncludeGraph graph = analysis::BuildIncludeGraph(files);
  for (Finding& f : analysis::CheckLayering(graph, tree.layers)) {
    findings->push_back(std::move(f));
  }
  CheckPureUtil(graph, findings);

  std::map<std::string, StatusFn> fns = CollectStatusFunctions(files);
  EraseAmbiguousNames(files, &fns);
  for (const SourceFile& file : files) {
    const bool is_src = file.rel.rfind("src/", 0) == 0;
    const bool is_tool = file.rel.rfind("tools/", 0) == 0;
    const bool is_example = file.rel.rfind("examples/", 0) == 0;
    if (is_src || is_tool || is_example) {
      CheckUncheckedStatus(file, fns, findings);
    }
    if (is_src || is_tool) CheckBlockingUnderLock(file, findings);
  }
}

}  // namespace cmcheck
