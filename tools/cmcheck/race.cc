// race family: whole-repo concurrency & hot-path rules.
//
// Four token-level rules over the stripped source tree, built on the
// tools/analysis scanning library and its C++ symbol/field model:
//
//   shared-capture        mutable state captured by reference into a lambda
//                         passed to ThreadPool::ParallelFor / ForEachSlice /
//                         ParallelMap / Submit and written without
//                         synchronization. Exempt: const, std::atomic,
//                         Mutex objects, per-slot subscripted writes, writes
//                         under a MutexLock inside the lambda, and
//                         `// cmrace: shared-ok — <why>` suppressions.
//   guard-missing /       per mutex-owning class, fields written inside
//   requires-missing      MutexLock scopes or CM_REQUIRES methods are
//                         cross-referenced against CM_GUARDED_BY; the fix
//                         hint spells the exact annotation to add.
//                         Suppress: `// cmrace: guard-ok`.
//   atomic-rmw-order /    std::atomic RMW without an explicit
//   atomic-counter-order  std::memory_order, operator ++/+= on atomics
//                         (implicit seq_cst), and non-relaxed ordering on
//                         pure counters (discarded fetch_add/fetch_sub —
//                         the ServiceHealth convention). Suppress:
//                         `// cmrace: order-ok`.
//   alloc-in-slice        heap allocation (new, unreserved push_back,
//                         string/container construction, map inserts)
//                         inside loops of slice-parallel lambda bodies in
//                         src/. Suppress: `// cmrace: alloc-ok`.
//
// This is the static complement to TSan and the runtime lockdep checker:
// those catch races a test actually executes; these rules prove the whole
// tree follows the slice-ownership and annotation discipline without
// running it.

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "analysis/symbols.h"
#include "analysis/text.h"
#include "cmcheck/families.h"

using analysis::ClassInfo;
using analysis::FieldInfo;
using analysis::Finding;
using analysis::MethodInfo;
using analysis::SourceFile;

namespace {

constexpr char kSharedOk[] = "cmrace: shared-ok";
constexpr char kGuardOk[] = "cmrace: guard-ok";
constexpr char kOrderOk[] = "cmrace: order-ok";
constexpr char kAllocOk[] = "cmrace: alloc-ok";

// ---------------------------------------------------------------------------
// Write extraction: the token patterns all rules treat as "mutates `name`".
// ---------------------------------------------------------------------------

/// One detected mutation of a named object.
struct WriteRef {
  std::string name;  ///< Base identifier written (before any .member chain).
  size_t offset;     ///< Offset of the identifier in the scanned text.
};

/// True when the character before `pos` allows `pos` to start a base
/// identifier: rejects member access (a.b, a->b), subscript results, and
/// call results, so only writes to the named object itself match.
bool BaseNameOk(const std::string& text, size_t pos) {
  if (pos == 0) return true;
  const char c = text[pos - 1];
  if (analysis::IsIdentChar(c) || c == '.' || c == ']' || c == ')') {
    return false;
  }
  if (c == '>' && pos >= 2 && text[pos - 2] == '-') return false;
  return true;
}

/// True when `name` at [pos, pos+len) is immediately subscripted — the
/// per-slot write pattern (hits[i] = ..., ++slot[c]) that slice-parallel
/// code uses for disjoint writes; never treated as a shared mutation.
bool IsSubscripted(const std::string& text, size_t name_end) {
  const size_t nx = analysis::SkipWhitespace(text, name_end);
  return nx < text.size() && text[nx] == '[';
}

/// Collects every write in text[begin, end): assignments and compound
/// assignments (including member-of-member, e.g. `stats_.jobs += n`),
/// pre/post increment/decrement, and mutating container/member calls.
/// Subscripted targets are excluded by construction (slot writes).
std::vector<WriteRef> ExtractWrites(const std::string& text, size_t begin,
                                    size_t end) {
  std::vector<WriteRef> out;
  const std::string body = text.substr(begin, end - begin);

  static const std::regex kAssign(
      R"(([A-Za-z_]\w*)((?:\s*\.\s*[A-Za-z_]\w*)*)\s*)"
      R"((<<=|>>=|\+=|-=|\*=|/=|%=|&=|\|=|\^=|=))");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), kAssign);
       it != std::sregex_iterator(); ++it) {
    const size_t pos = begin + static_cast<size_t>(it->position(1));
    if (!BaseNameOk(text, pos)) continue;
    if (IsSubscripted(text, pos + it->length(1))) continue;
    const size_t op_end =
        begin + static_cast<size_t>(it->position(3)) +
        static_cast<size_t>(it->length(3));
    // `a == b`: the regex can bind its plain '=' to the first of '=='.
    if ((*it)[3].str() == "=" && op_end < text.size() &&
        text[op_end] == '=') {
      continue;
    }
    out.push_back({(*it)[1].str(), pos});
  }

  static const std::regex kPreIncr(R"((\+\+|--)\s*([A-Za-z_]\w*))");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), kPreIncr);
       it != std::sregex_iterator(); ++it) {
    const size_t op_pos = begin + static_cast<size_t>(it->position(1));
    if (op_pos > 0 &&
        (text[op_pos - 1] == '+' || text[op_pos - 1] == '-')) {
      continue;
    }
    const size_t pos = begin + static_cast<size_t>(it->position(2));
    if (IsSubscripted(text, pos + it->length(2))) continue;
    out.push_back({(*it)[2].str(), pos});
  }

  static const std::regex kPostIncr(R"(([A-Za-z_]\w*)\s*(\+\+|--))");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), kPostIncr);
       it != std::sregex_iterator(); ++it) {
    const size_t pos = begin + static_cast<size_t>(it->position(1));
    if (!BaseNameOk(text, pos)) continue;
    out.push_back({(*it)[1].str(), pos});
  }

  static const std::regex kMutCall(
      R"(([A-Za-z_]\w*)\s*(\.|->)\s*)"
      R"((push_back|emplace_back|push_front|emplace_front|pop_back|pop_front)"
      R"(|insert|emplace|try_emplace|erase|clear|resize|reserve|assign|swap)"
      R"(|append|store)\s*\()");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), kMutCall);
       it != std::sregex_iterator(); ++it) {
    const size_t pos = begin + static_cast<size_t>(it->position(1));
    if (!BaseNameOk(text, pos)) continue;
    out.push_back({(*it)[1].str(), pos});
  }

  return out;
}

// ---------------------------------------------------------------------------
// Parallel-lambda discovery: lambdas passed inline at ParallelFor /
// ParallelMap / ForEachSlice / Submit call sites.
// ---------------------------------------------------------------------------

struct ParallelLambda {
  std::string trigger;  ///< The primitive the lambda is passed to.
  size_t intro_open;    ///< '[' of the capture list.
  size_t body_begin;    ///< '{' of the lambda body.
  size_t body_end;      ///< Matching '}'.
  analysis::CaptureList captures;
  std::set<std::string> params;  ///< Lambda parameter names.
};

/// Parameter names from a lambda parameter list's inner text.
std::set<std::string> ParseParamNames(const std::string& params_text) {
  std::set<std::string> out;
  int depth = 0;
  size_t item_start = 0;
  for (size_t i = 0; i <= params_text.size(); ++i) {
    const char c = i < params_text.size() ? params_text[i] : ',';
    if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
    if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
    if (c != ',' || depth != 0) continue;
    std::string item = params_text.substr(item_start, i - item_start);
    item_start = i + 1;
    const size_t eq = item.find('=');
    if (eq != std::string::npos) item = item.substr(0, eq);
    size_t e = item.size();
    while (e > 0 && !analysis::IsIdentChar(item[e - 1])) --e;
    size_t b = e;
    while (b > 0 && analysis::IsIdentChar(item[b - 1])) --b;
    if (e > b) out.insert(item.substr(b, e - b));
  }
  return out;
}

/// Finds every lambda passed inline at a parallel-primitive call site in
/// `file`. With `slice_only`, restricts to the data-parallel primitives
/// (ParallelFor / ParallelMap / ForEachSlice) whose bodies the
/// alloc-in-slice rule polices; Submit tasks are one-shot.
std::vector<ParallelLambda> FindParallelLambdas(const SourceFile& file,
                                                bool slice_only) {
  const std::string& text = file.stripped_text;
  std::vector<ParallelLambda> out;
  static const std::regex kAll(
      R"(\b(ParallelFor|ParallelMap|ForEachSlice|Submit)\s*\()");
  static const std::regex kSlice(
      R"(\b(ParallelFor|ParallelMap|ForEachSlice)\s*\()");
  const std::regex& trigger = slice_only ? kSlice : kAll;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), trigger);
       it != std::sregex_iterator(); ++it) {
    const size_t open = static_cast<size_t>(it->position(0)) +
                        static_cast<size_t>(it->length(0)) - 1;
    const size_t close = analysis::MatchingParen(text, open);
    if (close == std::string::npos) continue;
    size_t scan = open + 1;
    while (scan < close) {
      const size_t bracket = text.find('[', scan);
      if (bracket == std::string::npos || bracket >= close) break;
      ParallelLambda lambda;
      size_t intro_end = 0;
      if (!analysis::ParseCaptureList(text, bracket, &lambda.captures,
                                      &intro_end)) {
        scan = bracket + 1;
        continue;
      }
      size_t i = analysis::SkipWhitespace(text, intro_end);
      if (i < text.size() && text[i] == '<') {
        const size_t e = analysis::SkipTemplateArgs(text, i);
        if (e == std::string::npos) {
          scan = bracket + 1;
          continue;
        }
        i = analysis::SkipWhitespace(text, e);
      }
      if (i < text.size() && text[i] == '(') {
        const size_t pe = analysis::MatchingParen(text, i);
        if (pe == std::string::npos) {
          scan = bracket + 1;
          continue;
        }
        lambda.params = ParseParamNames(text.substr(i + 1, pe - i - 1));
        i = pe + 1;
      }
      const size_t body = text.find('{', i);
      if (body == std::string::npos || body >= close) {
        scan = bracket + 1;
        continue;
      }
      const size_t body_end = analysis::MatchingBrace(text, body);
      if (body_end == std::string::npos) {
        scan = bracket + 1;
        continue;
      }
      lambda.trigger = (*it)[1].str();
      lambda.intro_open = bracket;
      lambda.body_begin = body;
      lambda.body_end = body_end;
      out.push_back(std::move(lambda));
      scan = body_end + 1;
    }
  }
  return out;
}

/// True when `name` has `name.reserve(...)` (or ->reserve) anywhere in the
/// file — the capacity was provisioned, so growth calls do not allocate
/// per iteration.
bool HasReserveInFile(const std::string& text, const std::string& name) {
  const std::regex re("\\b" + name + R"(\s*(\.|->)\s*reserve\s*\()");
  return std::regex_search(text, re);
}

/// True when `name`'s declaration spells one of the associative container
/// types whose insert/emplace allocates a node per call.
bool DeclaredAsMapLike(const std::string& text, const std::string& name) {
  const analysis::DeclClass dc = analysis::ClassifyDeclaration(text, name);
  if (!dc.found) return false;
  static const char* kKinds[] = {"map",      "set",           "multimap",
                                 "multiset", "unordered_map", "unordered_set"};
  for (const char* kind : kKinds) {
    const std::regex word(std::string("\\b") + kind + "\\b");
    if (std::regex_search(dc.type, word)) return true;
  }
  return false;
}


// ---------------------------------------------------------------------------
// Rule 1: shared-state capture.
// ---------------------------------------------------------------------------

void CheckSharedCapture(const SourceFile& file,
                        const std::map<std::string, const FieldInfo*>& fields,
                        std::vector<Finding>* findings) {
  const std::string& text = file.stripped_text;
  std::set<std::string> seen;
  for (const ParallelLambda& lambda : FindParallelLambdas(file, false)) {
    const std::string body_text = text.substr(
        lambda.body_begin, lambda.body_end - lambda.body_begin + 1);
    const std::vector<analysis::LockScope> locks =
        analysis::CollectLockScopes(text, lambda.body_begin, lambda.body_end);
    for (const WriteRef& w :
         ExtractWrites(text, lambda.body_begin + 1, lambda.body_end)) {
      if (w.name == "this" || lambda.params.count(w.name) > 0) continue;
      // Declared inside the body: task-private scratch.
      if (analysis::ClassifyDeclaration(body_text, w.name).found) continue;
      const auto fit = fields.find(w.name);
      const FieldInfo* field = fit == fields.end() ? nullptr : fit->second;
      const bool explicit_cap = lambda.captures.named.count(w.name) > 0;
      if (field != nullptr && !explicit_cap) {
        // Fields reach the lambda through `this`; [*this] copies them.
        const auto tit = lambda.captures.named.find("this");
        const analysis::CaptureMode tmode =
            tit != lambda.captures.named.end()
                ? tit->second
                : ((lambda.captures.default_by_ref ||
                    lambda.captures.default_by_value)
                       ? analysis::CaptureMode::kByRef
                       : analysis::CaptureMode::kNone);
        if (tmode != analysis::CaptureMode::kByRef) continue;
      } else if (lambda.captures.ModeOf(w.name) !=
                 analysis::CaptureMode::kByRef) {
        continue;
      }
      analysis::DeclClass dc;
      if (field != nullptr) {
        dc.found = true;
        dc.is_const = field->is_const;
        dc.is_atomic = field->is_atomic;
        dc.is_mutex = field->is_mutex;
      } else {
        dc = analysis::ClassifyDeclaration(text, w.name);
      }
      if (dc.is_const || dc.is_atomic || dc.is_mutex) continue;
      bool under_lock = false;
      for (const analysis::LockScope& scope : locks) {
        if (w.offset >= scope.begin && w.offset < scope.end) {
          under_lock = true;
          break;
        }
      }
      if (under_lock) continue;
      const int line = analysis::LineOfOffset(text, w.offset);
      if (analysis::HasSuppressionNear(file.raw_lines, line, kSharedOk)) {
        continue;
      }
      if (!seen.insert(std::to_string(line) + ":" + w.name).second) continue;
      Finding f;
      f.rule = "shared-capture";
      f.file = file.rel;
      f.line = line;
      f.message = "'" + w.name + "' is captured by reference into a " +
                  lambda.trigger +
                  " lambda and mutated without synchronization; make it "
                  "std::atomic, write to a per-slice slot, or guard it with "
                  "a Mutex";
      f.fix_hint = std::string("// ") + kSharedOk + " — <why this is safe>";
      findings->push_back(std::move(f));
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 3: atomics orderings.
// ---------------------------------------------------------------------------

void CheckAtomics(const SourceFile& file,
                  const std::set<std::string>& atomic_fields,
                  std::vector<Finding>* findings) {
  const std::string& text = file.stripped_text;
  static const std::regex kRmw(
      R"((\.|->)\s*(fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor)"
      R"(|exchange|compare_exchange_weak|compare_exchange_strong)\s*\()");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kRmw);
       it != std::sregex_iterator(); ++it) {
    const size_t open = static_cast<size_t>(it->position(0)) +
                        static_cast<size_t>(it->length(0)) - 1;
    const size_t close = analysis::MatchingParen(text, open);
    if (close == std::string::npos) continue;
    const std::string args = text.substr(open + 1, close - open - 1);
    const std::string method = (*it)[2].str();
    const int line =
        analysis::LineOfOffset(text, static_cast<size_t>(it->position(0)));
    if (args.find("memory_order") == std::string::npos) {
      if (analysis::HasSuppressionNear(file.raw_lines, line, kOrderOk)) {
        continue;
      }
      Finding f;
      f.rule = "atomic-rmw-order";
      f.file = file.rel;
      f.line = line;
      f.message = "std::atomic " + method +
                  " without an explicit std::memory_order (defaults to "
                  "seq_cst); state the intended ordering";
      f.fix_hint = method +
                   "(..., std::memory_order_relaxed) for pure counters, or "
                   "the ordering the algorithm needs";
      findings->push_back(std::move(f));
      continue;
    }
    if ((method == "fetch_add" || method == "fetch_sub") &&
        args.find("memory_order_relaxed") == std::string::npos) {
      // Pure counter: the RMW result is discarded at statement position.
      size_t i = static_cast<size_t>(it->position(0));
      while (i > 0) {
        const char c = text[i - 1];
        if (analysis::IsIdentChar(c) || c == '.') {
          --i;
          continue;
        }
        if (c == '>' && i >= 2 && text[i - 2] == '-') {
          i -= 2;
          continue;
        }
        if (c == ']') {
          int depth = 0;
          size_t q = i;
          while (q > 0) {
            --q;
            if (text[q] == ']') ++depth;
            if (text[q] == '[' && --depth == 0) break;
          }
          if (q == 0 && text[q] != '[') break;
          i = q;
          continue;
        }
        break;
      }
      const size_t prev = analysis::PrevNonSpace(text, i);
      const char pc = prev == std::string::npos ? ';' : text[prev];
      if (pc != ';' && pc != '{' && pc != '}') continue;
      if (analysis::HasSuppressionNear(file.raw_lines, line, kOrderOk)) {
        continue;
      }
      Finding f;
      f.rule = "atomic-counter-order";
      f.file = file.rel;
      f.line = line;
      f.message = "discarded " + method +
                  " uses a non-relaxed ordering; pure counters take "
                  "std::memory_order_relaxed (ServiceHealth convention)";
      f.fix_hint = method + "(..., std::memory_order_relaxed)";
      findings->push_back(std::move(f));
    }
  }

  // Operator RMW (++ / -- / compound assignment) on a known atomic is an
  // implicit seq_cst read-modify-write.
  auto flag_operator = [&](const std::string& name, size_t pos) {
    bool is_atomic = atomic_fields.count(name) > 0;
    if (!is_atomic) {
      is_atomic = analysis::ClassifyDeclaration(text, name).is_atomic;
    }
    if (!is_atomic) return;
    const int line = analysis::LineOfOffset(text, pos);
    if (analysis::HasSuppressionNear(file.raw_lines, line, kOrderOk)) return;
    Finding f;
    f.rule = "atomic-rmw-order";
    f.file = file.rel;
    f.line = line;
    f.message = "operator RMW on std::atomic '" + name +
                "' is an implicit seq_cst read-modify-write; use "
                "fetch_add/fetch_sub with an explicit std::memory_order";
    f.fix_hint = name + ".fetch_add(1, std::memory_order_relaxed)";
    findings->push_back(std::move(f));
  };
  static const std::regex kPre(R"((\+\+|--)\s*([A-Za-z_]\w*))");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kPre);
       it != std::sregex_iterator(); ++it) {
    const size_t op_pos = static_cast<size_t>(it->position(1));
    if (op_pos > 0 && (text[op_pos - 1] == '+' || text[op_pos - 1] == '-')) {
      continue;
    }
    const size_t pos = static_cast<size_t>(it->position(2));
    if (IsSubscripted(text, pos + it->length(2))) continue;
    flag_operator((*it)[2].str(), pos);
  }
  static const std::regex kPost(R"(([A-Za-z_]\w*)\s*(\+\+|--))");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kPost);
       it != std::sregex_iterator(); ++it) {
    const size_t pos = static_cast<size_t>(it->position(1));
    if (!BaseNameOk(text, pos)) continue;
    flag_operator((*it)[1].str(), pos);
  }
  static const std::regex kCompound(
      R"(([A-Za-z_]\w*)\s*(\+=|-=|&=|\|=|\^=))");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kCompound);
       it != std::sregex_iterator(); ++it) {
    const size_t pos = static_cast<size_t>(it->position(1));
    if (!BaseNameOk(text, pos)) continue;
    if (IsSubscripted(text, pos + it->length(1))) continue;
    flag_operator((*it)[1].str(), pos);
  }
}

// ---------------------------------------------------------------------------
// Rule 4: allocation inside slice-parallel loops (src/ hot paths).
// ---------------------------------------------------------------------------

void CheckAllocInSlice(const SourceFile& file,
                       std::vector<Finding>* findings) {
  const std::string& text = file.stripped_text;
  std::set<std::string> seen;
  auto add = [&](size_t offset, const std::string& what,
                 const std::string& hint) {
    const int line = analysis::LineOfOffset(text, offset);
    if (analysis::HasSuppressionNear(file.raw_lines, line, kAllocOk)) return;
    if (!seen.insert(std::to_string(line) + ":" + what).second) return;
    Finding f;
    f.rule = "alloc-in-slice";
    f.file = file.rel;
    f.line = line;
    f.message =
        what + " inside the innermost loop of a slice-parallel body; " + hint;
    f.fix_hint = hint;
    findings->push_back(std::move(f));
  };

  for (const ParallelLambda& lambda : FindParallelLambdas(file, true)) {
    const std::vector<analysis::LoopRange> loops =
        analysis::CollectLoopRanges(text, lambda.body_begin + 1,
                                    lambda.body_end);
    if (loops.empty()) continue;
    const std::string body = text.substr(
        lambda.body_begin, lambda.body_end - lambda.body_begin + 1);

    // Direct heap constructions.
    for (const char* word : {"new", "make_unique", "make_shared"}) {
      size_t pos = lambda.body_begin;
      while ((pos = analysis::FindWord(text, word, pos, lambda.body_end)) !=
             std::string::npos) {
        if (analysis::InAnyRange(loops, pos)) {
          add(pos, std::string("'") + word + "' allocates",
              "allocate slice-owned scratch outside the loop");
        }
        pos += std::string(word).size();
      }
    }
    {
      size_t pos = lambda.body_begin;
      while ((pos = analysis::FindWord(text, "to_string", pos,
                                       lambda.body_end)) != std::string::npos) {
        if (analysis::InAnyRange(loops, pos)) {
          add(pos, "'std::to_string' builds a std::string per iteration",
              "format outside the loop or into a reused buffer");
        }
        pos += 9;
      }
    }

    // Growth calls on containers with no reserve() anywhere in the file.
    static const std::regex kGrow(
        R"(([A-Za-z_]\w*)\s*(\.|->)\s*)"
        R"((push_back|emplace_back|push_front|emplace_front)\s*\()");
    for (auto it = std::sregex_iterator(body.begin(), body.end(), kGrow);
         it != std::sregex_iterator(); ++it) {
      const size_t pos =
          lambda.body_begin + static_cast<size_t>(it->position(1));
      if (!BaseNameOk(text, pos)) continue;
      if (!analysis::InAnyRange(loops, pos)) continue;
      const std::string name = (*it)[1].str();
      if (HasReserveInFile(text, name)) continue;
      add(pos, "'" + name + "." + (*it)[3].str() + "' grows an unreserved container",
          "reserve capacity up front (" + name +
              ".reserve(...)) or reuse slice-owned scratch");
    }

    // Node allocation per insert on associative containers.
    static const std::regex kInsert(
        R"(([A-Za-z_]\w*)\s*(\.|->)\s*(insert|emplace|try_emplace)\s*\()");
    for (auto it = std::sregex_iterator(body.begin(), body.end(), kInsert);
         it != std::sregex_iterator(); ++it) {
      const size_t pos =
          lambda.body_begin + static_cast<size_t>(it->position(1));
      if (!BaseNameOk(text, pos)) continue;
      if (!analysis::InAnyRange(loops, pos)) continue;
      const std::string name = (*it)[1].str();
      if (!DeclaredAsMapLike(text, name)) continue;
      if (HasReserveInFile(text, name)) continue;
      add(pos, "'" + name + "." + (*it)[3].str() +
                   "' allocates a node per insertion",
          "hoist the build out of the loop or reserve() the table");
    }

    // Container / string construction per iteration.
    static const char* kContainers[] = {"vector",        "string",
                                        "deque",         "unordered_map",
                                        "unordered_set", "map",
                                        "set"};
    for (const char* type : kContainers) {
      size_t pos = lambda.body_begin;
      const size_t tlen = std::string(type).size();
      while ((pos = analysis::FindWord(text, type, pos, lambda.body_end)) !=
             std::string::npos) {
        const size_t here = pos;
        pos += tlen;
        if (!analysis::InAnyRange(loops, here)) continue;
        // `new std::vector<...>` is already reported by the new check.
        size_t back = here;
        if (back >= 2 && text[back - 1] == ':' && text[back - 2] == ':') {
          back = analysis::PrevNonSpace(text, back - 2);
          size_t b = back;
          while (b > 0 && analysis::IsIdentChar(text[b - 1])) --b;
          back = b;
        }
        const size_t bp = analysis::PrevNonSpace(text, back);
        if (bp != std::string::npos && bp >= 2 &&
            analysis::IsIdentChar(text[bp])) {
          size_t b = bp;
          while (b > 0 && analysis::IsIdentChar(text[b - 1])) --b;
          if (text.substr(b, bp - b + 1) == "new") continue;
        }
        size_t i = here + tlen;
        if (i < text.size() && text[i] == '<') {
          const size_t e = analysis::SkipTemplateArgs(text, i);
          if (e == std::string::npos) continue;
          i = e;
        }
        i = analysis::SkipWhitespace(text, i);
        if (i >= text.size()) continue;
        const char c = text[i];
        if (c == '&' || c == '*' || c == ':' || c == '>' || c == ',' ||
            c == ';' || c == ')') {
          continue;  // reference/pointer decl, nested template, scope path
        }
        if (analysis::IsIdentChar(c) && !std::isdigit(
                static_cast<unsigned char>(c))) {
          add(here, std::string("constructs a std::") + type +
                        " every iteration",
              "hoist to slice-owned scratch declared at the lambda top");
        } else if (c == '(' || c == '{') {
          add(here, std::string("creates a temporary std::") + type,
              "hoist or precompute outside the loop");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 2: CM_GUARDED_BY coverage for mutex-owning classes.
// ---------------------------------------------------------------------------

void CheckAnnotationCoverage(
    const std::vector<SourceFile>& files,
    const std::vector<std::vector<ClassInfo>>& classes_per_file,
    std::vector<Finding>* findings) {
  struct ClassRef {
    const ClassInfo* info;
    const SourceFile* file;
  };
  std::map<std::string, ClassRef> classes;
  std::set<std::string> ambiguous;
  for (size_t fi = 0; fi < files.size(); ++fi) {
    for (const ClassInfo& c : classes_per_file[fi]) {
      if (ambiguous.count(c.name) > 0) continue;
      if (classes.count(c.name) > 0) {
        classes.erase(c.name);
        ambiguous.insert(c.name);
        continue;
      }
      classes[c.name] = {&c, &files[fi]};
    }
  }
  std::set<std::string> mutex_owners;
  for (const auto& entry : classes) {
    if (entry.second.info->OwnsMutex()) mutex_owners.insert(entry.first);
  }
  if (mutex_owners.empty()) return;

  std::map<std::string,
           std::vector<std::pair<MethodInfo, const SourceFile*>>>
      methods;
  for (const std::string& name : mutex_owners) {
    for (const MethodInfo& m : classes[name].info->methods) {
      methods[name].push_back({m, classes[name].file});
    }
  }
  for (const SourceFile& file : files) {
    for (const MethodInfo& m :
         analysis::CollectOutOfLineMethods(file, mutex_owners)) {
      methods[m.owner].push_back({m, &file});
    }
  }

  static const std::regex kReqAnno(
      R"(\bCM_(REQUIRES|EXCLUSIVE_LOCKS_REQUIRED|SHARED_LOCKS_REQUIRED)"
      R"(|ACQUIRE|RELEASE|TRY_ACQUIRE|NO_THREAD_SAFETY_ANALYSIS)\b)");
  static const std::regex kReqArg(
      R"(\bCM_(?:REQUIRES|EXCLUSIVE_LOCKS_REQUIRED)\s*\(([^()]*)\))");
  std::set<std::string> reported_fields;
  for (const std::string& cname : mutex_owners) {
    const ClassInfo& cls = *classes[cname].info;
    const SourceFile* cls_file = classes[cname].file;
    const std::vector<std::string> mutexes = cls.MutexFieldNames();
    for (const auto& entry : methods[cname]) {
      const MethodInfo& method = entry.first;
      const SourceFile* mfile = entry.second;
      const std::string& text = mfile->stripped_text;
      if (method.body_end <= method.body_begin) continue;
      std::string anno = method.annotations;
      const auto dit = cls.decl_annotations.find(method.name);
      if (dit != cls.decl_annotations.end()) anno += " " + dit->second;
      const bool has_requires = std::regex_search(anno, kReqAnno);
      std::string requires_arg;
      std::smatch am;
      if (std::regex_search(anno, am, kReqArg)) requires_arg = am[1].str();

      std::vector<analysis::LockScope> scopes;
      for (analysis::LockScope& s : analysis::CollectLockScopes(
               text, method.body_begin, method.body_end)) {
        if (std::find(mutexes.begin(), mutexes.end(), s.mutex) !=
            mutexes.end()) {
          scopes.push_back(s);
        }
      }
      const std::string body_text = text.substr(
          method.body_begin, method.body_end - method.body_begin + 1);
      for (const WriteRef& w :
           ExtractWrites(text, method.body_begin + 1, method.body_end)) {
        const FieldInfo* field = cls.FindField(w.name);
        if (field == nullptr) continue;
        if (field->is_mutex || field->is_atomic || field->is_const ||
            field->is_static) {
          continue;
        }
        // A local declaration shadows the field inside this body.
        if (analysis::ClassifyDeclaration(body_text, w.name).found) continue;
        const analysis::LockScope* in_scope = nullptr;
        for (const analysis::LockScope& s : scopes) {
          if (w.offset >= s.begin && w.offset < s.end) {
            in_scope = &s;
            break;
          }
        }
        const int wline = analysis::LineOfOffset(text, w.offset);
        if (in_scope != nullptr || has_requires) {
          if (!field->guarded_by.empty()) continue;  // annotated: clean
          if (analysis::HasSuppressionNear(mfile->raw_lines, wline,
                                           kGuardOk)) {
            continue;
          }
          if (analysis::HasSuppressionNear(cls_file->raw_lines, field->line,
                                           kGuardOk)) {
            continue;
          }
          if (!reported_fields.insert(cname + ":" + w.name).second) continue;
          std::string mu = in_scope != nullptr ? in_scope->mutex
                                               : requires_arg;
          if (mu.empty() && !mutexes.empty()) mu = mutexes.front();
          const FieldInfo* mu_field = cls.FindField(mu);
          if (mu_field != nullptr &&
              (mu_field->type.find("unique_ptr") != std::string::npos ||
               mu_field->type.find("shared_ptr") != std::string::npos)) {
            mu = "*" + mu;
          }
          Finding f;
          f.rule = "guard-missing";
          f.file = cls.file;
          f.line = field->line;
          f.message = "field '" + w.name + "' of " + cname +
                      " is written under mutex '" + mu + "' (" + mfile->rel +
                      ":" + std::to_string(wline) +
                      ") but carries no CM_GUARDED_BY annotation";
          f.fix_hint =
              field->type + " " + w.name + " CM_GUARDED_BY(" + mu + ");";
          findings->push_back(std::move(f));
        } else {
          if (field->guarded_by.empty()) continue;
          if (method.is_structor) continue;  // init before sharing
          if (analysis::HasSuppressionNear(mfile->raw_lines, wline,
                                           kGuardOk)) {
            continue;
          }
          Finding f;
          f.rule = "requires-missing";
          f.file = mfile->rel;
          f.line = wline;
          f.message = "method " + cname + "::" + method.name + " writes '" +
                      w.name + "' (CM_GUARDED_BY(" + field->guarded_by +
                      ")) without holding the lock or declaring the "
                      "requirement";
          f.fix_hint = "annotate with CM_REQUIRES(" + field->guarded_by +
                       ") or take MutexLock in the method";
          findings->push_back(std::move(f));
        }
      }
    }
  }
}

}  // namespace

namespace cmcheck {

void CheckRace(const Tree& tree, std::vector<Finding>* findings) {
  const std::vector<SourceFile>& files = tree.files;
  std::vector<std::vector<ClassInfo>> classes_per_file;
  classes_per_file.reserve(files.size());
  for (const SourceFile& file : files) {
    classes_per_file.push_back(analysis::CollectClasses(file));
  }

  for (size_t i = 0; i < files.size(); ++i) {
    const SourceFile& file = files[i];
    std::map<std::string, const FieldInfo*> fields;
    std::set<std::string> atomic_fields;
    for (const ClassInfo& c : classes_per_file[i]) {
      for (const FieldInfo& f : c.fields) {
        fields.emplace(f.name, &f);
        if (f.is_atomic) atomic_fields.insert(f.name);
      }
    }
    CheckSharedCapture(file, fields, findings);
    CheckAtomics(file, atomic_fields, findings);
    if (file.rel.rfind("src/", 0) == 0) CheckAllocInSlice(file, findings);
  }
  CheckAnnotationCoverage(files, classes_per_file, findings);
}

}  // namespace cmcheck
