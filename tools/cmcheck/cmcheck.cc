// cmcheck: the repo's static-analysis driver.
//
// Loads the tree once — every .h/.cc/.cpp under src/, tools/, tests/,
// bench/ and examples/, plus the <root>/LAYERS spec — runs the registered
// rule families over it (lint, deps, race, life; see families.h), then
// filters every finding through <root>/tools/cmcheck_allowlist.txt and
// prints one sorted report.
//
// Usage:
//   cmcheck --root DIR [--json]   analyze DIR
//   cmcheck --self-test --root DIR
//                                 run every family on the seeded fixture
//                                 trees in DIR/tools/analysis/testdata and
//                                 check that DIR/LAYERS parses
//
// Exit status: 0 clean, 1 findings (or self-test failure), 2 usage or I/O
// error (unreadable source file, allowlist or LAYERS).

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cmcheck/families.h"

namespace fs = std::filesystem;

using analysis::Finding;

namespace {

constexpr void (*kFamilies[])(const cmcheck::Tree&, std::vector<Finding>*) = {
    &cmcheck::CheckLint, &cmcheck::CheckDeps, &cmcheck::CheckRace,
    &cmcheck::CheckLife};

/// Loads the tree under `root` and runs every family over it. False with
/// `*error` set when a source file or LAYERS cannot be read or parsed.
bool Analyze(const fs::path& root, std::vector<Finding>* findings,
             std::string* error) {
  cmcheck::Tree tree;
  if (!analysis::LoadLayerSpec((root / "LAYERS").string(), &tree.layers,
                               error)) {
    return false;
  }
  for (const fs::path& path : analysis::ListSourceFiles(
           root, {"src", "tools", "tests", "bench", "examples"})) {
    const std::string rel = fs::relative(path, root).generic_string();
    analysis::SourceFile file;
    if (!analysis::LoadSourceFile(path, rel, &file)) {
      *error = "cannot read " + rel;
      return false;
    }
    tree.files.push_back(std::move(file));
  }
  for (const auto family : kFamilies) family(tree, findings);
  return true;
}

/// The tree pass: analyze, allowlist, sort, print. Returns the exit status.
int Run(const fs::path& root, bool json, std::ostream& out) {
  std::vector<Finding> findings;
  std::string error;
  if (!Analyze(root, &findings, &error)) {
    out << "cmcheck: " << error << "\n";
    return 2;
  }
  const fs::path allow_path = root / "tools" / "cmcheck_allowlist.txt";
  bool allow_ok = true;
  const std::set<std::string> allow = analysis::LoadAllowlist(
      fs::exists(allow_path) ? allow_path : fs::path(), &allow_ok);
  if (!allow_ok) {
    out << "cmcheck: cannot read allowlist " << allow_path << "\n";
    return 2;
  }
  analysis::FilteredFindings filtered =
      analysis::ApplyAllowlist(findings, allow);
  std::sort(filtered.reported.begin(), filtered.reported.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  if (json) {
    analysis::PrintFindingsJson("cmcheck", filtered.reported, out);
  } else {
    analysis::PrintFindings(filtered.reported, out);
    for (const std::string& entry : filtered.stale) {
      out << "note: stale allowlist entry (no matching finding): " << entry
          << "\n";
    }
    out << "cmcheck: " << filtered.reported.size() << " finding(s)";
    if (filtered.suppressed > 0) {
      out << ", " << filtered.suppressed << " allowlisted";
    }
    out << "\n";
  }
  return filtered.reported.empty() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Self-test over the seeded fixture trees in tools/analysis/testdata/.
// ---------------------------------------------------------------------------

/// One fixture tree and the exact set of `rule:file:line` keys every family
/// together must report on it, before allowlisting. Lines a fixture seeds
/// as suppressed, guarded, reserved or otherwise safe are covered by their
/// absence from the set.
struct FixtureCase {
  const char* dir;
  std::set<std::string> keys;
};

/// A substring the message or fix hint of the finding at `key` must carry.
struct TextCheck {
  const char* dir;
  const char* key;
  const char* needle;
};

int SelfTest(const fs::path& root) {
  const fs::path testdata = root / "tools" / "analysis" / "testdata";
  const std::vector<FixtureCase> cases = {
      // A conforming mini-tree.
      {"clean", {}},
      // The upward include graph -> core and the labeling <-> mining cycle;
      // the downward include in core/pipe.h is fine. Lint flags the
      // unguarded fixture headers.
      {"layering",
       {"layering:src/graph/g.cc:4", "layering:src/mining/b.h:2",
        "include-guard:src/core/pipe.h:1", "include-guard:src/labeling/a.h:1",
        "include-guard:src/mining/b.h:1"}},
      // The same upward edge passes once [allow]ed.
      {"layering_allow", {"include-guard:src/core/pipe.h:1"}},
      // util/ reaching above itself; util including util/ is fine.
      {"pure_util",
       {"layer-pure-util:src/util/bad.cc:2", "layering:src/util/bad.cc:2"}},
      // Bare dropped call, (void) cast, never-read Status and auto Result
      // locals; suppressed/consumed uses, the ambiguous overload name and
      // the lambda initializer stay quiet.
      {"unchecked_status",
       {"unchecked-status:src/io/use.cc:8", "unchecked-status:src/io/use.cc:9",
        "unchecked-status:src/io/use.cc:12",
        "unchecked-status:src/io/use.cc:13", "include-guard:src/io/api.h:1",
        "nodiscard:src/io/api.h:2", "nodiscard:src/io/api.h:3",
        "nodiscard:src/io/api.h:5"}},
      // Service Call and artifact IO under MutexLock, IO inside a
      // CM_REQUIRES body; suppressed and after-scope blocking stay quiet.
      {"blocking_under_lock",
       {"blocking-under-lock:src/serving/srv.cc:9",
        "blocking-under-lock:src/serving/srv.cc:16",
        "blocking-under-lock:src/serving/srv.cc:31",
        "include-guard:src/resources/svc.h:1",
        "nodiscard:src/resources/svc.h:4"}},
      // One seeded violation per lint rule (rand/cout/new/delete each
      // count); comments, strings, 'time' substrings, the counting loop,
      // body-local and per-slot accumulation, and the cmlint suppressions
      // stay quiet. Race flags the shared accumulator too.
      {"cmlint",
       {"include-guard:src/util/bad_guard.h:2",
        "file-comment:src/util/no_comment.h:1",
        "nodiscard:src/util/drops_status.h:5",
        "nodiscard:src/util/drops_status.h:6",
        "banned-call:src/util/banned.cc:3", "banned-call:src/util/banned.cc:4",
        "banned-call:src/util/banned.cc:5", "banned-call:src/util/banned.cc:6",
        "unordered-iter:src/util/unordered_iter.cc:6",
        "nondeterministic-seed:src/util/clock_seed.cc:4",
        "nondeterministic-seed:src/util/clock_seed.cc:5",
        "parallel-reduction:src/util/parallel_sum.cc:6",
        "shared-capture:src/util/parallel_sum.cc:6",
        "shared-capture:src/util/parallel_sum.cc:24"}},
      // By-ref mutation of a local and of a field through `this`; atomic,
      // slot-indexed and suppressed writes stay quiet. Lint's
      // parallel-reduction also flags the shared += lines.
      {"cmrace/capture",
       {"shared-capture:src/a.cc:18", "shared-capture:src/a.cc:31",
        "parallel-reduction:src/a.cc:18", "parallel-reduction:src/a.cc:22",
        "parallel-reduction:src/a.cc:31"}},
      // Unannotated fields written under MutexLock or CM_REQUIRES, and an
      // unlocked out-of-line write of an annotated field; the suppressed
      // field and the locked write stay quiet.
      {"cmrace/guards",
       {"guard-missing:src/cache.h:25", "guard-missing:src/cache.h:26",
        "guard-missing:src/cache.h:27", "requires-missing:src/s.cc:4",
        "include-guard:src/cache.h:1"}},
      // Order-less fetch_add/exchange, a discarded seq_cst counter and
      // operator++ on an atomic; relaxed, used, suppressed and explicit RMWs
      // stay quiet.
      {"cmrace/atomics",
       {"atomic-rmw-order:src/a.cc:8", "atomic-rmw-order:src/a.cc:9",
        "atomic-counter-order:src/a.cc:11", "atomic-rmw-order:src/a.cc:17"}},
      // Per-iteration vector/new/string/to_string/map insert in a slice
      // loop; hoisted, reserved and suppressed allocations stay quiet.
      {"cmrace/allocs",
       {"alloc-in-slice:src/a.cc:22", "alloc-in-slice:src/a.cc:23",
        "alloc-in-slice:src/a.cc:24", "alloc-in-slice:src/a.cc:25",
        "alloc-in-slice:src/a.cc:40", "banned-call:src/a.cc:23",
        "banned-call:src/a.cc:28"}},
      // View return of an owning local, data() of a local vector, a view of
      // an owning temporary, a view member bound to a parameter; static,
      // view-chain, owned, member-bind and suppressed cases stay quiet.
      {"cmlife/views",
       {"view-escape:src/a.cc:10", "view-escape:src/a.cc:16",
        "view-escape:src/a.cc:21", "view-escape:src/a.cc:29",
        "include-guard:src/api.h:1"}},
      // By-ref capture into Submit without Wait, a [&] default the task
      // uses, a stored std::function member, a returned lambda; waited,
      // by-value and suppressed captures stay quiet. Race flags the
      // unsynchronized Submit-lambda writes.
      {"cmlife/deferred",
       {"deferred-capture-lifetime:src/a.cc:22",
        "deferred-capture-lifetime:src/a.cc:28",
        "deferred-capture-lifetime:src/a.cc:34",
        "deferred-capture-lifetime:src/a.cc:40", "shared-capture:src/a.cc:22",
        "shared-capture:src/a.cc:28", "shared-capture:src/a.cc:46",
        "shared-capture:src/a.cc:66"}},
      // Element reference across push_back, data() across resize, iterator
      // across erase; pre-mutation, refreshed, copied and suppressed uses
      // stay quiet.
      {"cmlife/invalidate",
       {"invalidated-reference:src/a.cc:15",
        "invalidated-reference:src/a.cc:22",
        "invalidated-reference:src/a.cc:29"}},
      // Read after move and double move; reassignment, reset(), loop-body
      // moves, return-moves and suppressed reads stay quiet.
      {"cmlife/moves",
       {"use-after-move:src/a.cc:16", "use-after-move:src/a.cc:23",
        "banned-call:src/a.cc:37"}},
  };
  const TextCheck text_checks[] = {
      {"layering", "layering:src/mining/b.h:2", "labeling -> mining"},
      {"layering", "layering:src/mining/b.h:2", "mining -> labeling"},
      {"cmrace/guards", "guard-missing:src/cache.h:26", "CM_GUARDED_BY(mu_)"},
      {"cmlife/views", "view-escape:src/a.cc:10", "cmlife: view-ok"},
  };

  int failures = 0;
  auto fail = [&failures](const std::string& what) {
    std::cout << "self-test FAIL: " << what << "\n";
    ++failures;
  };

  std::map<std::string, std::vector<Finding>> results;
  for (const FixtureCase& c : cases) {
    std::vector<Finding>& findings = results[c.dir];
    std::string error;
    if (!Analyze(testdata / c.dir, &findings, &error)) {
      fail(std::string(c.dir) + ": " + error);
      continue;
    }
    std::set<std::string> keys;
    for (const Finding& f : findings) {
      keys.insert(f.rule + ":" + f.file + ":" + std::to_string(f.line));
    }
    for (const std::string& key : c.keys) {
      if (keys.count(key) == 0) fail(std::string(c.dir) + ": missing " + key);
    }
    for (const std::string& key : keys) {
      if (c.keys.count(key) == 0) {
        fail(std::string(c.dir) + ": unexpected " + key);
      }
    }
  }

  for (const TextCheck& check : text_checks) {
    bool found = false;
    for (const Finding& f : results[check.dir]) {
      if (f.rule + ":" + f.file + ":" + std::to_string(f.line) == check.key &&
          (f.message + "\n" + f.fix_hint).find(check.needle) !=
              std::string::npos) {
        found = true;
      }
    }
    if (!found) {
      fail(std::string(check.dir) + ": " + check.key + " does not mention '" +
           check.needle + "'");
    }
  }

  // The LAYERS grammar: the root's own spec and one hand-written spec are
  // accepted, then one reject per error class.
  analysis::LayerSpec spec;
  std::string error;
  if (!analysis::LoadLayerSpec((root / "LAYERS").string(), &spec, &error)) {
    fail("root LAYERS spec: " + error);
  }
  if (!analysis::ParseLayerSpec(
          "[layers]\n0: util\n1: io serving\n[allow]\nio -> serving\n", &spec,
          &error) ||
      spec.level.at("serving") != 1 ||
      spec.allowed.count({"io", "serving"}) != 1) {
    fail("well-formed LAYERS spec not parsed as written (" + error + ")");
  }
  for (const char* bad : {
           "[layers]\n0: util\n1: util\n",                 // duplicate module
           "0: util\n",                                    // before a section
           "[layers]\nx: util\n",                          // non-numeric level
           "[layers]\n0: util\n[allow]\nutil -> ghost\n",  // undeclared module
       }) {
    if (analysis::ParseLayerSpec(bad, &spec, &error)) {
      fail("malformed LAYERS spec accepted: " + std::string(bad));
    }
  }

  // The tree pass over a fixture with findings and no allowlist exits 1 and
  // prints each finding as `file:line: [rule] message` plus its fix line.
  std::ostringstream report;
  const int findings_rc = Run(testdata / "layering", false, report);
  if (findings_rc != 1) {
    fail("layering tree exits " + std::to_string(findings_rc) + ", not 1");
  }
  for (const char* line : {"src/graph/g.cc:4: [layering] ", "\n  fix: ",
                           "\ncmcheck: 5 finding(s)\n"}) {
    if (report.str().find(line) == std::string::npos) {
      fail("layering report lacks '" + std::string(line) + "':\n" +
           report.str());
    }
  }

  // The seeded lint tree passes once its allowlist covers every finding.
  std::ostringstream sink;
  const int allowed_rc = Run(testdata / "cmlint", false, sink);
  if (allowed_rc != 0) {
    fail("allowlisted cmlint tree exits " + std::to_string(allowed_rc) +
         ":\n" + sink.str());
  }

  if (failures != 0) return 1;
  std::cout << "cmcheck self-test: " << cases.size()
            << " fixture trees report exactly their seeded findings\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr char kUsage[] =
      "usage: cmcheck --root DIR [--json] | cmcheck --self-test --root DIR\n";
  fs::path root;
  bool self_test = false, json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else {
      std::cout << kUsage;
      return 2;
    }
  }
  if (root.empty()) {
    std::cout << kUsage;
    return 2;
  }
  if (self_test) return SelfTest(root);
  return Run(root, json, std::cout);
}
