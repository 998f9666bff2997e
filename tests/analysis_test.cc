// Unit tests for the tools/analysis/ library behind cmcheck: the symbol/
// field model the race and life families use (capture-list classification,
// class/field extraction with CM_GUARDED_BY cross-referencing, declaration
// classification, lock-scope discovery, suppression-marker parsing, the
// lifetime model's type ownership, function/local extraction, std::move and
// loop tracking), whole-word search, and the allowlist/report plumbing. The
// model is token-level by design; these tests pin the conventions it must
// understand in this codebase's style.

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/findings.h"
#include "analysis/source.h"
#include "analysis/symbols.h"
#include "analysis/text.h"
#include "gtest/gtest.h"

namespace {

using analysis::CaptureList;
using analysis::CaptureMode;
using analysis::ClassInfo;
using analysis::DeclClass;
using analysis::LockScope;
using analysis::SourceFile;

SourceFile MakeFile(const std::string& text) {
  SourceFile file;
  file.rel = "src/t.cc";
  file.stripped_text = analysis::StripCommentsAndStrings(text);
  file.raw_lines = analysis::SplitLines(text);
  return file;
}

// ---- ParseCaptureList ------------------------------------------------------

TEST(CaptureListTest, DefaultByRefAndExplicitCaptures) {
  const std::string text = "[&, total, &out, this](size_t i) {}";
  CaptureList caps;
  size_t end = 0;
  ASSERT_TRUE(analysis::ParseCaptureList(text, 0, &caps, &end));
  EXPECT_TRUE(caps.default_by_ref);
  EXPECT_EQ(caps.ModeOf("total"), CaptureMode::kByValue);
  EXPECT_EQ(caps.ModeOf("out"), CaptureMode::kByRef);
  EXPECT_EQ(caps.ModeOf("this"), CaptureMode::kByRef);
  EXPECT_EQ(caps.ModeOf("other"), CaptureMode::kByRef);  // via [&]
}

TEST(CaptureListTest, DefaultByValueAndStarThis) {
  const std::string text = "[=, *this](int x) {}";
  CaptureList caps;
  size_t end = 0;
  ASSERT_TRUE(analysis::ParseCaptureList(text, 0, &caps, &end));
  EXPECT_TRUE(caps.default_by_value);
  EXPECT_EQ(caps.ModeOf("this"), CaptureMode::kByValue);
  EXPECT_EQ(caps.ModeOf("anything"), CaptureMode::kByValue);
}

TEST(CaptureListTest, InitCaptureBindsTheIntroducedName) {
  const std::string text = "[n = items.size(), &dst = out](size_t) {}";
  CaptureList caps;
  size_t end = 0;
  ASSERT_TRUE(analysis::ParseCaptureList(text, 0, &caps, &end));
  EXPECT_EQ(caps.ModeOf("n"), CaptureMode::kByValue);
  EXPECT_EQ(caps.ModeOf("dst"), CaptureMode::kByRef);
  EXPECT_EQ(caps.ModeOf("items"), CaptureMode::kNone);
}

TEST(CaptureListTest, SubscriptAndAttributeAreNotIntroducers) {
  CaptureList caps;
  size_t end = 0;
  const std::string subscript = "xs[i] = 0;";
  EXPECT_FALSE(analysis::ParseCaptureList(subscript, 2, &caps, &end));
  const std::string attribute = "[[nodiscard]] int F();";
  EXPECT_FALSE(analysis::ParseCaptureList(attribute, 0, &caps, &end));
}

// ---- CollectClasses / field extraction -------------------------------------

TEST(CollectClassesTest, FieldsCarryTypeFlagsAndGuards) {
  const SourceFile file = MakeFile(
      "class Server {\n"
      " public:\n"
      "  void Start();\n"
      "\n"
      " private:\n"
      "  Mutex mu_;\n"
      "  std::unique_ptr<Mutex> stats_mu_;\n"
      "  std::vector<double> lat_ CM_GUARDED_BY(*stats_mu_);\n"
      "  std::atomic<long> hits_{0};\n"
      "  const int limit_ = 8;\n"
      "  static int instances_;\n"
      "  int epoch_ = 0;\n"
      "};\n");
  const std::vector<ClassInfo> classes = analysis::CollectClasses(file);
  ASSERT_EQ(classes.size(), 1u);
  const ClassInfo& cls = classes[0];
  EXPECT_EQ(cls.name, "Server");
  EXPECT_TRUE(cls.OwnsMutex());
  const std::vector<std::string> mutexes = cls.MutexFieldNames();
  ASSERT_EQ(mutexes.size(), 2u);
  EXPECT_EQ(mutexes[0], "mu_");
  EXPECT_EQ(mutexes[1], "stats_mu_");

  ASSERT_NE(cls.FindField("lat_"), nullptr);
  EXPECT_EQ(cls.FindField("lat_")->guarded_by, "*stats_mu_");
  ASSERT_NE(cls.FindField("hits_"), nullptr);
  EXPECT_TRUE(cls.FindField("hits_")->is_atomic);
  ASSERT_NE(cls.FindField("limit_"), nullptr);
  EXPECT_TRUE(cls.FindField("limit_")->is_const);
  ASSERT_NE(cls.FindField("instances_"), nullptr);
  EXPECT_TRUE(cls.FindField("instances_")->is_static);
  ASSERT_NE(cls.FindField("epoch_"), nullptr);
  EXPECT_TRUE(cls.FindField("epoch_")->guarded_by.empty());
  EXPECT_EQ(cls.FindField("Start"), nullptr);  // methods are not fields
}

TEST(CollectClassesTest, InlineMethodsAndDeclAnnotationsAreIndexed) {
  const SourceFile file = MakeFile(
      "struct Counter {\n"
      "  void Bump() CM_REQUIRES(mu_) { ++n_; }\n"
      "  void Reset() CM_LOCKS_EXCLUDED(mu_);\n"
      "  Mutex mu_;\n"
      "  int n_ CM_GUARDED_BY(mu_) = 0;\n"
      "};\n");
  const std::vector<ClassInfo> classes = analysis::CollectClasses(file);
  ASSERT_EQ(classes.size(), 1u);
  const ClassInfo& cls = classes[0];
  ASSERT_EQ(cls.methods.size(), 1u);
  EXPECT_EQ(cls.methods[0].name, "Bump");
  EXPECT_NE(cls.methods[0].annotations.find("CM_REQUIRES"),
            std::string::npos);
  ASSERT_EQ(cls.decl_annotations.count("Reset"), 1u);
  EXPECT_NE(cls.decl_annotations.at("Reset").find("CM_LOCKS_EXCLUDED"),
            std::string::npos);
}

TEST(CollectOutOfLineMethodsTest, FindsBodiesForNamedOwnersOnly) {
  const SourceFile file = MakeFile(
      "void Cache::Tick() {\n"
      "  n_ += 1;\n"
      "}\n"
      "void Other::Tock() {}\n"
      "int Cache::Peek() const { return n_; }\n");
  const std::vector<analysis::MethodInfo> methods =
      analysis::CollectOutOfLineMethods(file, {"Cache"});
  ASSERT_EQ(methods.size(), 2u);
  EXPECT_EQ(methods[0].owner, "Cache");
  EXPECT_EQ(methods[0].name, "Tick");
  EXPECT_EQ(methods[1].name, "Peek");
  EXPECT_GT(methods[0].body_end, methods[0].body_begin);
}

// ---- ClassifyDeclaration ---------------------------------------------------

TEST(ClassifyDeclarationTest, FlagsAtomicConstAndMutex) {
  const std::string text =
      "std::atomic<int> hits{0};\n"
      "const size_t limit = 8;\n"
      "Mutex mu;\n"
      "double plain = 0.0;\n"
      "std::string label(4, 'x');\n";
  EXPECT_TRUE(analysis::ClassifyDeclaration(text, "hits").is_atomic);
  EXPECT_TRUE(analysis::ClassifyDeclaration(text, "limit").is_const);
  EXPECT_TRUE(analysis::ClassifyDeclaration(text, "mu").is_mutex);
  const DeclClass plain = analysis::ClassifyDeclaration(text, "plain");
  EXPECT_TRUE(plain.found);
  EXPECT_FALSE(plain.is_const || plain.is_atomic || plain.is_mutex);
  // Paren-initialized locals classify as declarations too.
  EXPECT_TRUE(analysis::ClassifyDeclaration(text, "label").found);
}

TEST(ClassifyDeclarationTest, CallSitesAndMembersDoNotClassify) {
  const std::string text =
      "  Process(items);\n"
      "  obj.items = 3;\n"
      "  return items;\n";
  EXPECT_FALSE(analysis::ClassifyDeclaration(text, "items").found);
}

TEST(ClassifyDeclarationTest, PointerToConstIsNotTopLevelConst) {
  const std::string text = "const char* name = nullptr;\n";
  const DeclClass dc = analysis::ClassifyDeclaration(text, "name");
  ASSERT_TRUE(dc.found);
  EXPECT_FALSE(dc.is_const);  // the pointee is const, the pointer is not
}

// ---- CollectLockScopes -----------------------------------------------------

TEST(CollectLockScopesTest, ScopeRunsFromDeclToEnclosingBrace) {
  const std::string text =
      "void F() {\n"
      "  before = 1;\n"
      "  {\n"
      "    MutexLock lock(&mu_);\n"
      "    inside = 2;\n"
      "  }\n"
      "  after = 3;\n"
      "}\n";
  const std::vector<LockScope> scopes =
      analysis::CollectLockScopes(text, 0, text.size());
  ASSERT_EQ(scopes.size(), 1u);
  EXPECT_EQ(scopes[0].mutex, "mu_");
  const size_t inside = text.find("inside");
  const size_t after = text.find("after");
  EXPECT_GE(inside, scopes[0].begin);
  EXPECT_LT(inside, scopes[0].end);
  EXPECT_GE(after, scopes[0].end);
}

TEST(CollectLockScopesTest, SmartPointerGetResolvesToFieldName) {
  const std::string text =
      "void G() {\n"
      "  MutexLock lock(stats_mu_.get());\n"
      "  lat_.push_back(1.0);\n"
      "}\n";
  const std::vector<LockScope> scopes =
      analysis::CollectLockScopes(text, 0, text.size());
  ASSERT_EQ(scopes.size(), 1u);
  EXPECT_EQ(scopes[0].mutex, "stats_mu_");
}

// ---- ClassifyTypeOwnership -------------------------------------------------

TEST(TypeOwnershipTest, ViewsReferencesPointersIterators) {
  using analysis::ClassifyTypeOwnership;
  using analysis::TypeOwnership;
  EXPECT_EQ(ClassifyTypeOwnership("std::string_view"), TypeOwnership::kView);
  EXPECT_EQ(ClassifyTypeOwnership("absl::Span<const int>"),
            TypeOwnership::kView);
  EXPECT_EQ(ClassifyTypeOwnership("byte_view"), TypeOwnership::kView);
  EXPECT_EQ(ClassifyTypeOwnership("const std::string&"),
            TypeOwnership::kReference);
  EXPECT_EQ(ClassifyTypeOwnership("const uint8_t*"), TypeOwnership::kPointer);
  EXPECT_EQ(ClassifyTypeOwnership("std::vector<int>::iterator"),
            TypeOwnership::kIterator);
  // `*` outranks `&`: a reference to pointer is still a reference.
  EXPECT_EQ(ClassifyTypeOwnership("char*&"), TypeOwnership::kReference);
  // Rvalue references transfer ownership to the holder.
  EXPECT_EQ(ClassifyTypeOwnership("std::string&&"), TypeOwnership::kOwning);
  EXPECT_EQ(ClassifyTypeOwnership("std::vector<double>"),
            TypeOwnership::kOwning);
  EXPECT_EQ(ClassifyTypeOwnership("std::unique_ptr<Reader>"),
            TypeOwnership::kOwning);

  EXPECT_TRUE(analysis::IsViewLikeType("std::string_view"));
  EXPECT_TRUE(analysis::IsViewLikeType("const Row&"));
  EXPECT_FALSE(analysis::IsViewLikeType("std::string"));
}

// ---- CollectFunctionDefs ---------------------------------------------------

TEST(CollectFunctionDefsTest, BodiesCarryReturnTypeAndParamOwnership) {
  const SourceFile file = MakeFile(
      "std::string_view Label(const Config& cfg, std::string tag) {\n"
      "  return tag;\n"
      "}\n"
      "void Run() {}\n");
  const std::vector<analysis::FunctionInfo> fns =
      analysis::CollectFunctionDefs(file);
  ASSERT_EQ(fns.size(), 2u);
  EXPECT_EQ(fns[0].name, "Label");
  EXPECT_EQ(analysis::ClassifyTypeOwnership(fns[0].return_type),
            analysis::TypeOwnership::kView);
  ASSERT_EQ(fns[0].params.size(), 2u);
  EXPECT_EQ(fns[0].params[0].name, "cfg");
  EXPECT_EQ(fns[0].params[0].ownership, analysis::TypeOwnership::kReference);
  EXPECT_EQ(fns[0].params[1].name, "tag");
  EXPECT_EQ(fns[0].params[1].ownership, analysis::TypeOwnership::kOwning);
  EXPECT_TRUE(fns[0].has_body());
  EXPECT_GT(fns[0].body_end, fns[0].body_begin);
}

TEST(CollectFunctionDefsTest, DeclModeCollectsPrototypesNotStatements) {
  const SourceFile file = MakeFile(
      "std::string MakeLabel(int n);\n"
      "const Row& RowAt(size_t i);\n"
      "std::string label(4, 'x');\n"  // variable, not a prototype
      "void Consume() {\n"
      "  return Process(label);\n"  // call statement, not a declaration
      "}\n");
  const std::vector<analysis::FunctionInfo> defs =
      analysis::CollectFunctionDefs(file, /*include_decls=*/false);
  ASSERT_EQ(defs.size(), 1u);
  EXPECT_EQ(defs[0].name, "Consume");

  const std::vector<analysis::FunctionInfo> all =
      analysis::CollectFunctionDefs(file, /*include_decls=*/true);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].name, "MakeLabel");
  EXPECT_FALSE(all[0].has_body());
  EXPECT_EQ(all[1].name, "RowAt");
  EXPECT_EQ(analysis::ClassifyTypeOwnership(all[1].return_type),
            analysis::TypeOwnership::kReference);
  EXPECT_EQ(all[2].name, "Consume");
}

TEST(CollectFunctionDefsTest, ReturnTypeStopsAtPreprocessorLines) {
  // The backward type walk must not hop onto an #include line: the angle
  // brackets of `<string_view>` look like template arguments and would
  // classify the next function's return type as a view.
  const SourceFile file = MakeFile(
      "#include <string_view>\n"
      "std::string MakeLabel(int n) {\n"
      "  return std::to_string(n);\n"
      "}\n");
  const std::vector<analysis::FunctionInfo> fns =
      analysis::CollectFunctionDefs(file);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].name, "MakeLabel");
  EXPECT_EQ(fns[0].return_type.find("include"), std::string::npos);
  EXPECT_EQ(analysis::ClassifyTypeOwnership(fns[0].return_type),
            analysis::TypeOwnership::kOwning);
}

// ---- CollectLocalVars ------------------------------------------------------

TEST(CollectLocalVarsTest, ScopeEndsAtInnermostBraceAndStaticIsFlagged) {
  const std::string text =
      "{\n"
      "  std::string owned = Load();\n"
      "  {\n"
      "    std::string_view v = owned;\n"
      "  }\n"
      "  static std::string cache;\n"
      "  Process(owned);\n"
      "}\n";
  const std::vector<analysis::LocalVar> locals =
      analysis::CollectLocalVars(text, 1, text.size());
  ASSERT_EQ(locals.size(), 3u);
  EXPECT_EQ(locals[0].name, "owned");
  EXPECT_EQ(locals[0].ownership, analysis::TypeOwnership::kOwning);
  EXPECT_FALSE(locals[0].is_static);
  EXPECT_EQ(locals[1].name, "v");
  EXPECT_EQ(locals[1].ownership, analysis::TypeOwnership::kView);
  // The view's lifetime ends at the inner '}', before `static` appears.
  EXPECT_LT(locals[1].scope_end, text.find("static"));
  EXPECT_EQ(locals[2].name, "cache");
  EXPECT_TRUE(locals[2].is_static);
}

// ---- CollectMoves ----------------------------------------------------------

TEST(CollectMovesTest, PlainIdentifiersOnlyMemberMovesSkipped) {
  const std::string text =
      "  queue.push_back(std::move(request));\n"
      "  sink = std::move(holder.promise);\n"  // member move: skipped
      "  out = std::move (tmp);\n";
  const std::vector<analysis::MoveUse> moves =
      analysis::CollectMoves(text, 0, text.size());
  ASSERT_EQ(moves.size(), 2u);
  EXPECT_EQ(moves[0].name, "request");
  EXPECT_EQ(moves[1].name, "tmp");
  EXPECT_GT(moves[0].end, moves[0].offset);
}

// ---- CollectLoopRanges -----------------------------------------------------

TEST(CollectLoopRangesTest, LoopBodiesAreRangesStraightLineIsNot) {
  const std::string text =
      "{\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    acc += i;\n"
      "  }\n"
      "  while (Pending()) {\n"
      "    Drain();\n"
      "  }\n"
      "  tail = 1;\n"
      "}\n";
  const std::vector<analysis::LoopRange> ranges =
      analysis::CollectLoopRanges(text, 0, text.size());
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_TRUE(analysis::InAnyRange(ranges, text.find("acc")));
  EXPECT_TRUE(analysis::InAnyRange(ranges, text.find("Drain")));
  EXPECT_FALSE(analysis::InAnyRange(ranges, text.find("tail")));
}

// ---- Suppression parsing ---------------------------------------------------

TEST(SuppressionTest, MarkerOnLineOrLineAboveSuppresses) {
  const SourceFile file = MakeFile(
      "int a = 0;  // cmrace: shared-ok — joined before reads\n"
      "// cmrace: order-ok — release pairing documented here\n"
      "int b = 0;\n"
      "int c = 0;\n");
  EXPECT_TRUE(
      analysis::HasSuppressionNear(file.raw_lines, 1, "cmrace: shared-ok"));
  EXPECT_TRUE(
      analysis::HasSuppressionNear(file.raw_lines, 3, "cmrace: order-ok"));
  EXPECT_FALSE(
      analysis::HasSuppressionNear(file.raw_lines, 4, "cmrace: order-ok"));
  EXPECT_FALSE(
      analysis::HasSuppressionNear(file.raw_lines, 1, "cmrace: alloc-ok"));
}

// ---- FindWord --------------------------------------------------------------

TEST(FindWordTest, WholeWordsStartingBeforeTheLimit) {
  const std::string text = "newer new renew new";
  EXPECT_EQ(analysis::FindWord(text, "new"), 6u);
  EXPECT_EQ(analysis::FindWord(text, "new", 7), 16u);
  EXPECT_EQ(analysis::FindWord(text, "new", 7, 16), std::string::npos);
}

// ---- Allowlist and report plumbing -----------------------------------------

TEST(AllowlistTest, SkipsCommentsBlankLinesAndTrailingWhitespace) {
  const std::filesystem::path path =
      std::filesystem::path(testing::TempDir()) / "analysis_test_allow.txt";
  std::ofstream(path) << "# grandfathered exceptions\n"
                          "\n"
                          "   \n"
                          "banned-call:src/a.cc   # why\n"
                          "layering:src/b.h \t\r\n"
                          "# nodiscard:src/c.h\n";
  bool ok = false;
  const std::set<std::string> allow = analysis::LoadAllowlist(path, &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(allow, (std::set<std::string>{"banned-call:src/a.cc",
                                          "layering:src/b.h"}));
}

TEST(AllowlistTest, UnreadableFileFailsAndEmptyPathIsEmpty) {
  bool ok = true;
  EXPECT_TRUE(analysis::LoadAllowlist(
                  std::filesystem::path(testing::TempDir()) / "no_such.txt",
                  &ok)
                  .empty());
  EXPECT_FALSE(ok);
  EXPECT_TRUE(analysis::LoadAllowlist(std::filesystem::path(), &ok).empty());
  EXPECT_TRUE(ok);
}

TEST(AllowlistTest, CountsSuppressedFindingsAndListsStaleEntries) {
  const std::vector<analysis::Finding> findings = {
      {"banned-call", "src/a.cc", 3, "m", ""},
      {"banned-call", "src/a.cc", 9, "m", ""},
      {"layering", "src/b.h", 2, "m", ""},
  };
  const analysis::FilteredFindings out = analysis::ApplyAllowlist(
      findings, {"banned-call:src/a.cc", "nodiscard:src/c.h"});
  ASSERT_EQ(out.reported.size(), 1u);
  EXPECT_EQ(out.reported[0].rule, "layering");
  EXPECT_EQ(out.suppressed, 2u);
  EXPECT_EQ(out.stale, std::vector<std::string>{"nodiscard:src/c.h"});
}

TEST(ReportTest, TextPrintsFileLineRuleMessageAndFixLine) {
  std::ostringstream out;
  analysis::PrintFindings({{"layering", "src/g.cc", 4, "up", "move it"},
                           {"include-guard", "src/a.h", 1, "no guard", ""}},
                          out);
  EXPECT_EQ(out.str(),
            "src/g.cc:4: [layering] up\n  fix: move it\n"
            "src/a.h:1: [include-guard] no guard\n");
}

TEST(ReportTest, JsonEscapesQuotesBackslashesAndControlCharacters) {
  std::ostringstream out;
  analysis::PrintFindingsJson(
      "cmcheck",
      {{"r", "src/a.cc", 7, "say \"hi\" \\ now\n\tx\x01\x1f", "fix \"it\""}},
      out);
  EXPECT_EQ(out.str(),
            "{\n  \"tool\": \"cmcheck\",\n  \"count\": 1,\n  \"findings\": [\n"
            "    {\"rule\": \"r\", \"file\": \"src/a.cc\", \"line\": 7, "
            "\"message\": \"say \\\"hi\\\" \\\\ now\\n\\tx\\u0001\\u001f\", "
            "\"fix_hint\": \"fix \\\"it\\\"\"}\n  ]\n}\n");

  std::ostringstream empty;
  analysis::PrintFindingsJson("cmcheck", {}, empty);
  EXPECT_EQ(empty.str(),
            "{\n  \"tool\": \"cmcheck\",\n  \"count\": 0,\n  \"findings\": []\n"
            "}\n");
}

}  // namespace
