// Lightweight C++ symbol/field model for the static-analysis tools.
//
// The race rules need facts a single regex cannot carry: which classes own
// a Mutex, which fields carry CM_GUARDED_BY and with which capability, what
// a lambda's capture list says about a written name, whether a declaration
// is const / std::atomic. This module extracts those facts from the same
// stripped text the token rules scan — it is a token-level *model*, not a
// parser: good enough to cross-reference names within this codebase's
// style, and deliberately conservative where real C++ would need overload
// or template resolution.

#ifndef CROSSMODAL_TOOLS_ANALYSIS_SYMBOLS_H_
#define CROSSMODAL_TOOLS_ANALYSIS_SYMBOLS_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/source.h"

namespace analysis {

/// One data member of a class/struct.
struct FieldInfo {
  std::string name;
  std::string type;        ///< Declaration text left of the name.
  std::string guarded_by;  ///< CM_GUARDED_BY/CM_PT_GUARDED_BY arg, or empty.
  int line = 0;
  bool is_atomic = false;  ///< std::atomic<...>.
  bool is_const = false;   ///< Top-level const (const T* is not).
  bool is_mutex = false;   ///< Mutex, or a smart pointer to one.
  bool is_static = false;
};

/// One method with a body (inline in the class, or out-of-line).
struct MethodInfo {
  std::string owner;  ///< Class name.
  std::string name;
  std::string file;  ///< Root-relative path of the defining file.
  int line = 0;
  size_t body_begin = 0;  ///< Offset of '{' in the defining file's text.
  size_t body_end = 0;    ///< Offset of the matching '}'.
  /// Tokens between the parameter list's ')' and the body '{' (cv
  /// qualifiers, thread-safety annotations, a constructor's init list).
  std::string annotations;
  bool is_structor = false;  ///< Constructor or destructor.
};

/// One class/struct definition with its fields and inline methods.
struct ClassInfo {
  std::string name;
  std::string file;
  int line = 0;
  size_t body_begin = 0;  ///< Offset of the class body '{'.
  size_t body_end = 0;    ///< Offset of the matching '}'.
  std::vector<FieldInfo> fields;
  std::vector<MethodInfo> methods;  ///< Inline definitions only.
  /// Annotation text per method *declaration* seen in the class body (both
  /// `;`-terminated declarations and inline definitions), keyed by name —
  /// lets a rule see `CM_LOCKS_EXCLUDED(mu_)` on the header declaration of
  /// an out-of-line method.
  std::map<std::string, std::string> decl_annotations;

  const FieldInfo* FindField(const std::string& field_name) const;
  bool OwnsMutex() const;
  std::vector<std::string> MutexFieldNames() const;
};

/// Extracts every class/struct definition (with fields and inline methods)
/// from one file's stripped text. Nested local structs inside function
/// bodies register too; forward declarations do not.
std::vector<ClassInfo> CollectClasses(const SourceFile& file);

/// Out-of-line method definitions `Owner::Name(...) ... { ... }` for owners
/// in `class_names`.
std::vector<MethodInfo> CollectOutOfLineMethods(
    const SourceFile& file, const std::set<std::string>& class_names);

/// How a lambda capture list binds one outer name.
enum class CaptureMode {
  kNone,     ///< Not captured (and no default).
  kByValue,  ///< Copied: writes stay private to the closure.
  kByRef,    ///< Aliased: writes hit the enclosing scope's object.
};

/// Parsed lambda capture list.
struct CaptureList {
  bool default_by_ref = false;    ///< [&...]
  bool default_by_value = false;  ///< [=...]
  std::map<std::string, CaptureMode> named;  ///< Explicit captures.

  CaptureMode ModeOf(const std::string& name) const;
};

/// Parses the capture list whose '[' sits at `open` in `text`. Returns
/// false when the bracket is not a lambda introducer (array subscript,
/// attribute, designated initializer). On success `*intro_end` is the
/// offset just past the ']'.
bool ParseCaptureList(const std::string& text, size_t open, CaptureList* out,
                      size_t* intro_end);

/// Declaration classification of `name`, resolved by scanning every
/// declaration-shaped line of `stripped_text`. Name-level (not scoped):
/// when the same name is declared twice the flags are OR-ed, which keeps
/// the consumers conservative.
struct DeclClass {
  bool found = false;
  bool is_const = false;
  bool is_atomic = false;
  bool is_mutex = false;
  /// Concatenated declaration prefixes (type text) of every matching
  /// declaration, for callers that key on the spelled type.
  std::string type;
};
DeclClass ClassifyDeclaration(const std::string& stripped_text,
                              const std::string& name);

/// One `MutexLock guard(<arg>);` statement and the scope it protects.
struct LockScope {
  std::string arg;    ///< Raw text inside the constructor parens.
  std::string mutex;  ///< First identifier in `arg` ('&', '*', '.get()'
                      ///< stripped) — the capability's field/variable name.
  int line = 0;
  size_t begin = 0;  ///< Offset just past the declaration's ';'.
  size_t end = 0;    ///< Offset of the '}' closing the guarded scope.
};

/// Collects MutexLock scopes declared within [begin, end) of `text`.
std::vector<LockScope> CollectLockScopes(const std::string& text,
                                         size_t begin, size_t end);

// ---------------------------------------------------------------------------
// Lifetime model (life rules): function bodies, local scopes, view/ownership
// classification of spelled types, and std::move tracking. Token-level like
// everything above: good enough to cross-reference names within this
// codebase's style, conservative where real C++ would need full semantics.
// ---------------------------------------------------------------------------

/// Ownership classification of a spelled type, from its declaration text.
enum class TypeOwnership {
  kOwning,     ///< Value type that owns its storage (incl. smart pointers).
  kView,       ///< Non-owning view: string_view, span, *_view, *Ref.
  kReference,  ///< Lvalue reference (`T&`); rvalue refs classify kOwning.
  kPointer,    ///< Raw pointer.
  kIterator,   ///< Container iterator (spelled `iterator`).
};

/// Classifies the declaration text left of a name (`const std::string&`,
/// `std::string_view`, `const uint8_t*`, ...). Trailing cv-qualifiers are
/// ignored; `*` outranks `&` (`T*&` is a reference to pointer → kReference).
TypeOwnership ClassifyTypeOwnership(const std::string& type_text);

/// True when `type_text` names a type that can dangle: a view, reference,
/// pointer, or iterator — anything whose validity depends on other storage.
bool IsViewLikeType(const std::string& type_text);

/// One function parameter.
struct ParamInfo {
  std::string name;
  std::string type;  ///< Collapsed declaration text left of the name.
  TypeOwnership ownership = TypeOwnership::kOwning;
};

/// One function definition (free function or method, inline or out-of-line)
/// with its body extents — the scope unit the lifetime rules analyze.
struct FunctionInfo {
  std::string name;         ///< Unqualified name ('~'-prefixed dtors).
  std::string owner;        ///< Class for `Owner::Name` definitions, or "".
  std::string return_type;  ///< Collapsed text left of the name; "" for
                            ///< constructors/destructors.
  std::string file;         ///< Root-relative path of the defining file.
  int line = 0;
  size_t params_begin = 0;  ///< Offset of the parameter list's '('.
  size_t params_end = 0;    ///< Offset of the matching ')'.
  size_t body_begin = 0;    ///< Offset of the body '{'; npos for a
                            ///< declaration collected via `include_decls`.
  size_t body_end = 0;      ///< Offset of the matching '}'; npos likewise.
  std::vector<ParamInfo> params;

  const ParamInfo* FindParam(const std::string& param_name) const;
  bool has_body() const { return body_begin != std::string::npos; }
};

/// Extracts every function definition with a body from one file's stripped
/// text. Macro-invocation bodies (`TEST(X, Y) { ... }`) carry no return
/// type and are deliberately not collected; lambdas are handled separately
/// via ParseCaptureList. With `include_decls`, `;`-terminated prototypes
/// register too (body offsets npos) — that is how cross-file rules learn
/// the return type of a function another file merely declares.
std::vector<FunctionInfo> CollectFunctionDefs(const SourceFile& file,
                                              bool include_decls = false);

/// One local variable declaration inside a function body, with the scope
/// that bounds its lifetime.
struct LocalVar {
  std::string name;
  std::string type;        ///< Collapsed declaration text left of the name.
  size_t decl_offset = 0;  ///< Offset of the name in the scanned text.
  size_t scope_end = 0;    ///< Offset of the '}' closing the innermost
                           ///< enclosing scope (its lifetime end).
  bool is_static = false;  ///< static/thread_local: outlives the scope.
  TypeOwnership ownership = TypeOwnership::kOwning;
};

/// Collects local variable declarations within [begin, end) of `text`.
/// Qualified call statements (`ns::Fn(x)`) and multi-declarator tails are
/// conservatively skipped — consumers treat "not a known local" as "do not
/// flag".
std::vector<LocalVar> CollectLocalVars(const std::string& text, size_t begin,
                                       size_t end);

/// One `std::move(name)` consuming a named object.
struct MoveUse {
  std::string name;
  size_t offset = 0;  ///< Offset of the `std` (or bare `move`) token.
  size_t end = 0;     ///< Offset just past the closing ')'.
};

/// Collects `std::move(<identifier>)` sites within [begin, end). Member
/// moves (`std::move(a.b)`) are skipped — name-level tracking cannot tell
/// partial moves apart.
std::vector<MoveUse> CollectMoves(const std::string& text, size_t begin,
                                  size_t end);

/// Half-open body extent of one for/while/do loop.
struct LoopRange {
  size_t begin;
  size_t end;
};

/// Collects loop-body extents within [begin, end) of `text`. Linear text
/// order is not execution order inside a loop, so lifetime rules skip
/// events inside these ranges rather than reason about back-edges.
std::vector<LoopRange> CollectLoopRanges(const std::string& text, size_t begin,
                                         size_t end);

/// True when `offset` falls inside any of `ranges`.
bool InAnyRange(const std::vector<LoopRange>& ranges, size_t offset);

}  // namespace analysis

#endif  // CROSSMODAL_TOOLS_ANALYSIS_SYMBOLS_H_
