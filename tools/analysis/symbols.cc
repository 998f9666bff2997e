#include "analysis/symbols.h"

#include <algorithm>
#include <cctype>
#include <regex>

#include "analysis/text.h"

namespace analysis {
namespace {

std::string Trim(const std::string& s) {
  const size_t b = s.find_first_not_of(" \t\n\r");
  if (b == std::string::npos) return "";
  const size_t e = s.find_last_not_of(" \t\n\r");
  return s.substr(b, e - b + 1);
}

std::string CollapseSpaces(const std::string& s) {
  std::string out;
  bool pending_space = false;
  for (const char c : s) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      pending_space = true;
      continue;
    }
    if (pending_space && !out.empty()) out += ' ';
    pending_space = false;
    out += c;
  }
  return out;
}

bool ContainsWord(const std::string& text, const std::string& word) {
  return FindWord(text, word) != std::string::npos;
}

bool IsKeywordToken(const std::string& t) {
  static const std::set<std::string> kKeywords = {
      "const",    "constexpr", "static",       "mutable",   "inline",
      "virtual",  "volatile",  "override",     "final",     "noexcept",
      "delete",   "default",   "try",          "public",    "private",
      "protected", "operator", "return",       "new",       "throw",
      "case",     "goto",      "else",         "if",        "while",
      "for",      "do",        "switch",       "using",     "typedef",
      "friend",   "template",  "typename",     "class",     "struct",
      "enum",     "union",     "explicit",     "thread_local", "alignas",
      "co_return", "co_await", "co_yield",     "sizeof",    "void",
      "int",      "bool",      "char",         "float",     "double",
      "auto",     "unsigned",  "signed",       "long",      "short",
  };
  return kKeywords.count(t) > 0;
}

/// Tokens that may precede a '[' that is still a lambda introducer.
bool IsLambdaContextKeyword(const std::string& t) {
  static const std::set<std::string> kOk = {"return",    "case",  "throw",
                                            "co_return", "co_yield", "delete",
                                            "new"};
  return kOk.count(t) > 0;
}

/// Type-qualifier tokens that do not by themselves name a type.
bool IsTypeQualifier(const std::string& t) {
  static const std::set<std::string> kQual = {
      "const",  "constexpr", "static",      "mutable", "volatile",
      "inline", "extern",    "thread_local"};
  return kQual.count(t) > 0;
}

/// Tokens whose presence left of a name proves the occurrence is an
/// expression, not a declaration.
bool IsBannedDeclToken(const std::string& t) {
  static const std::set<std::string> kBanned = {
      "return", "new",   "delete", "throw",     "case",     "goto",
      "else",   "sizeof", "typedef", "co_return", "co_await", "co_yield"};
  return kBanned.count(t) > 0;
}

/// Finds a method-signature '(' in `stmt`: the first paren group outside
/// template arguments whose preceding token is a plain identifier that is
/// neither a keyword nor a CM_ annotation macro. Returns the offset of the
/// '(' in `stmt` (npos when none) and the method name via `name_out`
/// (prefixed '~' for destructors). Statements containing `operator`
/// count as having a signature with an empty name.
size_t FindMethodSig(const std::string& stmt, std::string* name_out) {
  if (ContainsWord(stmt, "operator")) {
    if (name_out) name_out->clear();
    return stmt.find('(') == std::string::npos ? 0 : stmt.find('(');
  }
  int tdepth = 0;
  for (size_t i = 0; i < stmt.size(); ++i) {
    const char c = stmt[i];
    if (c == '<') {
      ++tdepth;
    } else if (c == '>') {
      if (tdepth > 0) --tdepth;
    } else if (c == '(' && tdepth == 0) {
      const size_t p = i == 0 ? std::string::npos : PrevNonSpace(stmt, i);
      if (p == std::string::npos || !IsIdentChar(stmt[p])) continue;
      size_t b = p;
      while (b > 0 && IsIdentChar(stmt[b - 1])) --b;
      const std::string tok = stmt.substr(b, p - b + 1);
      if (IsKeywordToken(tok)) continue;
      if (tok.rfind("CM_", 0) == 0) {
        const size_t e = MatchingParen(stmt, i);
        if (e == std::string::npos) return std::string::npos;
        i = e;
        continue;
      }
      const size_t before =
          b == 0 ? std::string::npos : PrevNonSpace(stmt, b);
      const bool tilde = before != std::string::npos && stmt[before] == '~';
      if (name_out) *name_out = (tilde ? "~" : "") + tok;
      return i;
    }
  }
  return std::string::npos;
}

/// Strips `public:` / `protected:` / `private:` access labels.
std::string StripAccessLabels(const std::string& stmt) {
  static const std::regex kLabel(R"(\b(public|protected|private)\s*:)");
  return std::regex_replace(stmt, kLabel, " ");
}

/// True when the statement opens a nested type or other non-field
/// construct the field walker must ignore.
bool IsNonFieldStatement(const std::string& stmt) {
  static const char* kStarters[] = {"using",  "typedef", "friend",
                                    "static_assert", "template", "enum",
                                    "class",  "struct",  "union"};
  for (const char* w : kStarters) {
    if (ContainsWord(stmt, w)) return true;
  }
  return ContainsWord(stmt, "operator");
}

/// Extracts the argument of CM_GUARDED_BY/CM_PT_GUARDED_BY from `stmt`
/// (empty when absent).
std::string ExtractGuardedBy(const std::string& stmt) {
  static const std::regex kGuard(R"(\bCM(?:_PT)?_GUARDED_BY\s*\()");
  std::smatch m;
  if (!std::regex_search(stmt, m, kGuard)) return "";
  const size_t open = static_cast<size_t>(m.position(0)) + m.length(0) - 1;
  const size_t close = MatchingParen(stmt, open);
  if (close == std::string::npos) return "";
  return Trim(stmt.substr(open + 1, close - open - 1));
}

/// Removes every `CM_*` annotation macro (with optional argument list)
/// from `stmt`.
std::string StripAnnotationMacros(const std::string& stmt) {
  std::string out = stmt;
  size_t pos = 0;
  while ((pos = out.find("CM_", pos)) != std::string::npos) {
    if (pos > 0 && IsIdentChar(out[pos - 1])) {
      pos += 3;
      continue;
    }
    size_t end = pos;
    while (end < out.size() && IsIdentChar(out[end])) ++end;
    size_t after = SkipWhitespace(out, end);
    if (after < out.size() && out[after] == '(') {
      const size_t close = MatchingParen(out, after);
      if (close != std::string::npos) after = close + 1;
      end = after;
    }
    out.erase(pos, end - pos);
  }
  return out;
}

/// Cuts `stmt` at the first top-level initializer ('=' not part of a
/// comparison, or a '{' brace init) or bitfield ':' marker.
std::string StripInitializer(const std::string& stmt) {
  int tdepth = 0;
  int pdepth = 0;
  for (size_t i = 0; i < stmt.size(); ++i) {
    const char c = stmt[i];
    if (c == '<') ++tdepth;
    if (c == '>' && tdepth > 0) --tdepth;
    if (c == '(') ++pdepth;
    if (c == ')' && pdepth > 0) --pdepth;
    if (tdepth != 0 || pdepth != 0) continue;
    if (c == '{') return stmt.substr(0, i);
    if (c == '=' && (i + 1 >= stmt.size() || stmt[i + 1] != '=') &&
        (i == 0 || std::string("=<>!+-*/%&|^").find(stmt[i - 1]) ==
                       std::string::npos)) {
      return stmt.substr(0, i);
    }
    if (c == ':' && (i + 1 >= stmt.size() || stmt[i + 1] != ':') &&
        (i == 0 || stmt[i - 1] != ':')) {
      return stmt.substr(0, i);
    }
  }
  return stmt;
}

/// Classifies a field declaration's flags from the text left of its name.
void ClassifyTypeText(const std::string& type, FieldInfo* field) {
  field->is_static = ContainsWord(type, "static");
  field->is_atomic = ContainsWord(type, "atomic");
  field->is_mutex = ContainsWord(type, "Mutex");
  if (ContainsWord(type, "constexpr")) {
    field->is_const = true;
  } else if (type.find('*') != std::string::npos) {
    static const std::regex kPtrConst(R"(\*\s*const\b)");
    field->is_const = std::regex_search(type, kPtrConst);
  } else {
    field->is_const = ContainsWord(type, "const");
  }
}

/// Processes one `;`-terminated class-body statement: records a field or a
/// method declaration's annotations on `cls`.
void ProcessFieldStatement(const std::string& text, size_t stmt_start,
                           const std::string& raw_stmt, ClassInfo* cls) {
  std::string stmt = Trim(StripAccessLabels(raw_stmt));
  if (stmt.empty()) return;
  if (IsNonFieldStatement(stmt)) return;

  std::string sig_name;
  const size_t sig = FindMethodSig(stmt, &sig_name);
  if (sig != std::string::npos) {
    if (sig_name.empty()) return;  // operator / unnamed: ignore
    const size_t close = MatchingParen(stmt, sig);
    const std::string anno =
        close == std::string::npos ? "" : Trim(stmt.substr(close + 1));
    std::string& slot = cls->decl_annotations[sig_name];
    if (!slot.empty()) slot += ' ';
    slot += anno;
    return;
  }

  FieldInfo field;
  field.guarded_by = ExtractGuardedBy(stmt);
  std::string decl = Trim(StripInitializer(StripAnnotationMacros(stmt)));
  while (!decl.empty() && decl.back() == ']') {
    const size_t open = decl.rfind('[');
    if (open == std::string::npos) break;
    decl = Trim(decl.substr(0, open));
  }
  if (decl.empty()) return;
  size_t name_end = decl.size();
  while (name_end > 0 && !IsIdentChar(decl[name_end - 1])) --name_end;
  size_t name_begin = name_end;
  while (name_begin > 0 && IsIdentChar(decl[name_begin - 1])) --name_begin;
  if (name_begin == name_end) return;
  field.name = decl.substr(name_begin, name_end - name_begin);
  if (IsKeywordToken(field.name) ||
      std::isdigit(static_cast<unsigned char>(field.name[0])) != 0) {
    return;
  }
  field.type = CollapseSpaces(decl.substr(0, name_begin));
  if (field.type.empty() ||
      field.type.find_first_of(
          "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_") ==
          std::string::npos) {
    return;
  }
  ClassifyTypeText(field.type, &field);
  const size_t rel_pos = FindWord(raw_stmt, field.name);
  field.line = LineOfOffset(
      text, stmt_start + (rel_pos == std::string::npos ? 0 : rel_pos));
  cls->fields.push_back(field);
}

/// Builds a MethodInfo for an inline definition whose statement prefix is
/// `stmt` and whose body braces sit at [body_begin, body_end] in `text`.
MethodInfo BuildInlineMethod(const std::string& text, size_t stmt_start,
                             const std::string& stmt, size_t body_begin,
                             size_t body_end, const std::string& rel,
                             const ClassInfo& cls) {
  MethodInfo method;
  std::string name;
  const size_t sig = FindMethodSig(stmt, &name);
  if (sig == std::string::npos || name.empty()) return method;
  method.owner = cls.name;
  method.name = name;
  method.file = rel;
  method.body_begin = body_begin;
  method.body_end = body_end;
  const size_t close = MatchingParen(stmt, sig);
  method.annotations =
      close == std::string::npos ? "" : Trim(stmt.substr(close + 1));
  method.is_structor = name == cls.name || name == "~" + cls.name;
  const std::string bare = name[0] == '~' ? name.substr(1) : name;
  const size_t rel_pos = FindWord(stmt, bare);
  method.line = LineOfOffset(
      text, stmt_start + (rel_pos == std::string::npos ? 0 : rel_pos));
  return method;
}

/// Walks the class body [body_begin+1, body_end), splitting statements on
/// top-level ';' and classifying each '{' as brace initializer, inline
/// method body, or skippable nested block.
void ParseClassBody(const SourceFile& file, ClassInfo* cls) {
  const std::string& text = file.stripped_text;
  size_t i = cls->body_begin + 1;
  size_t stmt_start = i;
  while (i < cls->body_end && i < text.size()) {
    const char c = text[i];
    if (c == '(') {
      const size_t e = MatchingParen(text, i);
      if (e == std::string::npos || e > cls->body_end) return;
      i = e + 1;
      continue;
    }
    if (c == '<') {
      const size_t e = SkipTemplateArgs(text, i);
      if (e != std::string::npos && e <= cls->body_end) {
        i = e;
      } else {
        ++i;
      }
      continue;
    }
    if (c == ';') {
      ProcessFieldStatement(text, stmt_start,
                            text.substr(stmt_start, i - stmt_start), cls);
      ++i;
      stmt_start = i;
      continue;
    }
    if (c == '{') {
      const size_t close = MatchingBrace(text, i);
      if (close == std::string::npos || close > cls->body_end) return;
      const std::string stmt = text.substr(stmt_start, i - stmt_start);
      const size_t last = PrevNonSpace(text, i);
      bool init_brace = false;
      if (last != std::string::npos && last >= stmt_start &&
          IsIdentChar(text[last])) {
        size_t b = last;
        while (b > stmt_start && IsIdentChar(text[b - 1])) --b;
        const std::string tok = text.substr(b, last - b + 1);
        if (!IsKeywordToken(tok)) init_brace = true;
      }
      if (init_brace) {
        // Member brace initializer (or a nested type the field pass will
        // reject): the statement continues past the group.
        i = close + 1;
        continue;
      }
      std::string name;
      if (FindMethodSig(stmt, &name) != std::string::npos && !name.empty()) {
        MethodInfo method =
            BuildInlineMethod(text, stmt_start, stmt, i, close, file.rel, *cls);
        if (!method.name.empty()) {
          std::string& slot = cls->decl_annotations[method.name];
          if (!slot.empty()) slot += ' ';
          slot += method.annotations;
          cls->methods.push_back(std::move(method));
        }
      }
      i = close + 1;
      stmt_start = i;
      continue;
    }
    ++i;
  }
}

}  // namespace

const FieldInfo* ClassInfo::FindField(const std::string& field_name) const {
  for (const FieldInfo& f : fields) {
    if (f.name == field_name) return &f;
  }
  return nullptr;
}

bool ClassInfo::OwnsMutex() const {
  for (const FieldInfo& f : fields) {
    if (f.is_mutex && !f.is_static) return true;
  }
  return false;
}

std::vector<std::string> ClassInfo::MutexFieldNames() const {
  std::vector<std::string> names;
  for (const FieldInfo& f : fields) {
    if (f.is_mutex && !f.is_static) names.push_back(f.name);
  }
  return names;
}

std::vector<ClassInfo> CollectClasses(const SourceFile& file) {
  const std::string& text = file.stripped_text;
  std::vector<ClassInfo> out;
  static const std::regex kClassRe(R"(\b(class|struct)\b)");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kClassRe);
       it != std::sregex_iterator(); ++it) {
    const size_t kw_pos = static_cast<size_t>(it->position(0));
    // `enum class` / `enum struct` introduce enumerations, not classes.
    const size_t before = PrevNonSpace(text, kw_pos);
    if (before != std::string::npos && IsIdentChar(text[before])) {
      size_t b = before;
      while (b > 0 && IsIdentChar(text[b - 1])) --b;
      if (text.substr(b, before - b + 1) == "enum") continue;
    }
    size_t i = kw_pos + it->length(0);
    std::string name;
    size_t name_pos = 0;
    bool is_definition = false;
    while (i < text.size()) {
      i = SkipWhitespace(text, i);
      if (i >= text.size()) break;
      const char c = text[i];
      if (c == '{') {
        is_definition = true;
        break;
      }
      if (c == ';') break;  // forward declaration
      if (c == ':') {
        if (i + 1 < text.size() && text[i + 1] == ':') {
          i += 2;
          name.clear();
          continue;
        }
        // Base clause: scan to the body '{' (or a ';' proving this was
        // not a definition after all).
        int tdepth = 0;
        while (i < text.size()) {
          const char d = text[i];
          if (d == '<') ++tdepth;
          if (d == '>' && tdepth > 0) --tdepth;
          if (d == '(') {
            const size_t e = MatchingParen(text, i);
            if (e == std::string::npos) {
              i = text.size();
              break;
            }
            i = e;
          }
          if (tdepth == 0 && (d == '{' || d == ';')) break;
          ++i;
        }
        continue;
      }
      if (c == '<') {
        const size_t e = SkipTemplateArgs(text, i);
        if (e == std::string::npos) break;
        i = e;
        continue;
      }
      if (IsIdentChar(c)) {
        size_t end = i;
        while (end < text.size() && IsIdentChar(text[end])) ++end;
        const std::string tok = text.substr(i, end - i);
        if (tok == "final") {
          i = end;
          continue;
        }
        const size_t after = SkipWhitespace(text, end);
        if (after < text.size() && text[after] == '(') {
          // Attribute-like macro, e.g. CM_CAPABILITY("mutex") or
          // alignas(64): skip its argument list.
          const size_t e = MatchingParen(text, after);
          if (e == std::string::npos) break;
          i = e + 1;
          continue;
        }
        name = tok;
        name_pos = i;
        i = end;
        continue;
      }
      break;  // anything else: not a definition context
    }
    if (!is_definition || name.empty()) continue;
    const size_t body_end = MatchingBrace(text, i);
    if (body_end == std::string::npos) continue;
    ClassInfo cls;
    cls.name = name;
    cls.file = file.rel;
    cls.line = LineOfOffset(text, name_pos);
    cls.body_begin = i;
    cls.body_end = body_end;
    ParseClassBody(file, &cls);
    out.push_back(std::move(cls));
  }
  return out;
}

std::vector<MethodInfo> CollectOutOfLineMethods(
    const SourceFile& file, const std::set<std::string>& class_names) {
  const std::string& text = file.stripped_text;
  std::vector<MethodInfo> out;
  static const std::regex kQualified(
      R"(([A-Za-z_]\w*)\s*::\s*(~?[A-Za-z_]\w*)\s*\()");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kQualified);
       it != std::sregex_iterator(); ++it) {
    const std::string owner = (*it)[1].str();
    if (class_names.count(owner) == 0) continue;
    const size_t open = static_cast<size_t>(it->position(0)) + it->length(0) - 1;
    const size_t params_close = MatchingParen(text, open);
    if (params_close == std::string::npos) continue;
    // Walk from the parameter list to the body '{', a ';' (declaration or
    // call statement), or an expression character proving this is a call.
    size_t i = params_close + 1;
    size_t body_begin = std::string::npos;
    bool in_init_list = false;
    while (i < text.size()) {
      i = SkipWhitespace(text, i);
      if (i >= text.size()) break;
      const char c = text[i];
      if (c == ';') break;
      if (c == '{') {
        if (in_init_list) {
          // A member brace initializer in the constructor init list is
          // preceded by the member's name; the body '{' is not.
          const size_t last = PrevNonSpace(text, i);
          if (last != std::string::npos && IsIdentChar(text[last])) {
            size_t b = last;
            while (b > 0 && IsIdentChar(text[b - 1])) --b;
            if (!IsKeywordToken(text.substr(b, last - b + 1))) {
              const size_t e = MatchingBrace(text, i);
              if (e == std::string::npos) break;
              i = e + 1;
              continue;
            }
          }
        }
        body_begin = i;
        break;
      }
      if (c == '(') {
        const size_t e = MatchingParen(text, i);
        if (e == std::string::npos) break;
        i = e + 1;
        continue;
      }
      if (c == ':') {
        if (i + 1 < text.size() && text[i + 1] == ':') {
          i += 2;
          continue;
        }
        in_init_list = true;
        ++i;
        continue;
      }
      if (c == ',' || IsIdentChar(c) || c == '&' || c == '<' || c == '>') {
        ++i;
        continue;
      }
      break;  // '=', '+', ')', '.', '[' ...: an expression, not a definition
    }
    if (body_begin == std::string::npos) continue;
    const size_t body_end = MatchingBrace(text, body_begin);
    if (body_end == std::string::npos) continue;
    MethodInfo method;
    method.owner = owner;
    method.name = (*it)[2].str();
    method.file = file.rel;
    method.line = LineOfOffset(text, static_cast<size_t>(it->position(0)));
    method.body_begin = body_begin;
    method.body_end = body_end;
    method.annotations =
        Trim(text.substr(params_close + 1, body_begin - params_close - 1));
    method.is_structor =
        method.name == owner || method.name == "~" + owner;
    out.push_back(std::move(method));
  }
  return out;
}

CaptureMode CaptureList::ModeOf(const std::string& name) const {
  const auto it = named.find(name);
  if (it != named.end()) return it->second;
  if (default_by_ref) return CaptureMode::kByRef;
  if (default_by_value) return CaptureMode::kByValue;
  return CaptureMode::kNone;
}

bool ParseCaptureList(const std::string& text, size_t open, CaptureList* out,
                      size_t* intro_end) {
  if (open >= text.size() || text[open] != '[') return false;
  if (open + 1 < text.size() && text[open + 1] == '[') return false;  // attr
  const size_t prev = PrevNonSpace(text, open);
  if (prev != std::string::npos) {
    const char p = text[prev];
    if (p == ')' || p == ']') return false;  // subscript on a result
    if (IsIdentChar(p)) {
      size_t b = prev;
      while (b > 0 && IsIdentChar(text[b - 1])) --b;
      if (!IsLambdaContextKeyword(text.substr(b, prev - b + 1))) return false;
    }
  }
  int bdepth = 0;
  size_t close = std::string::npos;
  for (size_t i = open; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '[') {
      ++bdepth;
    } else if (c == ']') {
      if (--bdepth == 0) {
        close = i;
        break;
      }
    } else if (c == '(') {
      const size_t e = MatchingParen(text, i);
      if (e == std::string::npos) return false;
      i = e;
    } else if (c == '{') {
      const size_t e = MatchingBrace(text, i);
      if (e == std::string::npos) return false;
      i = e;
    } else if (c == ';') {
      return false;
    }
  }
  if (close == std::string::npos) return false;
  const size_t after = SkipWhitespace(text, close + 1);
  if (after >= text.size()) return false;
  const char a = text[after];
  if (a != '(' && a != '{' && a != '<') return false;

  CaptureList parsed;
  const std::string inner = text.substr(open + 1, close - open - 1);
  size_t item_start = 0;
  int depth = 0;
  for (size_t i = 0; i <= inner.size(); ++i) {
    const char c = i < inner.size() ? inner[i] : ',';
    if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
    if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
    if (c != ',' || depth != 0) continue;
    std::string item = Trim(inner.substr(item_start, i - item_start));
    item_start = i + 1;
    if (item.empty()) continue;
    if (item == "&") {
      parsed.default_by_ref = true;
      continue;
    }
    if (item == "=") {
      parsed.default_by_value = true;
      continue;
    }
    if (item == "this") {
      parsed.named["this"] = CaptureMode::kByRef;
      continue;
    }
    if (item == "*this") {
      parsed.named["this"] = CaptureMode::kByValue;
      continue;
    }
    CaptureMode mode = CaptureMode::kByValue;
    if (item[0] == '&') {
      mode = CaptureMode::kByRef;
      item = Trim(item.substr(1));
    }
    // Init capture: the introduced name is the token left of '='.
    const size_t eq = item.find('=');
    if (eq != std::string::npos) item = Trim(item.substr(0, eq));
    size_t b = 0;
    while (b < item.size() && !IsIdentChar(item[b])) ++b;
    size_t e = b;
    while (e < item.size() && IsIdentChar(item[e])) ++e;
    if (e > b) parsed.named[item.substr(b, e - b)] = mode;
  }
  *out = parsed;
  if (intro_end) *intro_end = close + 1;
  return true;
}

DeclClass ClassifyDeclaration(const std::string& stripped_text,
                              const std::string& name) {
  DeclClass result;
  const std::string& text = stripped_text;
  size_t pos = 0;
  while ((pos = FindWord(text, name, pos)) != std::string::npos) {
    const size_t end = pos + name.size();
    const size_t nx = SkipWhitespace(text, end);
    const char nc = nx < text.size() ? text[nx] : '\0';
    const bool decl_shaped =
        (nc == '=' && !(nx + 1 < text.size() && text[nx + 1] == '=')) ||
        nc == '{' || nc == ';' || nc == ',' || nc == ')' || nc == '[' ||
        nc == '(';  // paren-init: `Type name(args);` — call sites are
                    // rejected below because no type prefix precedes them
    if (!decl_shaped) {
      pos = end;
      continue;
    }
    // Walk backward over a plausible type prefix.
    size_t i = pos;
    bool bad = false;
    bool has_type_ident = false;
    while (!bad) {
      const size_t p = PrevNonSpace(text, i);
      if (p == std::string::npos) break;
      const char c = text[p];
      if (c == '*' || c == '&') {
        i = p;
        continue;
      }
      if (c == ':' && p > 0 && text[p - 1] == ':') {
        i = p - 1;
        continue;
      }
      if (c == '>') {
        if (p > 0 && text[p - 1] == '-') {
          bad = true;  // '->': member access, not a type
          break;
        }
        int d = 0;
        size_t q = p + 1;
        bool matched = false;
        while (q > 0) {
          --q;
          if (text[q] == '>') ++d;
          else if (text[q] == '<') {
            if (--d == 0) {
              i = q;
              matched = true;
              break;
            }
          } else if (text[q] == ';' || text[q] == '{' || text[q] == '}') {
            break;
          }
        }
        if (!matched) bad = true;
        continue;
      }
      if (IsIdentChar(c)) {
        size_t b = p;
        while (b > 0 && IsIdentChar(text[b - 1])) --b;
        const std::string tok = text.substr(b, p - b + 1);
        if (IsBannedDeclToken(tok)) {
          bad = true;
          break;
        }
        if (!IsTypeQualifier(tok)) has_type_ident = true;
        i = b;
        continue;
      }
      break;  // statement boundary: ';', '{', '(', ',', '=', operators...
    }
    if (!bad && has_type_ident && i < pos) {
      const std::string prefix = text.substr(i, pos - i);
      result.found = true;
      if (!result.type.empty()) result.type += ' ';
      result.type += CollapseSpaces(prefix);
      result.is_atomic = result.is_atomic || ContainsWord(prefix, "atomic");
      result.is_mutex = result.is_mutex || ContainsWord(prefix, "Mutex");
      bool is_const = false;
      if (ContainsWord(prefix, "constexpr")) {
        is_const = true;
      } else if (prefix.find('*') != std::string::npos) {
        static const std::regex kPtrConst(R"(\*\s*const\b)");
        is_const = std::regex_search(prefix, kPtrConst);
      } else {
        is_const = ContainsWord(prefix, "const");
      }
      result.is_const = result.is_const || is_const;
    }
    pos = end;
  }
  return result;
}

namespace {

/// True when the line containing `pos` is a preprocessor directive — its
/// first non-blank character is '#'.
bool OnPreprocessorLine(const std::string& text, size_t pos) {
  size_t ls = text.rfind('\n', pos);
  ls = ls == std::string::npos ? 0 : ls + 1;
  while (ls < text.size() && (text[ls] == ' ' || text[ls] == '\t')) ++ls;
  return ls < text.size() && text[ls] == '#';
}

/// Walks backward from `pos` (the start of a name) over a plausible type
/// prefix: identifiers, `::` qualifiers, template argument lists, `*`/`&`.
/// Returns true when a declaration-shaped prefix with at least one
/// non-qualifier type identifier precedes the name; `*begin_out` is the
/// prefix start offset. The same walk ClassifyDeclaration performs, made
/// positional so scope-aware consumers can classify one occurrence.
bool TypePrefixBefore(const std::string& text, size_t pos, size_t* begin_out) {
  size_t i = pos;
  bool has_type_ident = false;
  while (true) {
    const size_t p = PrevNonSpace(text, i);
    if (p == std::string::npos) break;
    // `#include <string>` above a declaration must not read as a template
    // argument list: a directive line is never part of a type prefix.
    if (OnPreprocessorLine(text, p)) break;
    const char c = text[p];
    if (c == '*' || c == '&') {
      i = p;
      continue;
    }
    if (c == ':' && p > 0 && text[p - 1] == ':') {
      i = p - 1;
      continue;
    }
    if (c == '>') {
      if (p > 0 && text[p - 1] == '-') return false;  // '->': member access
      int d = 0;
      size_t q = p + 1;
      bool matched = false;
      while (q > 0) {
        --q;
        if (text[q] == '>') {
          ++d;
        } else if (text[q] == '<') {
          if (--d == 0) {
            i = q;
            matched = true;
            break;
          }
        } else if (text[q] == ';' || text[q] == '{' || text[q] == '}') {
          break;
        }
      }
      if (!matched) return false;
      continue;
    }
    if (IsIdentChar(c)) {
      size_t b = p;
      while (b > 0 && IsIdentChar(text[b - 1])) --b;
      const std::string tok = text.substr(b, p - b + 1);
      if (IsBannedDeclToken(tok)) return false;
      if (!IsTypeQualifier(tok)) has_type_ident = true;
      i = b;
      continue;
    }
    break;  // statement boundary: ';', '{', '(', ',', '=', operators...
  }
  if (!has_type_ident || i >= pos) return false;
  *begin_out = i;
  return true;
}

/// Last token of `collapsed` that is not a cv-qualifier or '&'/'*'
/// punctuation — the token ownership classification keys on.
bool EndsWithQualifierChain(const std::string& collapsed) {
  return collapsed.size() >= 2 &&
         collapsed.compare(collapsed.size() - 2, 2, "::") == 0;
}

}  // namespace

std::vector<LockScope> CollectLockScopes(const std::string& text, size_t begin,
                                         size_t end) {
  std::vector<LockScope> out;
  static const char* kGuardTypes[] = {"MutexLock", "lock_guard", "unique_lock",
                                      "scoped_lock"};
  const size_t limit = std::min(end, text.size());
  for (const char* guard : kGuardTypes) {
    size_t pos = begin;
    while ((pos = FindWord(text, guard, pos)) != std::string::npos) {
      const size_t tok_end = pos + std::string(guard).size();
      pos = tok_end;
      if (pos >= limit) break;
      size_t i = SkipWhitespace(text, tok_end);
      if (i < text.size() && text[i] == '<') {
        const size_t e = SkipTemplateArgs(text, i);
        if (e == std::string::npos) continue;
        i = SkipWhitespace(text, e);
      }
      // Guard variable name.
      size_t name_end = i;
      while (name_end < text.size() && IsIdentChar(text[name_end])) ++name_end;
      if (name_end == i) continue;
      i = SkipWhitespace(text, name_end);
      if (i >= text.size() || (text[i] != '(' && text[i] != '{')) continue;
      const size_t close = text[i] == '('
                               ? MatchingParen(text, i)
                               : MatchingBrace(text, i);
      if (close == std::string::npos) continue;
      LockScope scope;
      scope.arg = Trim(text.substr(i + 1, close - i - 1));
      // First identifier names the capability ('this->mu_' → skip 'this').
      static const std::regex kIdent(R"([A-Za-z_]\w*)");
      std::smatch m;
      std::string arg = scope.arg;
      while (std::regex_search(arg, m, kIdent)) {
        if (m.str() != "this" && m.str() != "std" && m.str() != "addressof") {
          scope.mutex = m.str();
          break;
        }
        arg = m.suffix().str();
      }
      const size_t semi = text.find(';', close);
      if (semi == std::string::npos) continue;
      scope.line = LineOfOffset(text, tok_end - std::string(guard).size());
      scope.begin = semi + 1;
      scope.end = EnclosingScopeEnd(text, semi + 1);
      out.push_back(std::move(scope));
    }
  }
  // Deterministic order regardless of guard-type iteration.
  std::sort(out.begin(), out.end(),
            [](const LockScope& a, const LockScope& b) {
              return a.begin < b.begin;
            });
  return out;
}

// ---------------------------------------------------------------------------
// Lifetime model: ownership classification, function bodies, local scopes,
// move tracking, loop extents.
// ---------------------------------------------------------------------------

TypeOwnership ClassifyTypeOwnership(const std::string& type_text) {
  std::string t = CollapseSpaces(type_text);
  // Drop trailing cv-qualifiers so `char* const` classifies by the '*'.
  static const std::regex kTrailQual(R"(\s*\b(const|volatile)\s*$)");
  while (std::regex_search(t, kTrailQual)) {
    t = std::regex_replace(t, kTrailQual, "");
  }
  if (t.empty()) return TypeOwnership::kOwning;
  // Views by spelled name, at any nesting (`const std::string_view&` is
  // still a view of someone else's bytes).
  static const std::regex kView(R"(\b(\w*_view|[Ss]pan|StringPiece)\b)");
  if (std::regex_search(t, kView)) return TypeOwnership::kView;
  const size_t last = t.find_last_not_of(' ');
  const char back = t[last];
  if (back == '&') {
    if (last > 0 && t[last - 1] == '&') return TypeOwnership::kOwning;  // T&&
    return TypeOwnership::kReference;
  }
  if (back == '*') return TypeOwnership::kPointer;
  if (ContainsWord(t, "iterator") || ContainsWord(t, "const_iterator")) {
    return TypeOwnership::kIterator;
  }
  return TypeOwnership::kOwning;
}

bool IsViewLikeType(const std::string& type_text) {
  return ClassifyTypeOwnership(type_text) != TypeOwnership::kOwning;
}

const ParamInfo* FunctionInfo::FindParam(
    const std::string& param_name) const {
  for (const ParamInfo& p : params) {
    if (p.name == param_name) return &p;
  }
  return nullptr;
}

namespace {

/// Splits a parameter list's inner text on top-level ',' into ParamInfo
/// entries (typed name per item; empty and `void` items are skipped).
std::vector<ParamInfo> ParseParams(const std::string& inner) {
  std::vector<ParamInfo> out;
  int depth = 0;
  size_t item_start = 0;
  for (size_t i = 0; i <= inner.size(); ++i) {
    const char c = i < inner.size() ? inner[i] : ',';
    if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
    if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
    if (c != ',' || depth != 0) continue;
    std::string item = Trim(inner.substr(item_start, i - item_start));
    item_start = i + 1;
    if (item.empty() || item == "void") continue;
    const size_t eq = item.find('=');
    if (eq != std::string::npos) item = Trim(item.substr(0, eq));
    size_t e = item.size();
    while (e > 0 && !IsIdentChar(item[e - 1])) --e;
    size_t b = e;
    while (b > 0 && IsIdentChar(item[b - 1])) --b;
    if (b == e) continue;  // unnamed parameter
    ParamInfo param;
    param.name = item.substr(b, e - b);
    if (IsKeywordToken(param.name)) continue;  // `int`, `...`-adjacent
    param.type = CollapseSpaces(item.substr(0, b));
    if (param.type.empty()) continue;  // bare name: macro arg, not a param
    param.ownership = ClassifyTypeOwnership(param.type);
    out.push_back(std::move(param));
  }
  return out;
}

/// Keywords that look like function names at `name(` sites.
bool IsCallishKeyword(const std::string& name) {
  static const std::set<std::string> kExtra = {
      "catch", "static_assert", "decltype", "alignof", "defined", "assert"};
  return IsKeywordToken(name) || kExtra.count(name) > 0;
}

}  // namespace

std::vector<FunctionInfo> CollectFunctionDefs(const SourceFile& file,
                                              bool include_decls) {
  const std::string& text = file.stripped_text;
  std::vector<FunctionInfo> out;
  std::set<size_t> seen_bodies;
  static const std::regex kNameParen(R"((~?[A-Za-z_]\w*)\s*\()");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kNameParen);
       it != std::sregex_iterator(); ++it) {
    std::string name = (*it)[1].str();
    const std::string bare = name[0] == '~' ? name.substr(1) : name;
    if (IsCallishKeyword(bare)) continue;
    const size_t name_pos = static_cast<size_t>(it->position(1));
    const size_t open = static_cast<size_t>(it->position(0)) +
                        static_cast<size_t>(it->length(0)) - 1;
    const size_t params_close = MatchingParen(text, open);
    if (params_close == std::string::npos) continue;

    // Forward: annotations / init list / trailing return type, then '{'.
    size_t i = params_close + 1;
    size_t body_begin = std::string::npos;
    bool in_init_list = false;
    bool is_decl = false;
    while (i < text.size()) {
      i = SkipWhitespace(text, i);
      if (i >= text.size()) break;
      const char c = text[i];
      if (c == ';') {  // declaration, not a definition
        is_decl = !in_init_list;
        break;
      }
      if (c == '{') {
        if (in_init_list) {
          // Member brace initializer: preceded by the member's name.
          const size_t last = PrevNonSpace(text, i);
          if (last != std::string::npos && IsIdentChar(text[last])) {
            size_t b = last;
            while (b > 0 && IsIdentChar(text[b - 1])) --b;
            if (!IsKeywordToken(text.substr(b, last - b + 1))) {
              const size_t e = MatchingBrace(text, i);
              if (e == std::string::npos) break;
              i = e + 1;
              continue;
            }
          }
        }
        body_begin = i;
        break;
      }
      if (c == '(') {
        const size_t e = MatchingParen(text, i);
        if (e == std::string::npos) break;
        i = e + 1;
        continue;
      }
      if (c == ':') {
        if (i + 1 < text.size() && text[i + 1] == ':') {
          i += 2;
          continue;
        }
        in_init_list = true;
        ++i;
        continue;
      }
      if (c == '-' && i + 1 < text.size() && text[i + 1] == '>') {
        i += 2;  // trailing return type
        continue;
      }
      if (c == ',' || IsIdentChar(c) || c == '&' || c == '<' || c == '>' ||
          c == '*') {
        ++i;
        continue;
      }
      break;  // expression character: a call, not a definition
    }
    size_t body_end = std::string::npos;
    if (body_begin == std::string::npos) {
      if (!include_decls || !is_decl) continue;
      if (!seen_bodies.insert(open).second) continue;
    } else {
      body_end = MatchingBrace(text, body_begin);
      if (body_end == std::string::npos) continue;
      if (!seen_bodies.insert(body_begin).second) continue;
    }

    // Backward: `Owner::` qualification, then the return type prefix.
    std::string owner;
    size_t back_from = name_pos;
    const size_t p = PrevNonSpace(text, name_pos);
    if (p != std::string::npos && p > 0 && text[p] == ':' &&
        text[p - 1] == ':') {
      size_t q = PrevNonSpace(text, p - 1);
      if (q == std::string::npos) continue;
      if (text[q] == '>') {
        // `Owner<T>::Name`: hop the template argument list.
        int d = 0;
        size_t r = q + 1;
        bool matched = false;
        while (r > 0) {
          --r;
          if (text[r] == '>') {
            ++d;
          } else if (text[r] == '<') {
            if (--d == 0) {
              matched = true;
              break;
            }
          } else if (text[r] == ';' || text[r] == '{' || text[r] == '}') {
            break;
          }
        }
        if (!matched) continue;
        q = PrevNonSpace(text, r);
        if (q == std::string::npos) continue;
      }
      if (!IsIdentChar(text[q])) continue;
      size_t b = q;
      while (b > 0 && IsIdentChar(text[b - 1])) --b;
      owner = text.substr(b, q - b + 1);
      back_from = b;
    }
    std::string return_type;
    size_t type_begin = 0;
    if (TypePrefixBefore(text, back_from, &type_begin)) {
      return_type =
          CollapseSpaces(Trim(text.substr(type_begin, back_from - type_begin)));
    }
    const bool is_structor =
        !owner.empty() && (name == owner || name == "~" + owner);
    // Macro-invocation bodies (TEST(...) {}) and constructors inside class
    // bodies carry no return type; only owner-qualified structors pass.
    if (return_type.empty() && !is_structor) continue;
    if (EndsWithQualifierChain(return_type)) continue;  // `ns::Fn(...)` call

    FunctionInfo fn;
    fn.name = std::move(name);
    fn.owner = std::move(owner);
    fn.return_type = is_structor ? "" : return_type;
    fn.file = file.rel;
    fn.line = LineOfOffset(text, name_pos);
    fn.params_begin = open;
    fn.params_end = params_close;
    fn.body_begin = body_begin;
    fn.body_end = body_end;
    const std::string inner = text.substr(open + 1, params_close - open - 1);
    fn.params = ParseParams(inner);
    if (!fn.has_body() && fn.params.empty()) {
      // A paren-initialized variable (`std::vector<int> xs(3, 1);`) is
      // indistinguishable from a prototype by shape alone; a declaration
      // must spell a typed parameter list (or an empty/`void` one).
      const std::string t = Trim(inner);
      if (!t.empty() && t != "void") continue;
    }
    out.push_back(std::move(fn));
  }
  return out;
}

std::vector<LocalVar> CollectLocalVars(const std::string& text, size_t begin,
                                       size_t end) {
  std::vector<LocalVar> out;
  const size_t limit = std::min(end, text.size());
  const std::string body = text.substr(begin, limit - begin);
  static const std::regex kCandidate(R"(([A-Za-z_]\w*)\s*([={(;]))");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), kCandidate);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1].str();
    if (IsKeywordToken(name)) continue;
    const size_t name_pos = begin + static_cast<size_t>(it->position(1));
    const char decl_char = (*it)[2].str()[0];
    if (decl_char == '=') {
      const size_t eq = begin + static_cast<size_t>(it->position(2));
      if (eq + 1 < text.size() && text[eq + 1] == '=') continue;  // '=='
    }
    size_t type_begin = 0;
    if (!TypePrefixBefore(text, name_pos, &type_begin)) continue;
    const std::string type =
        CollapseSpaces(Trim(text.substr(type_begin, name_pos - type_begin)));
    // `ns::Fn(x)` — a qualified call, not a declaration.
    if (EndsWithQualifierChain(type)) continue;
    if (type_begin < begin) continue;  // prefix crosses the scope boundary
    LocalVar var;
    var.name = name;
    var.type = type;
    var.decl_offset = name_pos;
    var.scope_end = EnclosingScopeEnd(text, name_pos);
    var.is_static =
        ContainsWord(type, "static") || ContainsWord(type, "thread_local");
    var.ownership = ClassifyTypeOwnership(type);
    out.push_back(std::move(var));
  }
  return out;
}

std::vector<MoveUse> CollectMoves(const std::string& text, size_t begin,
                                  size_t end) {
  std::vector<MoveUse> out;
  const size_t limit = std::min(end, text.size());
  const std::string body = text.substr(begin, limit - begin);
  static const std::regex kMove(
      R"(\b(?:std\s*::\s*)?move\s*\(\s*([A-Za-z_]\w*)\s*\))");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), kMove);
       it != std::sregex_iterator(); ++it) {
    const size_t match_pos = begin + static_cast<size_t>(it->position(0));
    // Reject member calls spelled `x.move(...)` / `x->move(...)`.
    if (match_pos > 0) {
      const char prev = text[match_pos - 1];
      if (prev == '.' || prev == ':' ||
          (prev == '>' && match_pos >= 2 && text[match_pos - 2] == '-')) {
        continue;
      }
    }
    MoveUse mv;
    mv.name = (*it)[1].str();
    mv.offset = match_pos;
    mv.end = begin + static_cast<size_t>(it->position(0)) +
             static_cast<size_t>(it->length(0));
    out.push_back(std::move(mv));
  }
  return out;
}

std::vector<LoopRange> CollectLoopRanges(const std::string& text, size_t begin,
                                         size_t end) {
  std::vector<LoopRange> out;
  const size_t limit = std::min(end, text.size());
  const std::string body = text.substr(begin, limit - begin);
  static const std::regex kLoop(R"(\b(for|while)\s*\()");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), kLoop);
       it != std::sregex_iterator(); ++it) {
    const size_t open = begin + static_cast<size_t>(it->position(0)) +
                        static_cast<size_t>(it->length(0)) - 1;
    const size_t close = MatchingParen(text, open);
    if (close == std::string::npos || close >= limit) continue;
    const size_t after = SkipWhitespace(text, close + 1);
    if (after < text.size() && text[after] == '{') {
      const size_t be = MatchingBrace(text, after);
      if (be != std::string::npos) out.push_back({after + 1, be});
    } else {
      const size_t semi = text.find(';', after);
      if (semi != std::string::npos) out.push_back({after, semi});
    }
  }
  static const std::regex kDo(R"(\bdo\b)");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), kDo);
       it != std::sregex_iterator(); ++it) {
    const size_t after = SkipWhitespace(
        text, begin + static_cast<size_t>(it->position(0)) + 2);
    if (after < text.size() && text[after] == '{') {
      const size_t be = MatchingBrace(text, after);
      if (be != std::string::npos && be < limit) out.push_back({after + 1, be});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const LoopRange& a, const LoopRange& b) {
              return a.begin < b.begin;
            });
  return out;
}

bool InAnyRange(const std::vector<LoopRange>& ranges, size_t offset) {
  for (const LoopRange& r : ranges) {
    if (offset >= r.begin && offset < r.end) return true;
  }
  return false;
}

}  // namespace analysis
