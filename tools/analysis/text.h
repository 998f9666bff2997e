// Token-level C++ text utilities shared by the cmcheck rule families
// (tools/cmcheck/) and the analysis library itself.
//
// None of this is a real parser: the tools work on "stripped" text where
// comments and string/char literals are blanked to spaces (layout
// preserved), which is exactly enough for token rules to avoid firing on
// documentation or log strings while keeping line/column arithmetic
// trivial.

#ifndef CROSSMODAL_TOOLS_ANALYSIS_TEXT_H_
#define CROSSMODAL_TOOLS_ANALYSIS_TEXT_H_

#include <cstddef>
#include <string>
#include <vector>

namespace analysis {

/// Returns `text` with comments and string/char literals blanked to
/// spaces. Line count and column positions are preserved, so offsets into
/// the result map 1:1 onto the original.
std::string StripCommentsAndStrings(const std::string& text);

/// Splits on '\n' (no trailing empty line for a terminating newline).
std::vector<std::string> SplitLines(const std::string& text);

/// Line number (1-based) of a character offset into `text`.
int LineOfOffset(const std::string& text, size_t offset);

/// Offset of the brace matching the '{' at `open` in `text`, or npos when
/// unbalanced.
size_t MatchingBrace(const std::string& text, size_t open);

/// End of the scope enclosing offset `from`: walks forward and returns the
/// offset of the '}' that closes the block `from` lives in (or text.size()
/// when `from` is at namespace/file depth).
size_t EnclosingScopeEnd(const std::string& text, size_t from);

/// Offset of the ')' matching the '(' at `open` in `text`, or npos.
size_t MatchingParen(const std::string& text, size_t open);

/// Offset just past the '>' closing the template list opened at `open`
/// (offset of '<'), handling nesting; npos when unbalanced or when a ';'
/// intervenes (the statement ended: not a template list).
size_t SkipTemplateArgs(const std::string& text, size_t open);

/// True when `c` can appear in a C++ identifier.
bool IsIdentChar(char c);

/// Offset of the first whole-word occurrence of `word` starting in
/// text[from, limit), or npos.
size_t FindWord(const std::string& text, const std::string& word,
                size_t from = 0, size_t limit = std::string::npos);

/// Offset of the first non-whitespace character at or after `pos`, or
/// text.size().
size_t SkipWhitespace(const std::string& text, size_t pos);

/// Offset of the last non-whitespace character strictly before `pos`, or
/// npos when none exists.
size_t PrevNonSpace(const std::string& text, size_t pos);

}  // namespace analysis

#endif  // CROSSMODAL_TOOLS_ANALYSIS_TEXT_H_
