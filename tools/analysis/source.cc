#include "analysis/source.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "analysis/text.h"

namespace analysis {

namespace fs = std::filesystem;

bool ReadFileToString(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool LoadSourceFile(const fs::path& path, const std::string& rel,
                    SourceFile* out) {
  std::string text;
  if (!ReadFileToString(path, &text)) return false;
  out->path = path;
  out->rel = rel;
  out->is_header = path.extension() == ".h";
  out->raw_lines = SplitLines(text);
  out->stripped_text = StripCommentsAndStrings(text);
  out->stripped_lines = SplitLines(out->stripped_text);
  return true;
}

std::vector<fs::path> ListSourceFiles(const fs::path& root,
                                      const std::vector<std::string>& subdirs) {
  std::vector<fs::path> files;
  for (const std::string& subdir : subdirs) {
    const fs::path dir = root / subdir;
    if (!fs::is_directory(dir)) continue;
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
      // Fixture trees deliberately seed violations; they are inputs to the
      // analyzers' self-tests, not part of the tree under analysis.
      if (it->is_directory() && it->path().filename() == "testdata") {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      const auto ext = it->path().extension();
      if (ext == ".h" || ext == ".cc" || ext == ".cpp") {
        files.push_back(it->path());
      }
    }
  }
  std::sort(files.begin(), files.end(),
            [&root](const fs::path& a, const fs::path& b) {
              return fs::relative(a, root).generic_string() <
                     fs::relative(b, root).generic_string();
            });
  return files;
}

bool HasSuppressionNear(const std::vector<std::string>& raw_lines, int line,
                        const char* marker) {
  for (int l = line; l >= line - 1; --l) {
    if (l < 1 || static_cast<size_t>(l) > raw_lines.size()) continue;
    if (raw_lines[static_cast<size_t>(l - 1)].find(marker) !=
        std::string::npos) {
      return true;
    }
  }
  return false;
}

}  // namespace analysis
