#include "analysis/findings.h"

#include <cctype>
#include <fstream>

namespace analysis {

std::set<std::string> LoadAllowlist(const std::filesystem::path& path,
                                    bool* ok) {
  std::set<std::string> allow;
  *ok = true;
  if (path.empty()) return allow;
  std::ifstream in(path);
  if (!in) {
    *ok = false;
    return allow;
  }
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    while (!line.empty() &&
           std::isspace(static_cast<unsigned char>(line.back()))) {
      line.pop_back();
    }
    if (!line.empty()) allow.insert(line);
  }
  return allow;
}

FilteredFindings ApplyAllowlist(const std::vector<Finding>& findings,
                                const std::set<std::string>& allow) {
  FilteredFindings out;
  std::set<std::string> used;
  for (const Finding& f : findings) {
    const std::string key = f.rule + ":" + f.file;
    if (allow.count(key) > 0) {
      ++out.suppressed;
      used.insert(key);
    } else {
      out.reported.push_back(f);
    }
  }
  for (const std::string& entry : allow) {
    if (used.count(entry) == 0) out.stale.push_back(entry);
  }
  return out;
}

void PrintFindings(const std::vector<Finding>& findings, std::ostream& out) {
  for (const Finding& f : findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
    if (!f.fix_hint.empty()) out << "  fix: " << f.fix_hint << "\n";
  }
}

namespace {
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}
}  // namespace

void PrintFindingsJson(const std::string& tool,
                       const std::vector<Finding>& findings,
                       std::ostream& out) {
  out << "{\n  \"tool\": \"" << JsonEscape(tool) << "\",\n  \"count\": "
      << findings.size() << ",\n  \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i == 0 ? "" : ",") << "\n    {\"rule\": \"" << JsonEscape(f.rule)
        << "\", \"file\": \"" << JsonEscape(f.file) << "\", \"line\": "
        << f.line << ", \"message\": \"" << JsonEscape(f.message)
        << "\", \"fix_hint\": \"" << JsonEscape(f.fix_hint) << "\"}";
  }
  out << (findings.empty() ? "" : "\n  ") << "]\n}\n";
}

}  // namespace analysis
