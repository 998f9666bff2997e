// bench_compare — diff two BenchReporter JSON files and gate regressions.
//
//   bench_compare --validate FILE
//       Parses FILE and checks the BenchReporter schema (name, git_sha,
//       stages[] with stage/wall_ms/threads/entities/seed, plus an optional
//       numeric "metric" per stage). Exit 0 iff valid.
//
//   bench_compare [--threshold F] BASE NEW
//       Matches stages between the two files by (stage, threads, entities)
//       and prints the wall-ms ratio NEW/BASE per stage. Exit 1 if any
//       matched stage regressed past the threshold (default 1.25 = 25%
//       slower); stages present on only one side are reported but do not
//       fail the run (benchmarks come and go across commits).
//
//   bench_compare --min-speedup STAGE=FLOOR [--min-speedup ...] FILE
//       Gates a host-independent quantity of one file: for each named
//       STAGE and each of its entity counts, the speedup wall_ms(1 thread)
//       / wall_ms(N threads) must be at least FLOOR, where N is the one
//       thread count above 1 in that stage's rows (the run's
//       CM_BENCH_THREADS). Exit 1 if any speedup is below its floor, or if
//       a gated stage has no rows, or an entity count lacks its 1-thread
//       row or has no or more than one row with threads > 1.
//
// The parser is a deliberately small recursive-descent JSON reader — enough
// for the subset BenchReporter emits plus ordinary whitespace — so the tool
// needs no third-party dependency.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---- Minimal JSON value + parser. -----------------------------------------

struct JsonValue;
using JsonValuePtr = std::unique_ptr<JsonValue>;

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValuePtr> array;
  std::vector<std::pair<std::string, JsonValuePtr>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return v.get();
    }
    return nullptr;
  }
};

/// Recursive-descent parser over the raw text. On error, `error` holds a
/// message with the byte offset and Parse() returns nullptr.
class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  JsonValuePtr Parse() {
    JsonValuePtr value = ParseValue();
    if (value == nullptr) return nullptr;
    SkipSpace();
    if (pos_ != text_.size()) {
      Fail("trailing content after top-level value");
      return nullptr;
    }
    return value;
  }

  const std::string& error() const { return error_; }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void Fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at byte " + std::to_string(pos_);
    }
  }

  JsonValuePtr ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
      return nullptr;
    }
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseKeyword();
    if (c == 'n') return ParseKeyword();
    return ParseNumber();
  }

  JsonValuePtr ParseObject() {
    if (!Consume('{')) {
      Fail("expected '{'");
      return nullptr;
    }
    auto value = std::make_unique<JsonValue>();
    value->kind = JsonValue::Kind::kObject;
    if (Consume('}')) return value;
    while (true) {
      JsonValuePtr key = ParseString();
      if (key == nullptr) return nullptr;
      if (!Consume(':')) {
        Fail("expected ':' after object key");
        return nullptr;
      }
      JsonValuePtr member = ParseValue();
      if (member == nullptr) return nullptr;
      value->object.emplace_back(key->str, std::move(member));
      if (Consume(',')) continue;
      if (Consume('}')) return value;
      Fail("expected ',' or '}' in object");
      return nullptr;
    }
  }

  JsonValuePtr ParseArray() {
    if (!Consume('[')) {
      Fail("expected '['");
      return nullptr;
    }
    auto value = std::make_unique<JsonValue>();
    value->kind = JsonValue::Kind::kArray;
    if (Consume(']')) return value;
    while (true) {
      JsonValuePtr element = ParseValue();
      if (element == nullptr) return nullptr;
      value->array.push_back(std::move(element));
      if (Consume(',')) continue;
      if (Consume(']')) return value;
      Fail("expected ',' or ']' in array");
      return nullptr;
    }
  }

  JsonValuePtr ParseString() {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      Fail("expected string");
      return nullptr;
    }
    ++pos_;
    auto value = std::make_unique<JsonValue>();
    value->kind = JsonValue::Kind::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          default:
            Fail(std::string("unsupported escape '\\") + esc + "'");
            return nullptr;
        }
      }
      value->str += c;
    }
    if (pos_ >= text_.size()) {
      Fail("unterminated string");
      return nullptr;
    }
    ++pos_;  // closing quote
    return value;
  }

  JsonValuePtr ParseKeyword() {
    auto match = [this](const char* word) {
      const size_t len = std::strlen(word);
      if (text_.compare(pos_, len, word) != 0) return false;
      pos_ += len;
      return true;
    };
    auto value = std::make_unique<JsonValue>();
    if (match("true")) {
      value->kind = JsonValue::Kind::kBool;
      value->boolean = true;
      return value;
    }
    if (match("false")) {
      value->kind = JsonValue::Kind::kBool;
      return value;
    }
    if (match("null")) return value;
    Fail("unknown keyword");
    return nullptr;
  }

  JsonValuePtr ParseNumber() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      Fail("expected a value");
      return nullptr;
    }
    auto value = std::make_unique<JsonValue>();
    value->kind = JsonValue::Kind::kNumber;
    char* end = nullptr;
    value->number = std::strtod(text_.c_str() + start, &end);
    if (end != text_.c_str() + pos_) {
      Fail("malformed number");
      return nullptr;
    }
    return value;
  }

  std::string text_;
  size_t pos_ = 0;
  std::string error_;
};

// ---- BenchReporter schema. ------------------------------------------------

struct BenchStage {
  std::string stage;
  double wall_ms = 0.0;
  long threads = 1;
  long entities = 0;
  unsigned long long seed = 0;
};

struct BenchFile {
  std::string name;
  std::string git_sha;
  std::vector<BenchStage> stages;
};

bool LoadBenchFile(const std::string& path, BenchFile* out,
                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  JsonParser parser(buffer.str());
  JsonValuePtr root = parser.Parse();
  if (root == nullptr) {
    *error = path + ": " + parser.error();
    return false;
  }
  if (root->kind != JsonValue::Kind::kObject) {
    *error = path + ": top level is not an object";
    return false;
  }
  const JsonValue* name = root->Find("name");
  const JsonValue* sha = root->Find("git_sha");
  const JsonValue* stages = root->Find("stages");
  if (name == nullptr || name->kind != JsonValue::Kind::kString) {
    *error = path + ": missing string key \"name\"";
    return false;
  }
  if (sha == nullptr || sha->kind != JsonValue::Kind::kString) {
    *error = path + ": missing string key \"git_sha\"";
    return false;
  }
  if (stages == nullptr || stages->kind != JsonValue::Kind::kArray) {
    *error = path + ": missing array key \"stages\"";
    return false;
  }
  out->name = name->str;
  out->git_sha = sha->str;
  for (size_t i = 0; i < stages->array.size(); ++i) {
    const JsonValue& entry = *stages->array[i];
    if (entry.kind != JsonValue::Kind::kObject) {
      *error = path + ": stages[" + std::to_string(i) + "] is not an object";
      return false;
    }
    auto require = [&](const char* key,
                       JsonValue::Kind kind) -> const JsonValue* {
      const JsonValue* v = entry.Find(key);
      if (v == nullptr || v->kind != kind) {
        *error = path + ": stages[" + std::to_string(i) +
                 "] missing key \"" + key + "\"";
        return nullptr;
      }
      return v;
    };
    const JsonValue* stage = require("stage", JsonValue::Kind::kString);
    const JsonValue* wall = require("wall_ms", JsonValue::Kind::kNumber);
    const JsonValue* threads = require("threads", JsonValue::Kind::kNumber);
    const JsonValue* entities = require("entities", JsonValue::Kind::kNumber);
    const JsonValue* seed = require("seed", JsonValue::Kind::kNumber);
    if (stage == nullptr || wall == nullptr || threads == nullptr ||
        entities == nullptr || seed == nullptr) {
      return false;
    }
    // "metric" is an optional quality value (e.g. AUPRC in the availability
    // sweep); comparisons track wall_ms only, but when present it must at
    // least be a number.
    const JsonValue* metric = entry.Find("metric");
    if (metric != nullptr && metric->kind != JsonValue::Kind::kNumber) {
      *error = path + ": stages[" + std::to_string(i) +
               "] key \"metric\" is not a number";
      return false;
    }
    BenchStage s;
    s.stage = stage->str;
    s.wall_ms = wall->number;
    s.threads = static_cast<long>(threads->number);
    s.entities = static_cast<long>(entities->number);
    s.seed = static_cast<unsigned long long>(seed->number);
    out->stages.push_back(std::move(s));
  }
  return true;
}

std::string StageKey(const BenchStage& s) {
  return s.stage + "|t" + std::to_string(s.threads) + "|n" +
         std::to_string(s.entities);
}

int Validate(const std::string& path) {
  BenchFile file;
  std::string error;
  if (!LoadBenchFile(path, &file, &error)) {
    std::fprintf(stderr, "bench_compare: INVALID: %s\n", error.c_str());
    return 1;
  }
  std::printf("bench_compare: %s valid — bench \"%s\", sha %s, %zu stages\n",
              path.c_str(), file.name.c_str(), file.git_sha.c_str(),
              file.stages.size());
  return 0;
}

int Compare(const std::string& base_path, const std::string& new_path,
            double threshold) {
  BenchFile base, fresh;
  std::string error;
  if (!LoadBenchFile(base_path, &base, &error) ||
      !LoadBenchFile(new_path, &fresh, &error)) {
    std::fprintf(stderr, "bench_compare: %s\n", error.c_str());
    return 2;
  }
  std::map<std::string, const BenchStage*> base_index;
  for (const BenchStage& s : base.stages) base_index[StageKey(s)] = &s;

  std::printf("bench_compare: %s (%s) -> %s (%s), threshold %.2fx\n",
              base_path.c_str(), base.git_sha.c_str(), new_path.c_str(),
              fresh.git_sha.c_str(), threshold);
  std::printf("%-44s %12s %12s %8s\n", "stage|threads|entities", "base ms",
              "new ms", "ratio");

  int regressions = 0;
  size_t matched = 0;
  for (const BenchStage& s : fresh.stages) {
    auto it = base_index.find(StageKey(s));
    if (it == base_index.end()) {
      std::printf("%-44s %12s %12.3f %8s  (new stage)\n",
                  StageKey(s).c_str(), "-", s.wall_ms, "-");
      continue;
    }
    ++matched;
    const double base_ms = it->second->wall_ms;
    const double ratio = base_ms > 0.0 ? s.wall_ms / base_ms : 1.0;
    const bool regressed = ratio > threshold;
    std::printf("%-44s %12.3f %12.3f %7.2fx%s\n", StageKey(s).c_str(),
                base_ms, s.wall_ms, ratio, regressed ? "  REGRESSED" : "");
    if (regressed) ++regressions;
    base_index.erase(it);
  }
  for (const auto& [key, stage] : base_index) {
    std::printf("%-44s %12.3f %12s %8s  (dropped stage)\n", key.c_str(),
                stage->wall_ms, "-", "-");
  }
  if (matched == 0) {
    std::fprintf(stderr, "bench_compare: no stages matched between files\n");
    return 2;
  }
  if (regressions > 0) {
    std::fprintf(stderr, "bench_compare: FAIL — %d stage(s) regressed past "
                 "%.2fx\n", regressions, threshold);
    return 1;
  }
  std::printf("bench_compare: OK — %zu matched stage(s) within threshold\n",
              matched);
  return 0;
}

struct SpeedupFloor {
  std::string stage;
  double floor = 0.0;
};

int CheckSpeedups(const std::string& path,
                  const std::vector<SpeedupFloor>& floors) {
  BenchFile file;
  std::string error;
  if (!LoadBenchFile(path, &file, &error)) {
    std::fprintf(stderr, "bench_compare: %s\n", error.c_str());
    return 2;
  }
  std::printf("bench_compare: %s (%s), speedup 1t/Nt\n", path.c_str(),
              file.git_sha.c_str());
  std::printf("%-36s %7s %12s %12s %8s %8s\n", "stage|entities", "N",
              "1t ms", "Nt ms", "speedup", "floor");
  int failures = 0;
  for (const SpeedupFloor& gate : floors) {
    // entities -> the stage's 1-thread rows and its rows with threads > 1;
    // a gated entity count needs exactly one of each.
    std::map<long, std::pair<std::vector<const BenchStage*>,
                             std::vector<const BenchStage*>>> by_entities;
    for (const BenchStage& s : file.stages) {
      if (s.stage != gate.stage) continue;
      auto& rows = by_entities[s.entities];
      (s.threads == 1 ? rows.first : rows.second).push_back(&s);
    }
    if (by_entities.empty()) {
      std::printf("%-36s %7s %12s %12s %8s %7.2fx  MISSING (no rows)\n",
                  gate.stage.c_str(), "-", "-", "-", "-", gate.floor);
      ++failures;
    }
    for (const auto& [entities, rows] : by_entities) {
      const std::string label = gate.stage + "|n" + std::to_string(entities);
      if (rows.first.size() != 1 || rows.second.size() != 1) {
        std::printf("%-36s %7s %12s %12s %8s %7.2fx  %s (%zu 1t row(s), "
                    "%zu row(s) with threads > 1; want one each)\n",
                    label.c_str(), "-", "-", "-", "-", gate.floor,
                    rows.first.size() > 1 || rows.second.size() > 1
                        ? "AMBIGUOUS"
                        : "MISSING",
                    rows.first.size(), rows.second.size());
        ++failures;
        continue;
      }
      const BenchStage& one = *rows.first[0];
      const BenchStage& many = *rows.second[0];
      const double speedup = one.wall_ms / many.wall_ms;
      const bool below = !(speedup >= gate.floor);
      std::printf("%-36s %7ld %12.3f %12.3f %7.2fx %7.2fx%s\n",
                  label.c_str(), many.threads, one.wall_ms, many.wall_ms,
                  speedup, gate.floor, below ? "  BELOW FLOOR" : "");
      if (below) ++failures;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "bench_compare: FAIL — %d speedup gate(s) not met\n",
                 failures);
    return 1;
  }
  std::printf("bench_compare: OK — every gated speedup meets its floor\n");
  return 0;
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: bench_compare --validate FILE\n"
               "       bench_compare [--threshold F] BASE NEW\n"
               "       bench_compare --min-speedup STAGE=FLOOR "
               "[--min-speedup ...] FILE\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  bool validate = false;
  double threshold = 1.25;
  std::vector<SpeedupFloor> floors;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--validate") {
      validate = true;
    } else if (arg == "--min-speedup") {
      const std::string spec = i + 1 < argc ? argv[++i] : "";
      const size_t eq = spec.find('=');
      const double floor =
          eq == std::string::npos ? 0.0 : std::atof(spec.c_str() + eq + 1);
      if (eq == 0 || floor <= 0.0) {
        std::fprintf(stderr, "bench_compare: bad --min-speedup \"%s\" "
                     "(want STAGE=FLOOR)\n", spec.c_str());
        return 2;
      }
      floors.push_back(SpeedupFloor{spec.substr(0, eq), floor});
    } else if (arg == "--threshold") {
      if (i + 1 >= argc) {
        PrintUsage();
        return 2;
      }
      threshold = std::atof(argv[++i]);
      if (threshold <= 0.0) {
        std::fprintf(stderr, "bench_compare: bad threshold\n");
        return 2;
      }
    } else {
      positional.push_back(arg);
    }
  }
  if (!floors.empty()) {
    if (validate || positional.size() != 1) {
      PrintUsage();
      return 2;
    }
    return CheckSpeedups(positional[0], floors);
  }
  if (validate && positional.size() == 1) return Validate(positional[0]);
  if (!validate && positional.size() == 2) {
    return Compare(positional[0], positional[1], threshold);
  }
  PrintUsage();
  return 2;
}
