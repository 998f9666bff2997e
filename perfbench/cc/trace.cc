#include "trace.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

uint32_t ThisThreadId() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xFFFFFF);
}

std::string JsonEscape(const std::string& raw) {
  std::string out;
  for (char c : raw) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

int Tracer::Open(std::string name, int64_t start_ns) {
  if (!enabled_) return -1;
  SpanRecord span;
  span.name = std::move(name);
  span.start_ns = start_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  span.thread = ThisThreadId();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::Close(int index, int64_t end_ns) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = end_ns;
  // Spans nest: the closed span is the innermost open one.
  auto it = std::find(open_.begin(), open_.end(), index);
  if (it != open_.end()) open_.erase(it, open_.end());
}

std::map<std::string, double> Tracer::SelfMsByLayer(
    const std::string& root) const {
  // Children's intervals per parent, merged so overlapping children are
  // not subtracted twice.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::map<std::string, double> self_ms;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.end_ns < 0) continue;
    int top = static_cast<int>(i);
    while (spans_[static_cast<size_t>(top)].parent >= 0) {
      top = spans_[static_cast<size_t>(top)].parent;
    }
    if (!root.empty() && spans_[static_cast<size_t>(top)].name != root) {
      continue;
    }
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (const auto& [begin, end] : kids) {
      const int64_t lo = std::max(begin, cursor);
      const int64_t hi = std::min(end, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    const std::string layer = s.name.substr(0, s.name.find('/'));
    self_ms[layer] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self_ms;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\": [";
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.end_ns < 0) continue;
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\": \"" << JsonEscape(s.name)
        << "\", \"cat\": \"" << JsonEscape(s.name.substr(0, s.name.find('/')))
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << static_cast<double>(s.start_ns - origin) / 1e3
        << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n]}\n";
  return out.good();
}

double ScopedSpan::Stop() {
  if (ms_ < 0.0) {
    const int64_t end = NowNs();
    tracer_->Close(index_, end);
    ms_ = static_cast<double>(end - start_ns_) / 1e6;
  }
  return ms_;
}

}  // namespace perfbench
