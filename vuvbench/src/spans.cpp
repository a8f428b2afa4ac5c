#include "spans.hpp"

#include <cstdio>
#include <ostream>
#include <set>

namespace vuvbench {

i32 SpanLog::open(const char* name, std::string key) {
  Span s;
  s.name = name;
  s.start_ns = ns(Clock::now());
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.key = std::move(key);
  spans.push_back(std::move(s));
  const i32 idx = static_cast<i32>(spans.size() - 1);
  stack_.push_back(idx);
  return idx;
}

void SpanLog::close(i32 idx) {
  spans[static_cast<size_t>(idx)].end_ns = ns(Clock::now());
  if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
}

void SpanLog::record(const char* name, Clock::time_point t0,
                     Clock::time_point t1, std::string key) {
  Span s;
  s.name = name;
  s.start_ns = ns(t0);
  s.end_ns = ns(t1);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.key = std::move(key);
  spans.push_back(std::move(s));
}

SpanLog& Trace::thread_log(i32 tid, std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<SpanLog>(tid, std::move(label), origin_));
  return *logs_.back();
}

std::map<std::string, Trace::LayerTime> Trace::layers() const {
  std::map<std::string, LayerTime> out;
  for (const auto& log : logs_) {
    std::vector<i64> child_ns(log->spans.size(), 0);
    for (const Span& s : log->spans)
      if (s.parent >= 0)
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    for (size_t i = 0; i < log->spans.size(); ++i) {
      const Span& s = log->spans[i];
      LayerTime& lt = out[s.name];
      lt.self_s += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
      ++lt.spans;
    }
  }
  return out;
}

namespace {

void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

}  // namespace

void write_chrome_trace(std::ostream& os,
                        const std::vector<std::unique_ptr<Trace>>& traces) {
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  auto sep = [&] {
    os << (first ? "\n" : ",\n");
    first = false;
  };
  std::set<i32> named;
  for (const auto& trace : traces) {
    for (const auto& log : trace->logs()) {
      if (!named.insert(log->tid).second) continue;
      sep();
      os << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << log->tid
         << ", \"name\": \"thread_name\", \"args\": {\"name\": ";
      write_escaped(os, log->label);
      os << "}}";
    }
  }
  char num[64];
  for (const auto& trace : traces) {
    for (const auto& log : trace->logs()) {
      for (size_t i = 0; i < log->spans.size(); ++i) {
        const Span& s = log->spans[i];
        const std::string name = s.name;
        sep();
        os << "{\"ph\": \"X\", \"pid\": 1, \"tid\": " << log->tid
           << ", \"name\": ";
        write_escaped(os, name);
        os << ", \"cat\": ";
        write_escaped(os, name.substr(0, name.find('.')));
        std::snprintf(num, sizeof num, ", \"ts\": %.3f, \"dur\": %.3f",
                      static_cast<double>(s.start_ns) * 1e-3,
                      static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
        os << num << ", \"args\": {\"span\": " << i
           << ", \"parent\": " << s.parent;
        if (!s.key.empty()) {
          os << ", \"key\": ";
          write_escaped(os, s.key);
        }
        os << "}}";
      }
    }
  }
  os << "\n]}\n";
}

}  // namespace vuvbench
