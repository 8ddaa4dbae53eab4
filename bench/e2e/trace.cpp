#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/error.hpp"

namespace e2e {

void TraceLog::append(const TraceLog& other) {
  for (const Span& span : other.spans_) {
    add(span.name, span.tid, span.op, span.start, span.end);
  }
  dropped_ += other.dropped_;
  for (const auto& [tid, name] : other.tracks_) tracks_[tid] = name;
}

void TraceLog::write(const std::string& path) const {
  std::ofstream out(path);
  TL_REQUIRE(static_cast<bool>(out), "cannot write trace file " + path);

  Clock::time_point origin = Clock::time_point::max();
  for (const Span& span : spans_) origin = std::min(origin, span.start);
  const auto micros = [&](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };

  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":"
      << dropped_ << "},\"traceEvents\":[\n";
  bool first = true;
  const auto separator = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const auto& [tid, name] : tracks_) {
    separator();
    out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"" << name << "\"}}";
  }
  char buffer[64];
  for (const Span& span : spans_) {
    separator();
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << span.tid << ",\"name\":\""
        << span.name << "\",\"ts\":";
    std::snprintf(buffer, sizeof(buffer), "%.3f", micros(span.start - origin));
    out << buffer << ",\"dur\":";
    std::snprintf(buffer, sizeof(buffer), "%.3f", micros(span.end - span.start));
    out << buffer << ",\"args\":{\"op\":" << span.op << "}}";
  }
  out << "\n]}\n";
  TL_REQUIRE(static_cast<bool>(out), "failed writing trace file " + path);
}

}  // namespace e2e
