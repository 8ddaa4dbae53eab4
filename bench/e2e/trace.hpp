// trace.hpp — in-memory span log of a traced benchmark run, written out as
// Chrome trace-event JSON (loadable in Perfetto or chrome://tracing) when
// the run ends.  One log per thread: spans are appended without locking and
// the logs are merged after the threads have joined.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

inline Clock::time_point plus_seconds(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

struct Span {
  const char* name = "";  // static string: a layer or kernel name
  int tid = 0;            // track: rank, connection or shard
  long op = -1;           // the operation (solve or request) it belongs to
  Clock::time_point start;
  Clock::time_point end;
};

class TraceLog {
 public:
  /// Spans past `capacity` are counted but not kept, so a long traced run
  /// cannot grow without bound.
  explicit TraceLog(std::size_t capacity = 100000) : capacity_(capacity) {}

  void add(const char* name, int tid, long op, Clock::time_point start,
           Clock::time_point end) {
    if (spans_.size() < capacity_) {
      spans_.push_back(Span{name, tid, op, start, end});
    } else {
      ++dropped_;
    }
  }

  void append(const TraceLog& other);
  void name_track(int tid, const std::string& name) { tracks_[tid] = name; }

  std::size_t size() const { return spans_.size(); }
  long dropped() const { return dropped_; }

  /// Write {"traceEvents": [...]} with one complete ("X") event per span,
  /// timestamps in microseconds from the earliest span.  Throws tl::Error
  /// when the file cannot be written.
  void write(const std::string& path) const;

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  long dropped_ = 0;
  std::map<int, std::string> tracks_;
};

}  // namespace e2e
