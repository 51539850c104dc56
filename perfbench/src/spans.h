// In-memory span recorder for the benchmark's traced run.
//
// A span is (name, start, end, parent). Spans are opened around calls
// into the simulator's public entry points, kept in memory while the run
// lasts, and written out once at the end: as Chrome-trace JSON (load it
// in chrome://tracing or Perfetto) and as per-layer self times. A span's
// self time is its duration minus the time its direct children cover.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
 public:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    int parent;  ///< index into spans(), -1 for a root
  };

  /// Closes its span when it goes out of scope. A null recorder makes
  /// the scope a no-op, so untraced passes share the traced code path.
  class Scope {
   public:
    Scope(Spans* spans, const char* name) : spans_(spans) {
      if (spans_ != nullptr) index_ = spans_->open(name);
    }
    ~Scope() {
      if (spans_ != nullptr) spans_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name over spans whose root is `root`, or over
  /// every span when `root` is -1.
  std::map<std::string, double> self_seconds(int root = -1) const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_s - spans_[i].start_s;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= s.end_s - s.start_s;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (root < 0 || root_of(static_cast<int>(i)) == root) {
        out[spans_[i].name] += self[i];
      }
    }
    return out;
  }

  /// Indices of the root spans, in start order.
  std::vector<int> roots() const {
    std::vector<int> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent < 0) out.push_back(static_cast<int>(i));
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  /// `meta` is an already-serialised JSON object stored as otherData.
  /// Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path,
                          const std::string& meta) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n",
                 meta.c_str());
    std::fprintf(f, " \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %d}}%s\n",
                   s.name, s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, i,
                   s.parent, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, " ]}\n");
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  int open(const char* name) {
    spans_.push_back({name, now(), 0.0, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }

  void close(int index) {
    spans_[index].end_s = now();
    open_ = spans_[index].parent;
  }

  int root_of(int i) const {
    while (spans_[i].parent >= 0) i = spans_[i].parent;
    return i;
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace perfbench
