// Lightweight statistics primitives: named counters, ratio helpers, and
// integer histograms with percentile queries. These back every figure in
// the evaluation (occupancy percentiles for Figs 6-9, miss rates for
// Figs 12-15, commit rates for Fig 16).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace safespec {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

  /// Folds another counter in (aggregating per-cell statistics after a
  /// parallel sweep).
  void merge(const Counter& other) { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// hits / (hits + misses) convenience pair.
struct HitMiss {
  Counter hits;
  Counter misses;

  std::uint64_t accesses() const { return hits.value() + misses.value(); }
  double hit_rate() const {
    const auto total = accesses();
    return total == 0 ? 0.0 : static_cast<double>(hits.value()) / total;
  }
  double miss_rate() const {
    const auto total = accesses();
    return total == 0 ? 0.0 : static_cast<double>(misses.value()) / total;
  }
  void reset() {
    hits.reset();
    misses.reset();
  }
  void merge(const HitMiss& other) {
    hits.merge(other.hits);
    misses.merge(other.misses);
  }
};

/// Histogram over non-negative integer samples (e.g. shadow-structure
/// occupancy sampled every cycle). Supports the percentile query used to
/// size shadow structures "for 99.99% of the accesses" (Figs 6-9).
class Histogram {
 public:
  void record(std::uint64_t sample) {
    flush_run();
    bucket_add(sample, 1);
  }

  /// Equivalent to `n` calls of record(sample), but run-length batched
  /// for per-cycle sampling loops: consecutive equal samples cost one add
  /// and are folded into the buckets lazily (every reader flushes first),
  /// so the resulting statistics are bit-identical to per-sample record()
  /// calls. A core that skips idle cycles records the skipped stretch as
  /// one call.
  void record_run(std::uint64_t sample, std::uint64_t n = 1) {
    if (n == 0) return;
    if (run_len_ != 0 && sample == run_value_) {
      run_len_ += n;
      return;
    }
    flush_run();
    run_value_ = sample;
    run_len_ = n;
  }

  std::uint64_t count() const {
    flush_run();
    return count_;
  }
  std::uint64_t max() const {
    flush_run();
    return max_;
  }
  double mean() const {
    flush_run();
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }

  /// Smallest value v such that at least `fraction` of all samples are
  /// <= v. fraction in (0, 1]; returns 0 on an empty histogram.
  std::uint64_t percentile(double fraction) const {
    flush_run();
    if (count_ == 0) return 0;
    const double target = fraction * static_cast<double>(count_);
    std::uint64_t cumulative = 0;
    for (std::uint64_t v = 0; v < buckets_.size(); ++v) {
      cumulative += buckets_[v];
      if (static_cast<double>(cumulative) >= target) return v;
    }
    return max_;
  }

  void reset() {
    buckets_.clear();
    count_ = 0;
    sum_ = 0;
    max_ = 0;
    run_len_ = 0;
  }

  /// Folds another histogram in bucket-wise; percentiles of the merged
  /// histogram equal those of the concatenated sample streams.
  void merge(const Histogram& other) {
    flush_run();
    other.flush_run();
    if (other.buckets_.size() > buckets_.size())
      buckets_.resize(other.buckets_.size(), 0);
    for (std::size_t v = 0; v < other.buckets_.size(); ++v)
      buckets_[v] += other.buckets_[v];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_) max_ = other.max_;
  }

 private:
  void bucket_add(std::uint64_t sample, std::uint64_t n) const {
    if (sample >= buckets_.size()) buckets_.resize(sample + 1, 0);
    buckets_[sample] += n;
    count_ += n;
    sum_ += sample * n;
    if (sample > max_) max_ = sample;
  }

  void flush_run() const {
    if (run_len_ == 0) return;
    const std::uint64_t len = run_len_;
    run_len_ = 0;
    bucket_add(run_value_, len);
  }

  // All mutable: a pending run is an encoding detail that const readers
  // (percentile queries on a const core) must be able to fold in.
  mutable std::vector<std::uint64_t> buckets_;
  mutable std::uint64_t count_ = 0;
  mutable std::uint64_t sum_ = 0;
  mutable std::uint64_t max_ = 0;
  mutable std::uint64_t run_value_ = 0;
  mutable std::uint64_t run_len_ = 0;
};

/// A registry of named counters for ad-hoc instrumentation; mainly used
/// by tests and the examples to dump whatever a component recorded.
class StatSet {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  const std::map<std::string, Counter>& counters() const { return counters_; }

 private:
  std::map<std::string, Counter> counters_;
};

/// Geometric mean of a vector of positive values (used for Fig 11's
/// normalized-IPC summary). Returns 0 for an empty input.
double geometric_mean(const std::vector<double>& values);

/// Arithmetic mean (the figures' "Average" summary row). Returns 0 for an
/// empty input.
double arithmetic_mean(const std::vector<double>& values);

}  // namespace safespec
