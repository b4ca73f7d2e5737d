// Order statistics for the bench's samples: the shared bench harness's
// LatencyRecorder (bench/bench_common.hpp), plus the sums the reports need.
#pragma once

#include <algorithm>
#include <numeric>
#include <vector>

#include "bench_common.hpp"

namespace e2e {

/// quantile() is LatencyRecorder::percentile (linear between the closest
/// ranks), with q in [0, 1]; an empty set reads 0 everywhere.
class Distribution {
 public:
  explicit Distribution(const std::vector<double>& values) : values_(values) {
    for (const double v : values) recorder_.record(v);
  }

  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  [[nodiscard]] double quantile(double q) const {
    return recorder_.empty() ? 0.0 : recorder_.percentile(q * 100.0);
  }
  [[nodiscard]] double sum() const {
    return std::accumulate(values_.begin(), values_.end(), 0.0);
  }
  [[nodiscard]] double mean() const {
    return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
  }
  [[nodiscard]] double max() const {
    return values_.empty() ? 0.0 : *std::max_element(values_.begin(), values_.end());
  }

 private:
  std::vector<double> values_;
  megads::bench::LatencyRecorder recorder_;
};

}  // namespace e2e
