#include "stats.h"

#include <algorithm>

namespace spcube {
namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quartiles::RelativeSpread() const {
  return median != 0 ? (q3 - q1) / median : 0;
}

Quartiles ComputeQuartiles(std::vector<double> values) {
  Quartiles out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  out.median = Median(values);
  if (values.size() == 1) {
    out.q1 = out.q3 = values[0];
    return out;
  }
  // statistics.quantiles(method="exclusive", n=4): m = N + 1; the i-th cut
  // point interpolates between 1-based ranks j = i*m // 4 and j + 1 with
  // weight delta = i*m - 4*j. j is clamped into [1, N - 1] *before* delta
  // is taken, so small N extrapolates exactly as Python does.
  const int64_t n = static_cast<int64_t>(values.size());
  const int64_t m = n + 1;
  auto cut = [&](int64_t i) {
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1, n - 1);
    const int64_t delta = i * m - j * 4;
    const double lo = values[static_cast<size_t>(j - 1)];
    const double hi = values[static_cast<size_t>(j)];
    return (lo * static_cast<double>(4 - delta) +
            hi * static_cast<double>(delta)) /
           4.0;
  };
  out.q1 = cut(1);
  out.q3 = cut(3);
  return out;
}

TailSample ComputeTail(std::vector<double> values, int64_t min_beyond) {
  TailSample out;
  out.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  // 1-based nearest rank; never below the upper median.
  const int64_t upper_median = out.samples / 2 + 1;
  const int64_t rank = std::max(out.samples - min_beyond, upper_median);
  out.value = values[static_cast<size_t>(rank - 1)];
  out.percentile = 100.0 * static_cast<double>(rank) /
                   static_cast<double>(out.samples);
  out.beyond = out.samples - rank;
  out.at_median = out.samples - min_beyond < upper_median;
  return out;
}

}  // namespace perfbench
}  // namespace spcube
