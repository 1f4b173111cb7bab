#ifndef SPCUBE_PERFBENCH_STATS_H_
#define SPCUBE_PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace spcube {
namespace perfbench {

/// Middle value of `values` (mean of the two middle values for an even
/// count); 0 for an empty vector.
double Median(std::vector<double> values);

/// First quartile, median and third quartile with the cut points of
/// Python's `statistics.quantiles(values, n=4)` (its default "exclusive"
/// method), so the spreads printed here match those a Python script
/// computes from the same samples.
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;

  /// (q3 - q1) / median: the run-to-run spread as a share of the median.
  double RelativeSpread() const;
};
Quartiles ComputeQuartiles(std::vector<double> values);

/// The tail rule: the highest percentile that still has at least
/// `min_beyond` samples above it. With N sorted samples that is the sample
/// at 1-based rank N - min_beyond, i.e. the 100 * (N - min_beyond) / N-th
/// percentile (nearest rank). With fewer than 2 * min_beyond + 2 samples
/// that rank is not above the median, so it is floored at the upper median
/// (rank N / 2 + 1) and `at_median` is set: too few samples for a tail.
struct TailSample {
  double value = 0;
  double percentile = 0;  // nearest-rank percentile of `value`, 0..100
  int64_t samples = 0;
  int64_t beyond = 0;  // samples ranked above `value`
  bool at_median = false;
};
TailSample ComputeTail(std::vector<double> values, int64_t min_beyond = 10);

}  // namespace perfbench
}  // namespace spcube

#endif  // SPCUBE_PERFBENCH_STATS_H_
