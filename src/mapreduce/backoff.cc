#include "mapreduce/backoff.h"

#include <algorithm>
#include <cmath>

namespace spcube {

double RetryBackoffSeconds(double base_seconds, int attempt) {
  if (base_seconds <= 0.0) return 0.0;
  // ldexp saturates to +inf for absurd attempt counts; the cap brings the
  // delay back to a finite schedule.
  return std::min(kRetryBackoffCapSeconds,
                  base_seconds * std::ldexp(1.0, attempt));
}

}  // namespace spcube
