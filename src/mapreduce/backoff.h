#ifndef SPCUBE_MAPREDUCE_BACKOFF_H_
#define SPCUBE_MAPREDUCE_BACKOFF_H_

namespace spcube {

/// Ceiling on a single backoff delay, so deep retry/split chains cannot
/// charge unbounded simulated time.
inline constexpr double kRetryBackoffCapSeconds = 60.0;

/// Simulated re-scheduling delay of the `attempt`-th retry of a task
/// (attempt = 0, 1, ...): capped exponential,
///
///   delay = min(kRetryBackoffCapSeconds, base_seconds * 2^attempt)
///
/// and 0 when `base_seconds` <= 0. A pure function of its arguments, so
/// threaded and serial runs charge identical backoff.
double RetryBackoffSeconds(double base_seconds, int attempt);

}  // namespace spcube

#endif  // SPCUBE_MAPREDUCE_BACKOFF_H_
