#ifndef SPCUBE_PERFBENCH_SPAN_TRACE_H_
#define SPCUBE_PERFBENCH_SPAN_TRACE_H_

#include <array>
#include <cstdint>
#include <vector>

namespace spcube {
namespace perfbench {

/// The layer boundaries the traced run records. Each span is opened by a
/// decorator in traced_spcube.cc around one call into the library.
enum class Layer : int {
  kSketchMap = 0,   // SketchSampleMapper Setup/Map/Finish
  kSketchReduce,    // SketchBuildReducer Setup/Reduce/Finish
  kTaskSetup,       // SpCubeMapper/SpCubeReducer::Setup (sketch load)
  kMapWalk,         // SpCubeMapper::Map (lattice walk)
  kMapFinish,       // SpCubeMapper::Finish (skew partial flush)
  kEmit,            // MapContext::Emit / EmitToPartition
  kPartition,       // Partitioner::Partition
  kReduceRange,     // SpCubeReducer::Reduce on partitions 1..k (local BUC)
  kReduceSkew,      // SpCubeReducer::Reduce on partition 0 (skew merge)
  kReduceFinish,    // SpCubeReducer::Finish
  kRecoveryMerge,   // split-recovery merge reducer, all callbacks
  kValueNext,       // ValueStream::Next
  kOutput,          // ReduceContext::Output
};
inline constexpr int kNumLayers = static_cast<int>(Layer::kOutput) + 1;

/// Summed span durations per layer. `self` is a span's duration minus the
/// durations of its direct children; `top_level_ns` sums the spans that had
/// no open parent (the task callbacks the engine invoked directly).
struct LayerTotals {
  std::array<int64_t, kNumLayers> total_ns{};
  std::array<int64_t, kNumLayers> self_ns{};
  std::array<int64_t, kNumLayers> calls{};
  int64_t top_level_ns = 0;

  void Add(const LayerTotals& other);
  double TotalSeconds(Layer layer) const;
  double SelfSeconds(Layer layer) const;
  int64_t Calls(Layer layer) const;
  double TopLevelSeconds() const;
};

/// Self-time bookkeeping for one thread's strictly nested spans. Pure: the
/// caller supplies timestamps, so the arithmetic is unit-testable.
class SpanAccumulator {
 public:
  void Begin(Layer layer, int64_t now_ns);
  /// Closes the innermost open span. A clock that steps backwards yields a
  /// zero duration, and children longer than their parent a zero self
  /// time — never a negative one.
  void End(int64_t now_ns);

  int depth() const { return static_cast<int>(stack_.size()); }
  const LayerTotals& totals() const { return totals_; }
  /// Returns the totals and zeroes them.
  LayerTotals Take();

 private:
  struct Frame {
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
  };
  std::vector<Frame> stack_;
  LayerTotals totals_;
};

/// Opens a span on the calling thread's accumulator (created and
/// registered on first use) and closes it on destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanAccumulator* accumulator_;
};

/// Sums and zeroes every thread's accumulator. Call only while no traced
/// task runs — after Engine::Run returned, when the pool threads that
/// wrote the accumulators have been joined.
LayerTotals DrainAllThreads();

}  // namespace perfbench
}  // namespace spcube

#endif  // SPCUBE_PERFBENCH_SPAN_TRACE_H_
