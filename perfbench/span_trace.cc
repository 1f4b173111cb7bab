#include "span_trace.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace spcube {
namespace perfbench {
namespace {

size_t Index(Layer layer) { return static_cast<size_t>(layer); }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Owns every thread's accumulator. Pool threads live only for one
/// Engine::Run, so accumulators outlive their threads and are drained, not
/// freed; a thread finds its own through a thread_local pointer.
class Registry {
 public:
  SpanAccumulator* Register() SPCUBE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    accumulators_.push_back(std::make_unique<SpanAccumulator>());
    return accumulators_.back().get();
  }

  LayerTotals Drain() SPCUBE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    LayerTotals sum;
    for (const auto& accumulator : accumulators_) {
      sum.Add(accumulator->Take());
    }
    return sum;
  }

 private:
  Mutex mu_;
  std::vector<std::unique_ptr<SpanAccumulator>> accumulators_
      SPCUBE_GUARDED_BY(mu_);
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

SpanAccumulator* ThisThreadAccumulator() {
  thread_local SpanAccumulator* accumulator = GlobalRegistry().Register();
  return accumulator;
}

}  // namespace

void LayerTotals::Add(const LayerTotals& other) {
  for (size_t i = 0; i < total_ns.size(); ++i) {
    total_ns[i] += other.total_ns[i];
    self_ns[i] += other.self_ns[i];
    calls[i] += other.calls[i];
  }
  top_level_ns += other.top_level_ns;
}

double LayerTotals::TotalSeconds(Layer layer) const {
  return static_cast<double>(total_ns[Index(layer)]) * 1e-9;
}

double LayerTotals::SelfSeconds(Layer layer) const {
  return static_cast<double>(self_ns[Index(layer)]) * 1e-9;
}

int64_t LayerTotals::Calls(Layer layer) const { return calls[Index(layer)]; }

double LayerTotals::TopLevelSeconds() const {
  return static_cast<double>(top_level_ns) * 1e-9;
}

void SpanAccumulator::Begin(Layer layer, int64_t now_ns) {
  stack_.push_back(Frame{layer, now_ns, 0});
}

void SpanAccumulator::End(int64_t now_ns) {
  if (stack_.empty()) return;
  const Frame frame = stack_.back();
  stack_.pop_back();
  const int64_t duration = std::max<int64_t>(0, now_ns - frame.start_ns);
  const size_t i = Index(frame.layer);
  totals_.total_ns[i] += duration;
  totals_.self_ns[i] += std::max<int64_t>(0, duration - frame.child_ns);
  ++totals_.calls[i];
  if (stack_.empty()) {
    totals_.top_level_ns += duration;
  } else {
    stack_.back().child_ns += duration;
  }
}

LayerTotals SpanAccumulator::Take() {
  LayerTotals out = totals_;
  totals_ = LayerTotals();
  return out;
}

ScopedSpan::ScopedSpan(Layer layer) : accumulator_(ThisThreadAccumulator()) {
  accumulator_->Begin(layer, NowNs());
}

ScopedSpan::~ScopedSpan() { accumulator_->End(NowNs()); }

LayerTotals DrainAllThreads() { return GlobalRegistry().Drain(); }

}  // namespace perfbench
}  // namespace spcube
