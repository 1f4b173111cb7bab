#ifndef SPCUBE_PERFBENCH_TRACED_SPCUBE_H_
#define SPCUBE_PERFBENCH_TRACED_SPCUBE_H_

#include <cstdint>

#include "common/status.h"
#include "mapreduce/engine.h"
#include "mapreduce/metrics.h"
#include "relation/relation.h"
#include "span_trace.h"

namespace spcube {
namespace perfbench {

/// What one traced SP-Cube run measured.
struct TracedRun {
  RunMetrics metrics;  // sketch round, then cube round
  double wall_s = 0;   // both rounds, host wall clock
  double sketch_round_s = 0;
  int64_t sketch_bytes = 0;
  int64_t sketch_skewed_groups = 0;
  LayerTotals layers;  // spans of both rounds, summed over threads
};

/// Rebuilds SpCubeAlgorithm::Run (count aggregate, no output collection)
/// from the library's public pieces — Engine::Run, JobSpec and the
/// SketchSampleMapper / SketchBuildReducer / SpCubeMapper / SpCubeReducer /
/// SketchRangePartitioner task classes — with every task callback, emit,
/// partition, value fetch and output wrapped in a span. The sketch is built
/// from `sketch_input` and the cube computed over `input`; passing the same
/// relation twice is SpCubeAlgorithm::Run, a different (older) batch is
/// RunWithSketchFrom. `strict_reducer_memory` mirrors the SpCubeOptions
/// flag, including MakeCubeRecoverySpec split recovery.
///
/// The rebuild must stay in step with core/sp_cube.cc: the benchmark's
/// fidelity check compares its deterministic metrics (shuffle bytes,
/// output records, per-reducer input records, counters) with an untraced
/// run and fails on any drift.
Result<TracedRun> RunTracedSpCube(Engine& engine, const Relation& sketch_input,
                                  const Relation& input,
                                  bool strict_reducer_memory);

}  // namespace perfbench
}  // namespace spcube

#endif  // SPCUBE_PERFBENCH_TRACED_SPCUBE_H_
