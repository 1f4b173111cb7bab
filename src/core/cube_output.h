#ifndef SPCUBE_CORE_CUBE_OUTPUT_H_
#define SPCUBE_CORE_CUBE_OUTPUT_H_

#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/cube_algorithm.h"
#include "io/dfs.h"
#include "mapreduce/api.h"

namespace spcube {

/// The one sink of final cube cells, shared by every algorithm. Cells
/// arrive in the shared wire format (an encoded GroupKey mapped to an
/// encoded double); each is decoded once, then
///   - added to an in-memory CubeResult when CubeRunOptions::collect_output;
///   - appended to the DFS when CubeRunOptions::dfs_output_root is set, in
///     the layout the paper sketches at the end of §3.1: one directory per
///     cuboid, one part file per reducer inside it, so that "the files
///     generated by the different reducers [are] concatenated to form the
///     full cuboid". Part files hold length-prefixed (GroupKey, double)
///     records:
///
///       <root>/cuboid_<mask>/part-<reducer>
///
/// With neither requested, Collect returns before decoding anything, so a
/// metrics-only run costs what NullOutputCollector costs.
///
/// The engine delivers a round's output on the calling thread, in
/// partition order, after its reduce tasks have joined (FoldRound), so it
/// never calls Collect concurrently; the lock keeps direct callers safe.
class CubeCollector : public OutputCollector {
 public:
  /// `dfs` must outlive the collector when options.dfs_output_root is set.
  CubeCollector(const CubeRunOptions& options, DistributedFileSystem* dfs,
                int num_dims);

  Status Collect(int reducer_id, std::string_view key,
                 std::string_view value) override SPCUBE_EXCLUDES(mu_);

  /// Sizes the in-memory cube for `records` more cells when
  /// options.collect_output (rounds deliver at most one cell per record).
  void Reserve(int64_t records) override SPCUBE_EXCLUDES(mu_);

  /// Whether Collect records cells at all; false means it discards them.
  bool wants_cells() const { return wants_cells_; }

  /// The cells collected so far; null unless options.collect_output.
  std::unique_ptr<CubeResult> TakeCube() SPCUBE_EXCLUDES(mu_);

 private:
  const bool wants_cells_;
  const std::string root_;
  /// mu_ makes one cell's DFS append and cube insert atomic with respect
  /// to another caller's.
  Mutex mu_;
  DistributedFileSystem* dfs_ SPCUBE_PT_GUARDED_BY(mu_);
  std::unique_ptr<CubeResult> cube_ SPCUBE_GUARDED_BY(mu_);
};

/// Runs one round whose reduce output is final cube cells, delivering them
/// through a CubeCollector; the output carries the round's metrics under
/// `algorithm` and, when collected, the cube.
Result<CubeRunOutput> RunCubeJob(Engine& engine, const JobSpec& spec,
                                 const Relation& input,
                                 const CubeRunOptions& options,
                                 std::string algorithm);

/// Reads a cube previously written by CubeCollector back into a CubeResult,
/// concatenating every cuboid's part files.
Result<CubeResult> ReadCubeFromDfs(const DistributedFileSystem& dfs,
                                   const std::string& root, int num_dims);

/// Number of part files under one cuboid's directory.
int64_t CuboidPartCount(const DistributedFileSystem& dfs,
                        const std::string& root, CuboidMask mask);

}  // namespace spcube

#endif  // SPCUBE_CORE_CUBE_OUTPUT_H_
