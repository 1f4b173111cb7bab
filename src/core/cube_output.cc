#include "core/cube_output.h"

#include "common/bytes.h"
#include "cube/group_key.h"

namespace spcube {
namespace {

std::string PartPath(const std::string& root, CuboidMask mask,
                     int reducer_id) {
  return root + "/cuboid_" + std::to_string(mask) + "/part-" +
         std::to_string(reducer_id);
}

Status DecodeCell(std::string_view key, std::string_view value,
                  GroupKey* group, double* cell) {
  ByteReader reader(key);
  SPCUBE_RETURN_IF_ERROR(GroupKey::DecodeFrom(reader, group));
  SPCUBE_ASSIGN_OR_RETURN(*cell, DecodeCubeValue(value));
  return Status::OK();
}

}  // namespace

CubeCollector::CubeCollector(const CubeRunOptions& options,
                             DistributedFileSystem* dfs, int num_dims)
    : wants_cells_(options.collect_output || !options.dfs_output_root.empty()),
      root_(options.dfs_output_root),
      dfs_(dfs),
      cube_(options.collect_output ? std::make_unique<CubeResult>(num_dims)
                                   : nullptr) {}

Status CubeCollector::Collect(int reducer_id, std::string_view key,
                              std::string_view value) {
  if (!wants_cells_) return Status::OK();
  GroupKey group;
  double cell = 0.0;
  SPCUBE_RETURN_IF_ERROR(DecodeCell(key, value, &group, &cell));

  MutexLock lock(&mu_);
  if (!root_.empty()) {
    // The part file gets the record as received: key and value, each
    // length-prefixed.
    ByteWriter record;
    record.PutBytes(key);
    record.PutBytes(value);
    SPCUBE_RETURN_IF_ERROR(
        dfs_->Append(PartPath(root_, group.mask, reducer_id), record.data()));
  }
  if (cube_ == nullptr) return Status::OK();
  return cube_->AddGroup(std::move(group), cell);
}

void CubeCollector::Reserve(int64_t records) {
  MutexLock lock(&mu_);
  if (cube_ != nullptr) cube_->Reserve(records);
}

std::unique_ptr<CubeResult> CubeCollector::TakeCube() {
  MutexLock lock(&mu_);
  return std::move(cube_);
}

Result<CubeRunOutput> RunCubeJob(Engine& engine, const JobSpec& spec,
                                 const Relation& input,
                                 const CubeRunOptions& options,
                                 std::string algorithm) {
  CubeCollector cells(options, engine.dfs(), input.num_dims());
  SPCUBE_ASSIGN_OR_RETURN(JobMetrics round, engine.Run(spec, input, &cells));
  CubeRunOutput out;
  out.metrics.algorithm = std::move(algorithm);
  out.metrics.Add(std::move(round));
  out.cube = cells.TakeCube();
  return out;
}

Result<CubeResult> ReadCubeFromDfs(const DistributedFileSystem& dfs,
                                   const std::string& root, int num_dims) {
  CubeResult cube(num_dims);
  for (const std::string& path : dfs.List(root + "/")) {
    SPCUBE_ASSIGN_OR_RETURN(std::string contents, dfs.ReadWithRetry(path));
    ByteReader reader(contents);
    while (!reader.AtEnd()) {
      std::string_view key_bytes;
      std::string_view value_bytes;
      SPCUBE_RETURN_IF_ERROR(reader.GetBytes(&key_bytes));
      SPCUBE_RETURN_IF_ERROR(reader.GetBytes(&value_bytes));
      GroupKey key;
      double value = 0.0;
      SPCUBE_RETURN_IF_ERROR(DecodeCell(key_bytes, value_bytes, &key, &value));
      SPCUBE_RETURN_IF_ERROR(cube.AddGroup(std::move(key), value));
    }
  }
  return cube;
}

int64_t CuboidPartCount(const DistributedFileSystem& dfs,
                        const std::string& root, CuboidMask mask) {
  return static_cast<int64_t>(
      dfs.List(root + "/cuboid_" + std::to_string(mask) + "/").size());
}

}  // namespace spcube
