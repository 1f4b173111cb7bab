#include "cube/pipesort.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "common/logging.h"

namespace spcube {

std::vector<Pipeline> PlanPipelines(int num_dims) {
  SPCUBE_CHECK(num_dims >= 1 && num_dims <= kMaxDims);
  const CuboidMask num_masks =
      static_cast<CuboidMask>(NumCuboids(num_dims));
  std::vector<bool> covered(num_masks, false);
  std::vector<Pipeline> pipelines;

  // Seed masks from the top of the lattice down: the first pipeline claims
  // a full chain of d+1 cuboids; later ones claim whatever prefixes of
  // their order are still free.
  std::vector<CuboidMask> seeds(num_masks);
  std::iota(seeds.begin(), seeds.end(), CuboidMask{0});
  std::sort(seeds.begin(), seeds.end(), [](CuboidMask a, CuboidMask b) {
    return MaskPopCount(a) > MaskPopCount(b) ||
           (MaskPopCount(a) == MaskPopCount(b) && a < b);
  });

  for (const CuboidMask seed : seeds) {
    if (covered[seed]) continue;
    Pipeline pipeline;
    // Order: the seed's dimensions first, remaining dimensions after, so
    // the seed itself is a prefix of the order.
    for (int d = 0; d < num_dims; ++d) {
      if ((seed >> d) & 1) pipeline.order.push_back(d);
    }
    for (int d = 0; d < num_dims; ++d) {
      if (((seed >> d) & 1) == 0) pipeline.order.push_back(d);
    }
    // Claim every still-uncovered prefix of the order.
    CuboidMask prefix = 0;
    if (!covered[prefix]) {
      covered[prefix] = true;
      pipeline.covered.push_back(prefix);
    }
    for (int length = 1; length <= num_dims; ++length) {
      prefix |= CuboidMask{1}
                << pipeline.order[static_cast<size_t>(length - 1)];
      if (!covered[prefix]) {
        covered[prefix] = true;
        pipeline.covered.push_back(prefix);
      }
    }
    pipelines.push_back(std::move(pipeline));
  }
  return pipelines;
}

namespace {

/// Length (number of leading attributes of `order`) whose OR equals `mask`.
int PrefixLength(const Pipeline& pipeline, CuboidMask mask) {
  CuboidMask prefix = 0;
  if (mask == 0) return 0;
  for (size_t i = 0; i < pipeline.order.size(); ++i) {
    prefix |= CuboidMask{1} << pipeline.order[i];
    if (prefix == mask) return static_cast<int>(i) + 1;
  }
  SPCUBE_CHECK(false) << "mask is not a prefix of its pipeline";
  return -1;
}

}  // namespace

void PipeSortComputeFull(const Relation& rel, const Aggregator& agg,
                         const GroupCallback& callback) {
  const int64_t n = rel.num_rows();
  if (n == 0) return;
  const int d = rel.num_dims();

  // One span per dimension column, hoisted so the sort comparator and the
  // run-boundary scan read contiguous columns directly.
  std::vector<std::span<const int64_t>> cols;
  cols.reserve(static_cast<size_t>(d));
  for (int dim = 0; dim < d; ++dim) cols.push_back(rel.column(dim));

  std::vector<int64_t> rows(static_cast<size_t>(n));
  for (const Pipeline& pipeline : PlanPipelines(d)) {
    std::iota(rows.begin(), rows.end(), int64_t{0});
    std::sort(rows.begin(), rows.end(),
              [&cols, &pipeline](int64_t a, int64_t b) {
                for (int dim : pipeline.order) {
                  const int64_t va = cols[static_cast<size_t>(dim)]
                                         [static_cast<size_t>(a)];
                  const int64_t vb = cols[static_cast<size_t>(dim)]
                                         [static_cast<size_t>(b)];
                  if (va != vb) return va < vb;
                }
                return false;
              });

    // One scan, aggregating every claimed prefix simultaneously. Claimed
    // prefixes sorted by length so flushes cascade from fine to coarse.
    struct Open {
      int length;           // prefix length in the order
      CuboidMask mask;      // its cuboid
      AggState state;       // running aggregate
      int64_t start_row;    // representative row of the open group
    };
    std::vector<Open> open;
    for (const CuboidMask mask : pipeline.covered) {
      open.push_back(
          Open{PrefixLength(pipeline, mask), mask, agg.Empty(), rows[0]});
    }
    std::sort(open.begin(), open.end(),
              [](const Open& a, const Open& b) { return a.length < b.length; });

    for (int64_t i = 0; i < n; ++i) {
      const int64_t row = rows[static_cast<size_t>(i)];
      if (i > 0) {
        // First position (in pipeline order) where this row differs from
        // the previous one; every open prefix longer than that closes.
        const int64_t prev = rows[static_cast<size_t>(i - 1)];
        int differs_at = d;  // no difference
        for (int pos = 0; pos < d; ++pos) {
          const int dim = pipeline.order[static_cast<size_t>(pos)];
          const std::span<const int64_t> col =
              cols[static_cast<size_t>(dim)];
          if (col[static_cast<size_t>(prev)] !=
              col[static_cast<size_t>(row)]) {
            differs_at = pos;
            break;
          }
        }
        for (Open& group : open) {
          if (group.length > differs_at) {
            callback(GroupKey::Project(group.mask, rel.row(group.start_row)),
                     group.state);
            group.state = agg.Empty();
            group.start_row = row;
          }
        }
      }
      for (Open& group : open) {
        agg.Add(group.state, rel.measure(row));
      }
    }
    for (const Open& group : open) {
      callback(GroupKey::Project(group.mask, rel.row(group.start_row)),
               group.state);
    }
  }
}

}  // namespace spcube
