#include "cube/buc.h"

#include <algorithm>
#include <span>

#include "common/logging.h"
#include "common/random.h"

namespace spcube {
namespace {

/// Fixed seed for the cardinality-ordering sample: the heuristic must be
/// deterministic per input (reducers across a job — and reruns of a job —
/// must order dimensions identically).
constexpr uint64_t kCardinalitySeed = 0x5bc0ffee0e57a75eULL;

/// Shared recursion state: the columnar base relation, the mutable
/// row-index array, the dimension processing order and the user callback.
struct BucContext {
  const Relation& rel;
  const Aggregator& agg;
  const BucOptions& options;
  const GroupCallback& callback;
  std::vector<int64_t>& rows;
  std::vector<int> dim_order;  // dims not in base_mask, in processing order
};

AggState AggregateRange(const BucContext& ctx, size_t begin, size_t end) {
  AggState state = ctx.agg.Empty();
  const std::span<const int64_t> measures = ctx.rel.measures();
  for (size_t i = begin; i < end; ++i) {
    ctx.agg.Add(state, measures[static_cast<size_t>(ctx.rows[i])]);
  }
  return state;
}

/// Reports the group covering rows [begin, end) for `mask`, then partitions
/// on each remaining dimension and recurses (classic BUC, paper [15]).
/// Partitioning reads one contiguous dimension column: a first scan detects
/// already-uniform ranges (common deep in the recursion) and skips the
/// sort; otherwise the sort comparator gathers from the same column, not
/// from strided row-major tuples.
void BucRecurse(BucContext& ctx, size_t begin, size_t end, CuboidMask mask,
                size_t next_order_pos) {
  const AggState state = AggregateRange(ctx, begin, end);
  ctx.callback(GroupKey::Project(mask, ctx.rel.row(ctx.rows[begin])), state);

  for (size_t pos = next_order_pos; pos < ctx.dim_order.size(); ++pos) {
    const int dim = ctx.dim_order[pos];
    const std::span<const int64_t> col = ctx.rel.column(dim);

    // Column pre-scan: if every row in the range shares one value, the
    // range is a single run — no sort, and the recursion reuses the range.
    bool uniform = true;
    const int64_t first = col[static_cast<size_t>(ctx.rows[begin])];
    for (size_t i = begin + 1; i < end; ++i) {
      if (col[static_cast<size_t>(ctx.rows[i])] != first) {
        uniform = false;
        break;
      }
    }
    if (!uniform) {
      std::sort(ctx.rows.begin() + static_cast<ptrdiff_t>(begin),
                ctx.rows.begin() + static_cast<ptrdiff_t>(end),
                [col](int64_t a, int64_t b) {
                  return col[static_cast<size_t>(a)] <
                         col[static_cast<size_t>(b)];
                });
    }
    size_t run_begin = begin;
    while (run_begin < end) {
      const int64_t value = col[static_cast<size_t>(ctx.rows[run_begin])];
      size_t run_end = run_begin + 1;
      while (run_end < end &&
             col[static_cast<size_t>(ctx.rows[run_end])] == value) {
        ++run_end;
      }
      if (static_cast<int64_t>(run_end - run_begin) >=
          ctx.options.min_support) {
        BucRecurse(ctx, run_begin, run_end,
                   mask | (CuboidMask{1} << dim), pos + 1);
      }
      run_begin = run_end;
    }
  }
}

/// Decreasing-cardinality dimension order, estimated from a bounded seeded
/// sample of the rows (the seed is fixed, so the order — and therefore the
/// recursion shape — is reproducible). The former implementation built one
/// unordered_set per dimension over every row of the partition, which cost
/// more than the sort it was meant to speed up on large reducer groups.
void OrderDimsByCardinality(const Relation& rel,
                            const std::vector<int64_t>& rows,
                            const BucOptions& options,
                            std::vector<int>* dim_order) {
  const size_t sample_size = std::min(
      rows.size(),
      static_cast<size_t>(std::max(1, options.cardinality_sample_size)));
  std::vector<int64_t> sample_rows(sample_size);
  if (sample_size == rows.size()) {
    std::copy(rows.begin(), rows.end(), sample_rows.begin());
  } else {
    Rng rng(kCardinalitySeed ^ static_cast<uint64_t>(rows.size()));
    for (size_t i = 0; i < sample_size; ++i) {
      sample_rows[i] = rows[rng.NextBounded(rows.size())];
    }
  }

  std::vector<int64_t> cardinality(static_cast<size_t>(rel.num_dims()), 0);
  std::vector<int64_t> scratch(sample_size);
  for (int d : *dim_order) {
    const std::span<const int64_t> col = rel.column(d);
    for (size_t i = 0; i < sample_size; ++i) {
      scratch[i] = col[static_cast<size_t>(sample_rows[i])];
    }
    std::sort(scratch.begin(), scratch.end());
    cardinality[static_cast<size_t>(d)] = static_cast<int64_t>(
        std::unique(scratch.begin(), scratch.end()) - scratch.begin());
  }
  std::stable_sort(dim_order->begin(), dim_order->end(),
                   [&cardinality](int a, int b) {
                     return cardinality[static_cast<size_t>(a)] >
                            cardinality[static_cast<size_t>(b)];
                   });
}

}  // namespace

void BucCompute(const RelationView& view, CuboidMask base_mask,
                const Aggregator& agg, const BucOptions& options,
                const GroupCallback& callback) {
  if (view.num_rows() == 0) return;
  const Relation& rel = view.base();
  SPCUBE_DCHECK(rel.num_dims() <= kMaxDims);

  std::vector<int64_t> rows(static_cast<size_t>(view.num_rows()));
  for (int64_t i = 0; i < view.num_rows(); ++i) {
    rows[static_cast<size_t>(i)] = view.base_row(i);
  }

  std::vector<int> dim_order;
  for (int d = 0; d < rel.num_dims(); ++d) {
    if (((base_mask >> d) & 1) == 0) dim_order.push_back(d);
  }
  if (options.order_dims_by_cardinality && dim_order.size() > 1) {
    // Estimate cardinalities from the actual rows so the heuristic adapts to
    // the reducer's local partition, not the global relation.
    OrderDimsByCardinality(rel, rows, options, &dim_order);
  }

  BucContext ctx{rel, agg, options, callback, rows, std::move(dim_order)};
  BucRecurse(ctx, 0, rows.size(), base_mask, 0);
}

void BucComputeFull(const Relation& rel, const Aggregator& agg,
                    const BucOptions& options, const GroupCallback& callback) {
  BucCompute(RelationView(rel), /*base_mask=*/0, agg, options, callback);
}

}  // namespace spcube
