// Distinct-type counting and type-size statistics — the measurement layer
// behind Tables 2-5 of the paper (#types, min/max/avg inferred size, fused
// size).

#ifndef JSONSI_STATS_TYPE_STATS_H_
#define JSONSI_STATS_TYPE_STATS_H_

#include <algorithm>
#include <cstddef>
#include <unordered_set>
#include <vector>

#include "types/type.h"

namespace jsonsi::stats {

/// A deduplicated set of types (structural equality, cached hashes).
class DistinctTypeSet {
 public:
  /// Inserts a type; returns true when it was new.
  bool Add(const types::TypeRef& t) { return set_.insert(t).second; }

  /// Merges another set into this one (for per-partition accumulation).
  void Merge(const DistinctTypeSet& other) {
    set_.insert(other.set_.begin(), other.set_.end());
  }

  size_t size() const { return set_.size(); }

  std::vector<types::TypeRef> ToVector() const {
    return {set_.begin(), set_.end()};
  }

 private:
  std::unordered_set<types::TypeRef, types::TypeRefHash, types::TypeRefEq>
      set_;
};

/// min / max / mean over the AST sizes of a set of types.
struct SizeStats {
  size_t count = 0;
  size_t min = 0;
  size_t max = 0;
  double avg = 0;
};

/// Computes size statistics over `ts` (count==0 gives all-zero stats).
SizeStats ComputeSizeStats(const std::vector<types::TypeRef>& ts);

/// Running count / min / max / total over per-record type sizes. A monoid:
/// per-partition or per-shard accumulators Merge into exactly what one
/// accumulator fed the whole stream would hold (totals add in merge order).
struct SizeAccumulator {
  size_t count = 0;
  size_t min = 0;
  size_t max = 0;
  double total = 0;

  void Add(size_t size) {
    min = count == 0 ? size : std::min(min, size);
    max = std::max(max, size);
    total += static_cast<double>(size);
    ++count;
  }

  void Merge(const SizeAccumulator& other) {
    if (other.count == 0) return;
    min = count == 0 ? other.min : std::min(min, other.min);
    max = std::max(max, other.max);
    total += other.total;
    count += other.count;
  }

  double avg() const {
    return count ? total / static_cast<double>(count) : 0.0;
  }
};

/// The full row of Tables 2-5 for one (dataset, size) cell.
struct TableRow {
  size_t record_count = 0;
  size_t distinct_types = 0;
  SizeStats inferred;     // over the distinct inferred types
  size_t fused_size = 0;  // AST size of the fused type
};

}  // namespace jsonsi::stats

#endif  // JSONSI_STATS_TYPE_STATS_H_
