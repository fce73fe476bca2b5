// Partitioning metadata and horizontal partitioning of relations across
// Skalla sites.
//
// PartitionInfo is the "distribution knowledge" of Sect. 4 of the paper:
// per site and per column, the set of values (and/or numeric range) that
// can occur there. The optimizer uses it to derive the ¬ψ_i predicates of
// Theorem 4 (distribution-aware group reduction) and to detect partition
// attributes (Definition 2) for synchronization reduction (Corollary 1).

#ifndef SKALLA_STORAGE_PARTITION_H_
#define SKALLA_STORAGE_PARTITION_H_

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/table.h"
#include "types/value.h"
#include "types/value_set.h"

namespace skalla {

/// What is known about one column of one site's local partition.
struct ColumnDistribution {
  /// Exact set of values present at the site, if known.
  std::optional<ValueSet> values;

  /// Numeric [min, max] range of the column at the site, if known.
  std::optional<double> min;
  std::optional<double> max;

  /// Whether value `v` may occur at the site. Conservative: returns true
  /// when nothing is known; consults the exact value set when known,
  /// else the range.
  bool MayContain(const Value& v) const;
};

/// Distribution knowledge for one partitioned relation across all sites.
class PartitionInfo {
 public:
  PartitionInfo() = default;
  explicit PartitionInfo(size_t num_sites) : num_sites_(num_sites) {}

  size_t num_sites() const { return num_sites_; }

  /// Records what is known about `column` at `site`.
  void SetDistribution(size_t site, const std::string& column,
                       ColumnDistribution dist);

  /// What is known about `column` at `site`; nullptr if nothing.
  const ColumnDistribution* GetDistribution(size_t site,
                                            std::string_view column) const;

  /// Definition 2: `column` is a partition attribute iff the per-site value
  /// sets are all known and pairwise disjoint.
  bool IsPartitionAttribute(std::string_view column) const;

  /// Names of all columns with recorded distribution knowledge.
  std::vector<std::string> TrackedColumns() const;

  /// Builds exact distribution knowledge by scanning actual partitions:
  /// for each listed column, each site's DistributionBuilder (exact value
  /// set plus numeric range) is fed the partition's values in row order.
  static Result<PartitionInfo> ComputeFromPartitions(
      const std::vector<Table>& partitions,
      const std::vector<std::string>& columns);

 private:
  size_t num_sites_ = 0;
  // column -> one ColumnDistribution per site.
  std::unordered_map<std::string, std::vector<ColumnDistribution>> columns_;
};

/// Accumulator for one site x column ColumnDistribution: the exact value
/// set plus the numeric range, fed one value at a time. The one source
/// of distribution knowledge — ComputeFromPartitions scans resident
/// partitions through it, and skalla-dataset feeds it while routing
/// generated rows straight to chunk files.
class DistributionBuilder {
 public:
  DistributionBuilder() { dist_.values.emplace(); }

  void Add(const Value& v) {
    dist_.values->Insert(v);
    if (v.is_numeric()) {
      double d = v.AsDouble();
      if (!any_numeric_) {
        dist_.min = d;
        dist_.max = d;
        any_numeric_ = true;
      } else {
        if (d < *dist_.min) dist_.min = d;
        if (d > *dist_.max) dist_.max = d;
      }
    }
  }

  ColumnDistribution Finish() { return std::move(dist_); }

 private:
  ColumnDistribution dist_;
  bool any_numeric_ = false;
};

/// Horizontally partitions `table` into `num_sites` pieces such that all
/// rows sharing a value of `column` land on the same site (site chosen by
/// value hash). This makes `column` a partition attribute of the result.
Result<std::vector<Table>> PartitionByValue(const Table& table,
                                            std::string_view column,
                                            size_t num_sites);

/// Partitions `table` into `num_sites` pieces round-robin (no partition
/// attribute; used as the "no distribution knowledge" baseline).
Result<std::vector<Table>> PartitionRoundRobin(const Table& table,
                                               size_t num_sites);

/// Partitions by `column % num_sites` (the column must be integral).
/// Spreads consecutive key values evenly — the paper's "divided equally"
/// layout for NationKey — while keeping `column` a partition attribute.
Result<std::vector<Table>> PartitionByModulo(const Table& table,
                                             std::string_view column,
                                             size_t num_sites);

}  // namespace skalla

#endif  // SKALLA_STORAGE_PARTITION_H_
