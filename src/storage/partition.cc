#include "storage/partition.h"

#include "common/macros.h"
#include "common/string_util.h"

namespace skalla {

bool ColumnDistribution::MayContain(const Value& v) const {
  if (values.has_value()) return values->Contains(v);
  if (v.is_numeric() && (min.has_value() || max.has_value())) {
    double d = v.AsDouble();
    if (min.has_value() && d < *min) return false;
    if (max.has_value() && d > *max) return false;
  }
  return true;  // Nothing known: conservatively possible.
}

void PartitionInfo::SetDistribution(size_t site, const std::string& column,
                                    ColumnDistribution dist) {
  std::vector<ColumnDistribution>& per_site = columns_[column];
  if (per_site.size() < num_sites_) per_site.resize(num_sites_);
  per_site[site] = std::move(dist);
}

const ColumnDistribution* PartitionInfo::GetDistribution(
    size_t site, std::string_view column) const {
  auto it = columns_.find(std::string(column));
  if (it == columns_.end()) return nullptr;
  if (site >= it->second.size()) return nullptr;
  return &it->second[site];
}

bool PartitionInfo::IsPartitionAttribute(std::string_view column) const {
  auto it = columns_.find(std::string(column));
  if (it == columns_.end()) return false;
  const std::vector<ColumnDistribution>& per_site = it->second;
  if (per_site.size() != num_sites_) return false;
  for (const ColumnDistribution& d : per_site) {
    if (!d.values.has_value()) return false;
  }
  for (size_t i = 0; i < per_site.size(); ++i) {
    for (size_t j = i + 1; j < per_site.size(); ++j) {
      if (per_site[i].values->Intersects(*per_site[j].values)) return false;
    }
  }
  return true;
}

std::vector<std::string> PartitionInfo::TrackedColumns() const {
  std::vector<std::string> out;
  out.reserve(columns_.size());
  for (const auto& [name, dists] : columns_) out.push_back(name);
  return out;
}

Result<PartitionInfo> PartitionInfo::ComputeFromPartitions(
    const std::vector<Table>& partitions,
    const std::vector<std::string>& columns) {
  PartitionInfo info(partitions.size());
  for (const std::string& column : columns) {
    for (size_t site = 0; site < partitions.size(); ++site) {
      const Table& part = partitions[site];
      SKALLA_ASSIGN_OR_RETURN(size_t col,
                              part.schema()->RequireIndex(column));
      DistributionBuilder builder;
      for (size_t r = 0; r < part.num_rows(); ++r) {
        builder.Add(part.at(r, col));
      }
      info.SetDistribution(site, column, builder.Finish());
    }
  }
  return info;
}

namespace {

Result<std::vector<Table>> MakeEmptyPartitions(const Table& table,
                                               size_t num_sites) {
  if (num_sites == 0) {
    return Status::InvalidArgument("cannot partition into 0 sites");
  }
  std::vector<Table> parts;
  parts.reserve(num_sites);
  for (size_t i = 0; i < num_sites; ++i) parts.emplace_back(table.schema());
  return parts;
}

}  // namespace

Result<std::vector<Table>> PartitionByValue(const Table& table,
                                            std::string_view column,
                                            size_t num_sites) {
  SKALLA_ASSIGN_OR_RETURN(std::vector<Table> parts,
                          MakeEmptyPartitions(table, num_sites));
  SKALLA_ASSIGN_OR_RETURN(size_t col, table.schema()->RequireIndex(column));
  for (size_t r = 0; r < table.num_rows(); ++r) {
    size_t site = table.at(r, col).Hash() % num_sites;
    parts[site].AppendUnchecked(table.row(r));
  }
  return parts;
}

Result<std::vector<Table>> PartitionByModulo(const Table& table,
                                             std::string_view column,
                                             size_t num_sites) {
  SKALLA_ASSIGN_OR_RETURN(std::vector<Table> parts,
                          MakeEmptyPartitions(table, num_sites));
  SKALLA_ASSIGN_OR_RETURN(size_t col, table.schema()->RequireIndex(column));
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const Value& v = table.at(r, col);
    if (!v.is_int64()) {
      return Status::TypeError(
          StrCat("PartitionByModulo requires INT64 values in column '",
                 column, "', got ", v.ToString()));
    }
    int64_t m = v.int64() % static_cast<int64_t>(num_sites);
    if (m < 0) m += static_cast<int64_t>(num_sites);
    parts[static_cast<size_t>(m)].AppendUnchecked(table.row(r));
  }
  return parts;
}

Result<std::vector<Table>> PartitionRoundRobin(const Table& table,
                                               size_t num_sites) {
  SKALLA_ASSIGN_OR_RETURN(std::vector<Table> parts,
                          MakeEmptyPartitions(table, num_sites));
  for (size_t r = 0; r < table.num_rows(); ++r) {
    parts[r % num_sites].AppendUnchecked(table.row(r));
  }
  return parts;
}

}  // namespace skalla
