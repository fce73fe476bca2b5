#include "storage/hash_index.h"

#include <utility>

#include "common/macros.h"

namespace skalla {

HashIndex HashIndex::Build(const Table& table,
                           std::vector<size_t> key_columns) {
  HashIndex index;
  index.table_ = &table;
  index.key_columns_ = std::move(key_columns);
  index.buckets_.reserve(table.num_rows());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    const Row& row = table.row(i);
    uint64_t h = HashRowKey(row, index.key_columns_);
    std::vector<Group>& groups = index.buckets_[h];
    Group* target = nullptr;
    for (Group& g : groups) {
      if (RowKeyEquals(row, index.key_columns_, table.row(g.repr),
                       index.key_columns_)) {
        target = &g;
        break;
      }
    }
    if (target == nullptr) {
      groups.push_back(Group{static_cast<uint32_t>(i), {}});
      target = &groups.back();
      ++index.num_keys_;
    }
    target->rows.push_back(static_cast<uint32_t>(i));
  }
  return index;
}

const std::vector<uint32_t>* HashIndex::Lookup(
    const Row& probe, const std::vector<size_t>& probe_columns) const {
  SKALLA_DCHECK(probe_columns.size() == key_columns_.size(),
                "probe arity must match indexed key arity");
  uint64_t h = HashRowKey(probe, probe_columns);
  auto it = buckets_.find(h);
  if (it == buckets_.end()) return nullptr;
  for (const Group& g : it->second) {
    if (RowKeyEquals(probe, probe_columns, table_->row(g.repr),
                     key_columns_)) {
      return &g.rows;
    }
  }
  return nullptr;
}

}  // namespace skalla
