#include "relalg/key_groups.h"

#include <utility>

#include "common/hash.h"

namespace skalla {

namespace {

constexpr uint64_t kKeySeed = 0x5ca11aULL;  // Must match HashRowKey's seed.
constexpr size_t kInitialSlots = 64;

}  // namespace

KeyGroups::KeyGroups(std::vector<size_t> key_cols)
    : cols_(std::move(key_cols)), slots_(kInitialSlots, kNoGroup) {}

bool KeyGroups::KeyEquals(const Chunk& chunk, size_t r,
                          const Row& key) const {
  for (size_t k = 0; k < cols_.size(); ++k) {
    const Column& col = chunk.column(cols_[k]);
    if (col.IsNull(r) || key[k].is_null()) {
      if (col.IsNull(r) != key[k].is_null()) return false;
      continue;
    }
    bool equal = false;
    switch (col.type()) {
      case ValueType::kInt64:
        equal = col.Int64At(r) == key[k].int64();
        break;
      case ValueType::kFloat64:
        equal = col.Float64At(r) == key[k].float64();
        break;
      case ValueType::kString:
        equal = col.StringAt(r) == key[k].str();
        break;
      case ValueType::kNull:
        break;
    }
    if (!equal) return false;
  }
  return true;
}

void KeyGroups::Grow() {
  std::vector<uint32_t> slots(slots_.size() * 2, kNoGroup);
  const size_t mask = slots.size() - 1;
  for (uint32_t g = 0; g < hashes_.size(); ++g) {
    size_t s = hashes_[g] & mask;
    while (slots[s] != kNoGroup) s = (s + 1) & mask;
    slots[s] = g;
  }
  slots_ = std::move(slots);
}

void KeyGroups::Assign(const Chunk& chunk, const uint8_t* sel,
                       std::vector<uint32_t>* groups) {
  const size_t n = chunk.num_rows();
  groups->resize(n);
  row_hashes_.assign(n, kKeySeed);
  for (size_t c : cols_) chunk.column(c).CombineHashes(row_hashes_.data());
  for (size_t r = 0; r < n; ++r) {
    if (sel != nullptr && !sel[r]) {
      (*groups)[r] = kNoGroup;
      continue;
    }
    const uint64_t h = row_hashes_[r];
    size_t mask = slots_.size() - 1;
    size_t s = h & mask;
    uint32_t found = kNoGroup;
    for (; slots_[s] != kNoGroup; s = (s + 1) & mask) {
      const uint32_t g = slots_[s];
      if (hashes_[g] == h && KeyEquals(chunk, r, keys_[g])) {
        found = g;
        break;
      }
    }
    if (found == kNoGroup) {
      found = static_cast<uint32_t>(keys_.size());
      Row key;
      key.reserve(cols_.size());
      for (size_t c : cols_) key.push_back(chunk.column(c).GetValue(r));
      keys_.push_back(std::move(key));
      hashes_.push_back(h);
      if (keys_.size() * 2 > slots_.size()) {
        Grow();  // re-places every group, this one included
      } else {
        slots_[s] = found;
      }
    }
    (*groups)[r] = found;
  }
}

int64_t KeyGroups::Find(const Row& row,
                        const std::vector<size_t>& cols) const {
  const uint64_t h = HashRowKey(row, cols);
  const size_t mask = slots_.size() - 1;
  for (size_t s = h & mask; slots_[s] != kNoGroup; s = (s + 1) & mask) {
    const uint32_t g = slots_[s];
    if (hashes_[g] != h) continue;
    const Row& key = keys_[g];
    bool equal = true;
    for (size_t c = 0; c < key.size() && equal; ++c) {
      equal = row[cols[c]].Equals(key[c]);
    }
    if (equal) return g;
  }
  return -1;
}

std::vector<Row> KeyGroups::TakeKeys() {
  std::vector<Row> keys = std::move(keys_);
  keys_.clear();
  hashes_.clear();
  slots_.assign(kInitialSlots, kNoGroup);
  return keys;
}

}  // namespace skalla
