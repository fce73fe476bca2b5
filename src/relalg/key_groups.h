// First-occurrence grouping of chunk rows by typed key columns: the one
// grouping every columnar scan shares — the base query's DISTINCT, the
// GMDJ kernel's group maps, and the fused Prop. 2 base-and-GMDJ pass.
//
// Group g is the g-th distinct key met, so the groups of a relation
// streamed in row order are exactly its distinct key projection in
// first-occurrence order. Keys are hashed a column at a time straight
// from the typed vectors, compared against the stored keys without
// boxing the chunk cells, and boxed once, when their group is created.
// Equality is Value::Equals: NULL equals NULL, -0.0 equals 0.0, and NaN
// equals nothing, so a key holding a NaN opens a new group every time.

#ifndef SKALLA_RELALG_KEY_GROUPS_H_
#define SKALLA_RELALG_KEY_GROUPS_H_

#include <cstdint>
#include <vector>

#include "storage/chunk.h"
#include "types/row.h"

namespace skalla {

class KeyGroups {
 public:
  /// The group id Assign reports for rows the selection removed.
  static constexpr uint32_t kNoGroup = UINT32_MAX;

  /// Groups on chunk columns `key_cols` (a column may repeat).
  explicit KeyGroups(std::vector<size_t> key_cols);

  /// Writes the group of every row of `chunk` to `groups` (resized to
  /// chunk.num_rows()), creating groups for keys met for the first time.
  /// Rows with sel[r] == 0 get kNoGroup and create nothing; `sel` may be
  /// nullptr (every row selected).
  void Assign(const Chunk& chunk, const uint8_t* sel,
              std::vector<uint32_t>* groups);

  /// The group whose key equals `row`'s cells at `cols` (one per key
  /// column, Value::Equals), or -1.
  int64_t Find(const Row& row, const std::vector<size_t>& cols) const;

  size_t size() const { return keys_.size(); }

  /// Group g's key, in key-column order.
  const Row& key(size_t g) const { return keys_[g]; }

  /// Moves the keys out (group order); the groups are empty afterwards.
  std::vector<Row> TakeKeys();

 private:
  bool KeyEquals(const Chunk& chunk, size_t r, const Row& key) const;
  void Grow();

  std::vector<size_t> cols_;
  // Open addressing: each slot holds a group id or kNoGroup; the table
  // doubles whenever it would pass half full.
  std::vector<uint32_t> slots_;
  std::vector<uint64_t> hashes_;  // per group
  std::vector<Row> keys_;         // per group
  std::vector<uint64_t> row_hashes_;  // Assign's per-chunk scratch
};

}  // namespace skalla

#endif  // SKALLA_RELALG_KEY_GROUPS_H_
