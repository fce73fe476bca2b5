// Typed column storage: the columnar counterpart of a Row's cell. Values
// live in contiguous typed vectors with a separate validity vector, so
// scans touch raw int64/double arrays instead of boxed Values.

#ifndef SKALLA_COLUMNAR_COLUMN_H_
#define SKALLA_COLUMNAR_COLUMN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "types/value.h"

namespace skalla {

/// One typed column. The declared type fixes which typed vector backs
/// the column; NULLs are tracked in the validity vector.
class Column {
 public:
  explicit Column(ValueType type) : type_(type) {}

  ValueType type() const { return type_; }
  size_t size() const { return valid_.size(); }

  /// Appends a cell. The value must be NULL or match the column type
  /// (INT64 accepts integral FLOAT64 per the engine's numeric
  /// compatibility and vice versa).
  Status Append(const Value& v);

  /// Typed appends for callers that already hold the column's own type
  /// (the chunk-file page decoder): no boxing, no coercion. The typed
  /// ones must match type(); AppendNull fits every column.
  void AppendNull();
  void AppendInt64(int64_t v) {
    valid_.push_back(1);
    ints_.push_back(v);
  }
  void AppendFloat64(double v) {
    valid_.push_back(1);
    doubles_.push_back(v);
  }
  void AppendString(std::string v) {
    valid_.push_back(1);
    strings_.push_back(std::move(v));
  }

  bool IsNull(size_t i) const { return valid_[i] == 0; }

  /// Typed accessors; only meaningful when !IsNull(i) and the type
  /// matches.
  int64_t Int64At(size_t i) const { return ints_[i]; }
  double Float64At(size_t i) const { return doubles_[i]; }
  const std::string& StringAt(size_t i) const { return strings_[i]; }

  /// Boxes cell i back into a Value.
  Value GetValue(size_t i) const;

  /// Hash of cell i, consistent with Value::Hash of the boxed value.
  uint64_t HashAt(size_t i) const;

  /// hashes[i] = HashCombine(hashes[i], HashAt(i)) for every cell: HashAt
  /// a column at a time, the type dispatched once.
  void CombineHashes(uint64_t* hashes) const;

  void Reserve(size_t n);

 private:
  ValueType type_;
  std::vector<uint8_t> valid_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

}  // namespace skalla

#endif  // SKALLA_COLUMNAR_COLUMN_H_
