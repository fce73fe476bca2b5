#include "columnar/column.h"

#include <cmath>

#include "common/hash.h"
#include "common/string_util.h"

namespace skalla {

void Column::AppendNull() {
  valid_.push_back(0);
  switch (type_) {
    case ValueType::kInt64:
      ints_.push_back(0);
      break;
    case ValueType::kFloat64:
      doubles_.push_back(0.0);
      break;
    case ValueType::kString:
      strings_.emplace_back();
      break;
    default:
      break;
  }
}

Status Column::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case ValueType::kInt64: {
      if (!v.is_numeric()) {
        return Status::TypeError(
            StrCat("cannot store ", v.ToString(), " in an INT64 column"));
      }
      int64_t stored;
      if (v.is_int64()) {
        stored = v.int64();
      } else {
        // Only integral doubles may enter an INT64 column: silent
        // truncation would diverge from the row engine's semantics.
        double d = v.float64();
        stored = static_cast<int64_t>(d);
        if (static_cast<double>(stored) != d) {
          return Status::TypeError(
              StrCat("non-integral value ", v.ToString(),
                     " cannot be stored in an INT64 column"));
        }
      }
      AppendInt64(stored);
      return Status::OK();
    }
    case ValueType::kFloat64:
      if (!v.is_numeric()) {
        return Status::TypeError(
            StrCat("cannot store ", v.ToString(), " in a FLOAT64 column"));
      }
      AppendFloat64(v.AsDouble());
      return Status::OK();
    case ValueType::kString:
      if (!v.is_string()) {
        return Status::TypeError(
            StrCat("cannot store ", v.ToString(), " in a STRING column"));
      }
      AppendString(v.str());
      return Status::OK();
    case ValueType::kNull:
      return Status::TypeError("cannot store values in an untyped column");
  }
  return Status::Internal("unknown column type");
}

Value Column::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case ValueType::kInt64:
      return Value(ints_[i]);
    case ValueType::kFloat64:
      return Value(doubles_[i]);
    case ValueType::kString:
      return Value(strings_[i]);
    default:
      return Value::Null();
  }
}

namespace {

// Value::Hash of a FLOAT64: integral doubles hash as their integer value,
// so Equals and Hash agree across INT64/FLOAT64 (and -0.0 with 0.0).
uint64_t HashDouble(double d) {
  if (d >= -9.2e18 && d <= 9.2e18 && d == std::floor(d)) {
    return Mix64(static_cast<uint64_t>(static_cast<int64_t>(d)));
  }
  uint64_t bits;
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return Mix64(bits);
}

constexpr uint64_t kNullHash = 0x6b7bull;  // Matches Value::Hash for NULL.

}  // namespace

uint64_t Column::HashAt(size_t i) const {
  if (IsNull(i)) return kNullHash;
  switch (type_) {
    case ValueType::kInt64:
      return Mix64(static_cast<uint64_t>(ints_[i]));
    case ValueType::kFloat64:
      return HashDouble(doubles_[i]);
    case ValueType::kString:
      return HashString(strings_[i]);
    default:
      return 0;
  }
}

void Column::CombineHashes(uint64_t* hashes) const {
  const size_t n = size();
  switch (type_) {
    case ValueType::kInt64:
      for (size_t i = 0; i < n; ++i) {
        hashes[i] = HashCombine(
            hashes[i],
            valid_[i] ? Mix64(static_cast<uint64_t>(ints_[i])) : kNullHash);
      }
      return;
    case ValueType::kFloat64:
      for (size_t i = 0; i < n; ++i) {
        hashes[i] = HashCombine(
            hashes[i], valid_[i] ? HashDouble(doubles_[i]) : kNullHash);
      }
      return;
    case ValueType::kString:
      for (size_t i = 0; i < n; ++i) {
        hashes[i] = HashCombine(
            hashes[i], valid_[i] ? HashString(strings_[i]) : kNullHash);
      }
      return;
    default:
      for (size_t i = 0; i < n; ++i) {
        hashes[i] = HashCombine(hashes[i], HashAt(i));
      }
      return;
  }
}

void Column::Reserve(size_t n) {
  valid_.reserve(n);
  switch (type_) {
    case ValueType::kInt64:
      ints_.reserve(n);
      break;
    case ValueType::kFloat64:
      doubles_.reserve(n);
      break;
    case ValueType::kString:
      strings_.reserve(n);
      break;
    default:
      break;
  }
}

}  // namespace skalla
