// Value: the dynamically-typed scalar flowing through the relational
// evaluator. SQL three-valued NULL semantics are handled at comparison
// sites (see Compare below).

#ifndef EVE_TYPES_VALUE_H_
#define EVE_TYPES_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

#include "common/result.h"
#include "types/data_type.h"
#include "types/date.h"

namespace eve {

class Value {
 public:
  // NULL value.
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(std::in_place_type<bool>, v); }
  static Value Int(int64_t v) { return Value(std::in_place_type<int64_t>, v); }
  static Value Double(double v) {
    return Value(std::in_place_type<double>, v);
  }
  static Value String(std::string v) {
    return Value(std::in_place_type<std::string>, std::move(v));
  }
  static Value MakeDate(Date v) { return Value(std::in_place_type<Date>, v); }

  DataType type() const;

  bool is_null() const { return std::holds_alternative<std::monostate>(rep_); }

  // Accessors abort on type mismatch (callers check type() first or rely on
  // typed plans).
  bool bool_value() const { return std::get<bool>(rep_); }
  int64_t int_value() const { return std::get<int64_t>(rep_); }
  double double_value() const { return std::get<double>(rep_); }
  const std::string& string_value() const { return std::get<std::string>(rep_); }
  const Date& date_value() const { return std::get<Date>(rep_); }

  // Numeric view: int or double widened to double; error otherwise.
  Result<double> AsDouble() const;

  // Renders for display; strings are single-quoted, NULL prints as "NULL".
  std::string ToString() const;

  // Strict equality: same type and same value (NULL == NULL here; SQL
  // NULL semantics are applied by Compare / the evaluator, not here).
  bool operator==(const Value& other) const { return rep_ == other.rep_; }

  // Total order over same-kind values for sorting/dedup within a column:
  // NULL < bool < numeric < string < date.
  bool operator<(const Value& other) const;

 private:
  using Rep =
      std::variant<std::monostate, bool, int64_t, double, std::string, Date>;

  // Builds the alternative in place: moving a temporary Rep in trips
  // GCC 12's -Wmaybe-uninitialized on the string alternative.
  template <typename T>
  Value(std::in_place_type_t<T> type, T v) : rep_(type, std::move(v)) {}

  Rep rep_;
};

enum class CompareResult {
  kLess,
  kEqual,
  kGreater,
  kNull,         // at least one operand is NULL (SQL: unknown)
  kIncomparable  // type mismatch (e.g. string vs int)
};

// SQL-style comparison with numeric widening; never aborts.
CompareResult Compare(const Value& a, const Value& b);

std::ostream& operator<<(std::ostream& os, const Value& value);

}  // namespace eve

#endif  // EVE_TYPES_VALUE_H_
