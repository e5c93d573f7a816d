#ifndef LAWSDB_QUERY_AGG_STATE_H_
#define LAWSDB_QUERY_AGG_STATE_H_

#include <cmath>
#include <limits>
#include <string>

#include "query/ast.h"
#include "storage/types.h"

namespace laws {

/// Accumulator for one aggregate over one group, shared between the
/// row-sweep aggregator in executor.cc and the encoded aggregator in
/// compressed_scan.cc — both paths must finalize through the same
/// AggFinalValue so their results are bit-identical. SQL semantics: NULLs
/// are ignored; COUNT(*) counts rows; empty groups cannot occur (hash
/// groups exist only for seen keys).
struct AggState {
  size_t count = 0;       // non-null inputs (or rows for COUNT(*))
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  // Welford accumulators for VARIANCE/STDDEV.
  double mean = 0.0;
  double m2 = 0.0;
  bool any = false;
  // MIN/MAX skip NaN, so a group whose inputs were all NaN never updates
  // min/max; this flag distinguishes that case (result NaN) from the
  // untouched ±inf seeds leaking out.
  bool saw_comparable = false;
  // For MIN/MAX over strings.
  std::string smin, smax;
  bool is_string = false;
};

inline Value AggFinalValue(const Expr& agg, const AggState& s) {
  switch (agg.aggregate_func) {
    case AggregateFunc::kCount:
      return Value::Int64(static_cast<int64_t>(s.count));
    case AggregateFunc::kSum:
      return s.any ? Value::Double(s.sum) : Value::Null();
    case AggregateFunc::kAvg:
      return s.count > 0 ? Value::Double(s.sum / static_cast<double>(s.count))
                         : Value::Null();
    case AggregateFunc::kMin:
      if (!s.any) return Value::Null();
      if (s.is_string) return Value::String(s.smin);
      return s.saw_comparable
                 ? Value::Double(s.min)
                 : Value::Double(std::numeric_limits<double>::quiet_NaN());
    case AggregateFunc::kMax:
      if (!s.any) return Value::Null();
      if (s.is_string) return Value::String(s.smax);
      return s.saw_comparable
                 ? Value::Double(s.max)
                 : Value::Double(std::numeric_limits<double>::quiet_NaN());
    case AggregateFunc::kVariance:
      return s.count > 1 && !s.is_string
                 ? Value::Double(s.m2 / static_cast<double>(s.count - 1))
                 : Value::Null();
    case AggregateFunc::kStddev:
      return s.count > 1 && !s.is_string
                 ? Value::Double(
                       std::sqrt(s.m2 / static_cast<double>(s.count - 1)))
                 : Value::Null();
  }
  return Value::Null();
}

}  // namespace laws

#endif  // LAWSDB_QUERY_AGG_STATE_H_
