#ifndef LAWSDB_AQP_SAMPLING_AQP_H_
#define LAWSDB_AQP_SAMPLING_AQP_H_

#include <string>

#include "common/random.h"
#include "common/result.h"
#include "query/ast.h"
#include "storage/table.h"

namespace laws {

/// An aggregate estimate with a CLT confidence interval.
struct SampleEstimate {
  double value = 0.0;
  /// Half-width of the ~95% confidence interval.
  double ci_half_width = 0.0;
  size_t sample_rows_used = 0;
};

/// The sampling-based AQP baseline (paper §1, refs [16, 2] — SciBORQ /
/// BlinkDB style): a uniform row sample is drawn once; aggregate queries
/// are answered from the sample with scaled estimators and CLT error bars.
class SamplingEngine {
 public:
  /// Draws a uniform sample of ~`fraction` of the table's rows.
  static Result<SamplingEngine> Build(const Table& table, double fraction,
                                      uint64_t seed = 42);

  const Table& sample() const { return sample_; }
  size_t sample_rows() const { return sample_.num_rows(); }
  double fraction() const { return actual_fraction_; }
  size_t SampleBytes() const { return sample_.MemoryBytes(); }

  /// Estimates agg(column) over rows satisfying `where` (may be null).
  /// COUNT and SUM are scaled by 1/fraction; AVG/MIN/MAX are unscaled
  /// (MIN/MAX from a sample are biased — reported without a CI).
  Result<SampleEstimate> EstimateAggregate(AggregateFunc agg,
                                           const std::string& column,
                                           const Expr* where) const;

 private:
  SamplingEngine(Table sample, double actual_fraction, size_t population_rows)
      : sample_(std::move(sample)),
        actual_fraction_(actual_fraction),
        population_rows_(population_rows) {}

  Table sample_;
  double actual_fraction_;
  size_t population_rows_;
};

/// BlinkDB-style *stratified* sample: every group keeps up to
/// `per_group_cap` rows regardless of its size, so selective per-group
/// predicates still find sample rows (the failure mode of uniform samples
/// the paper's AQP comparison exposes). Rows carry per-group weights
/// group_size / sampled_size; estimators are Horvitz-Thompson style.
class StratifiedSamplingEngine {
 public:
  /// Builds the sample over `group_column` (INT64).
  static Result<StratifiedSamplingEngine> Build(const Table& table,
                                                const std::string& group_column,
                                                size_t per_group_cap,
                                                uint64_t seed = 42);

  /// Weighted estimate of agg(column) over rows satisfying `where`.
  /// COUNT/SUM scale by row weights; AVG is the weighted mean; MIN/MAX are
  /// unscaled sample extremes (no CI).
  Result<SampleEstimate> EstimateAggregate(AggregateFunc agg,
                                           const std::string& column,
                                           const Expr* where) const;

  size_t sample_rows() const { return sample_.num_rows(); }
  size_t SampleBytes() const { return sample_.MemoryBytes(); }
  size_t num_groups() const { return num_groups_; }

 private:
  StratifiedSamplingEngine(Table sample, std::vector<double> weights,
                           size_t num_groups)
      : sample_(std::move(sample)),
        weights_(std::move(weights)),
        num_groups_(num_groups) {}

  Table sample_;
  std::vector<double> weights_;  // parallel to sample_ rows
  size_t num_groups_;
};

}  // namespace laws

#endif  // LAWSDB_AQP_SAMPLING_AQP_H_
