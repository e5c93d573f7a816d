#ifndef LAWSDB_CORE_ADVISOR_H_
#define LAWSDB_CORE_ADVISOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "model/fit.h"
#include "storage/table.h"

namespace laws {

/// One candidate model class evaluated by the advisor.
struct ModelCandidate {
  std::string model_source;
  bool fitted = false;
  /// Ungrouped: the fit of the (sampled) rows. Grouped: the aggregate
  /// over the sampled groups, whose `quality` holds their mean BIC and
  /// mean R²; it has no parameters, since each group has its own.
  FitOutput fit;
  /// Selection criterion, `fit.quality.bic`: lower is better (BetterFit).
  double bic = 0.0;
  /// `fit.quality.r_squared`.
  double r_squared = 0.0;
  std::string failure;  // why the fit failed, when !fitted
};

/// Controls for the advisor.
struct AdvisorOptions {
  /// Model classes to try. Empty = the default battery:
  /// linear(1), poly(2), poly(3), power_law, exponential, logistic.
  std::vector<std::string> candidate_sources;
  /// Grouped: number of groups sampled for the trial fits.
  size_t sample_groups = 32;
};

/// The paper's vision is *autonomous and proactive* harvesting: the
/// database should be able to propose model classes itself, not only
/// intercept user fits (§6 also notes that "focusing on a single class of
/// models ... is unlikely to cover enough ground"). The advisor fits a
/// battery of model classes to (input, output) — optionally per group —
/// and ranks them by BIC (BetterFit, the rule the learner also promotes
/// by), which trades fit quality against parameter count. Candidates
/// whose fit fails (domain violations, divergence) are reported with the
/// reason rather than dropped. A table of more than 20,000 usable rows is
/// sampled down to 20,000, uniformly and with a fixed seed.
///
/// Returns candidates sorted best-first (fitted ones by ascending BIC,
/// failed ones last). TypeMismatch for a STRING column, InvalidArgument
/// when no candidate applies at all.
Result<std::vector<ModelCandidate>> SuggestModels(
    const Table& table, const std::string& input_column,
    const std::string& output_column, const AdvisorOptions& options = {});

/// Grouped variant: samples `options.sample_groups` groups with a fixed
/// seed, fits every candidate to the sampled groups with FitGrouped, and
/// ranks classes by mean BIC over the groups of at least 8 rows; a class
/// that fails on more than a quarter as many groups as it fits does not
/// qualify. Useful before committing to a 35k-group fit.
Result<std::vector<ModelCandidate>> SuggestGroupedModels(
    const Table& table, const std::string& group_column,
    const std::string& input_column, const std::string& output_column,
    const AdvisorOptions& options = {});

}  // namespace laws

#endif  // LAWSDB_CORE_ADVISOR_H_
