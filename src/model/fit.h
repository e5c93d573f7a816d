#ifndef LAWSDB_MODEL_FIT_H_
#define LAWSDB_MODEL_FIT_H_

#include <string>

#include "common/result.h"
#include "linalg/matrix.h"
#include "linalg/solve.h"
#include "model/model.h"
#include "stats/goodness_of_fit.h"

namespace laws {

/// Fitting algorithms (paper §3): OLS with an analytic solution for models
/// linear in their parameters, iterative optimization (Gauss-Newton /
/// Levenberg-Marquardt) otherwise.
enum class FitAlgorithm {
  /// Closed form over running sums for models with an exact
  /// Linearization() (power law, exponential, log law, simple linear) —
  /// no design matrix, no solver, no iteration — when the data lies in the
  /// transform's domain; otherwise OLS for linear models and log-linear
  /// warm start + Levenberg-Marquardt for the rest.
  kAuto,
  /// OLS via Householder QR (requires IsLinearInParameters()).
  kOls,
  /// OLS via normal equations + Cholesky; ablation baseline, squares the
  /// condition number.
  kOlsNormalEquations,
  /// Plain Gauss-Newton iteration.
  kGaussNewton,
  /// Levenberg-Marquardt damped Gauss-Newton.
  kLevenbergMarquardt,
  /// Closed-form estimate in transformed space only (e.g. log-log OLS for
  /// power laws); error if the model has no such transformation.
  kLogLinear,
};

std::string_view FitAlgorithmToString(FitAlgorithm a);

/// Controls for FitModel.
struct FitOptions {
  FitAlgorithm algorithm = FitAlgorithm::kAuto;
  size_t max_iterations = 100;
  /// Converged when the relative step norm falls below this.
  double parameter_tolerance = 1e-10;
  /// ... or when the relative RSS improvement falls below this.
  double residual_tolerance = 1e-12;
  /// Starting point for iterative algorithms; empty = model default /
  /// log-linear estimate.
  Vector initial_parameters;
  /// Initial Levenberg-Marquardt damping.
  double initial_lambda = 1e-3;
  /// Compute per-parameter standard errors from sigma^2 (J^T J)^{-1}.
  bool compute_standard_errors = true;
};

/// The outcome of a fit: estimated parameters plus the quality metadata the
/// capture layer stores alongside the model.
struct FitOutput {
  Vector parameters;
  FitQuality quality;
  /// Per-parameter standard errors (empty when not computed or when the
  /// information matrix is singular).
  Vector standard_errors;
  size_t iterations = 0;
  bool converged = false;
  FitAlgorithm algorithm_used = FitAlgorithm::kAuto;
};

/// Reusable per-lane workspace for the fit kernels. FitGrouped owns one
/// per ParallelFor lane and threads it through FitModel down to the
/// linear-algebra layer, so the thousands of small per-group fits reuse a
/// handful of heap buffers instead of allocating Matrix/Vector temporaries
/// on every group and every LM iteration. Buffers hold unspecified values
/// between calls; every consumer resizes before use. Default-constructed
/// cost is zero — a cold FitScratch is just empty vectors.
struct FitScratch {
  // Group gather staging (grouped fit): observation matrix, outputs, and
  // one column's worth of gather staging.
  Matrix inputs;
  Vector outputs;
  Vector column;
  // Transformed-space staging for the closed-form linearized kernel.
  Vector tx;
  Vector ty;
  // Per-row model evaluation temporaries.
  Vector xrow;
  Vector grad;
  Vector phi;
  // Prediction / residual vectors.
  Vector pred;
  Vector cand_pred;
  Vector residuals;
  // Dense factors and systems.
  Matrix design;
  Matrix jacobian;
  Matrix jtj;
  Matrix system;
  Matrix chol;
  QrFactors qr;
  // Solver right-hand sides and iterates.
  Vector jtr;
  Vector step;
  Vector candidate;
  Vector warm;
  Vector qtb;
};

/// Fits `model` to observations: `inputs` is n x num_inputs, `outputs` has
/// n entries. Returns NumericError when the fit diverges or the design is
/// singular; InvalidArgument for dimension problems (including n <= p — the
/// paper's "more observed input/output pairs than model parameters").
Result<FitOutput> FitModel(const Model& model, const Matrix& inputs,
                           const Vector& outputs,
                           const FitOptions& options = {});

/// Scratch-threaded variant: identical results, but all intermediate
/// buffers live in `*scratch` and are reused across calls. The hot path
/// for grouped fitting.
Result<FitOutput> FitModel(const Model& model, const Matrix& inputs,
                           const Vector& outputs, const FitOptions& options,
                           FitScratch* scratch);

/// Evaluates the model at every row of `inputs` with fixed parameters.
Vector PredictAll(const Model& model, const Matrix& inputs,
                  const Vector& params);

/// Allocation-free PredictAll into scratch->pred-style buffers: `pred` is
/// resized to n, `xrow` is the per-row staging vector.
void PredictAllInto(const Model& model, const Matrix& inputs,
                    const Vector& params, Vector* pred, Vector* xrow);

/// Builds the n x p design matrix of basis functions for a linear model.
Result<Matrix> BuildDesignMatrix(const Model& model, const Matrix& inputs);

/// Allocation-free BuildDesignMatrix; `phi` and `xrow` are staging buffers.
Status BuildDesignMatrixInto(const Model& model, const Matrix& inputs,
                             Matrix* design, Vector* phi, Vector* xrow);

}  // namespace laws

#endif  // LAWSDB_MODEL_FIT_H_
