#include "model/fit.h"

#include <cmath>

#include "linalg/solve.h"
#include "model/fit_kernels.h"

namespace laws {
namespace {

double ResidualSumOfSquares(const Vector& y, const Vector& pred) {
  double rss = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    const double r = y[i] - pred[i];
    rss += r * r;
  }
  return rss;
}

/// Jacobian of the model function wrt parameters, evaluated at every row.
/// `grad` and `xrow` are scratch staging vectors.
void ComputeJacobianInto(const Model& model, const Matrix& inputs,
                         const Vector& params, Matrix* j_out, Vector* grad,
                         Vector* xrow) {
  const size_t n = inputs.rows();
  const size_t p = model.num_parameters();
  Matrix& j = *j_out;
  j.Reshape(n, p);
  Vector& x = *xrow;
  x.resize(inputs.cols());
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < inputs.cols(); ++c) x[c] = inputs(i, c);
    model.ParameterGradient(x, params, grad);
    for (size_t k = 0; k < p; ++k) j(i, k) = (*grad)[k];
  }
}

bool AllFinite(const Vector& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

/// sigma^2 * (J^T J)^{-1} diagonal square roots.
Vector StandardErrors(const Matrix& jacobian, double rss, size_t n,
                      size_t p) {
  if (n <= p) return {};
  auto inv = Invert(jacobian.Gram());
  if (!inv.ok()) return {};
  const double sigma2 = rss / static_cast<double>(n - p);
  Vector se(p, 0.0);
  for (size_t k = 0; k < p; ++k) {
    const double v = sigma2 * (*inv)(k, k);
    se[k] = v > 0.0 ? std::sqrt(v) : 0.0;
  }
  return se;
}

Result<FitOutput> FitLinear(const Model& model, const Matrix& inputs,
                            const Vector& outputs, const FitOptions& options,
                            bool use_qr, FitScratch* scratch) {
  Matrix& design = scratch->design;
  LAWS_RETURN_IF_ERROR(BuildDesignMatrixInto(model, inputs, &design,
                                             &scratch->phi, &scratch->xrow));
  FitOutput out;
  if (use_qr) {
    LAWS_RETURN_IF_ERROR(LeastSquaresQrInto(design, outputs, &scratch->qr,
                                            &scratch->qtb, &out.parameters));
  } else {
    design.GramInto(&scratch->jtj);
    design.TransposeMultiplyVecInto(outputs, &scratch->jtr);
    LAWS_RETURN_IF_ERROR(CholeskySolveInto(scratch->jtj, scratch->jtr,
                                           &scratch->chol, &out.parameters));
  }
  out.converged = true;
  out.iterations = 1;
  out.algorithm_used =
      use_qr ? FitAlgorithm::kOls : FitAlgorithm::kOlsNormalEquations;
  design.MultiplyVecInto(out.parameters, &scratch->pred);
  LAWS_ASSIGN_OR_RETURN(
      out.quality,
      ComputeFitQuality(outputs, scratch->pred, model.num_parameters()));
  if (options.compute_standard_errors) {
    out.standard_errors =
        StandardErrors(design, out.quality.residual_sum_of_squares,
                       outputs.size(), model.num_parameters());
  }
  return out;
}

Result<FitOutput> FitIterative(const Model& model, const Matrix& inputs,
                               const Vector& outputs,
                               const FitOptions& options, bool damped,
                               FitScratch* scratch) {
  const size_t n = outputs.size();
  const size_t p = model.num_parameters();

  Vector beta = options.initial_parameters;
  if (beta.empty()) {
    // Prefer a closed-form transformed-space estimate as warm start: the
    // sum-accumulator kernel where the model linearizes exactly, the
    // model's own heuristic estimate otherwise.
    if (ClosedFormWarmStart(model, inputs, outputs, scratch,
                            &scratch->warm)) {
      beta = scratch->warm;
    } else if (model.LogLinearEstimate(inputs, outputs, &scratch->warm)) {
      beta = scratch->warm;
    } else {
      beta = model.InitialParameters();
    }
  }
  if (beta.size() != p) {
    return Status::InvalidArgument("initial parameter count mismatch");
  }

  Vector& pred = scratch->pred;
  PredictAllInto(model, inputs, beta, &pred, &scratch->xrow);
  double rss = ResidualSumOfSquares(outputs, pred);
  if (!std::isfinite(rss)) {
    return Status::NumericError("non-finite residuals at starting point");
  }

  double lambda = options.initial_lambda;
  FitOutput out;
  out.algorithm_used = damped ? FitAlgorithm::kLevenbergMarquardt
                              : FitAlgorithm::kGaussNewton;
  bool converged = false;
  size_t iter = 0;
  for (; iter < options.max_iterations && !converged; ++iter) {
    Matrix& jacobian = scratch->jacobian;
    ComputeJacobianInto(model, inputs, beta, &jacobian, &scratch->grad,
                        &scratch->xrow);
    // Residuals r = y - f; normal direction solves (J^T J) step = J^T r.
    Vector& residuals = scratch->residuals;
    residuals.resize(n);
    for (size_t i = 0; i < n; ++i) residuals[i] = outputs[i] - pred[i];
    jacobian.TransposeMultiplyVecInto(residuals, &scratch->jtr);
    Matrix& jtj = scratch->jtj;
    jacobian.GramInto(&jtj);

    bool accepted = false;
    // LM retries with increasing damping inside one outer iteration; plain
    // Gauss-Newton takes the raw step once.
    for (int attempt = 0; attempt < (damped ? 25 : 1); ++attempt) {
      Matrix& system = scratch->system;
      system = jtj;  // copy-assignment reuses the destination buffer
      if (damped) {
        for (size_t k = 0; k < p; ++k) {
          // Marquardt scaling: damp proportionally to the curvature, with a
          // floor so zero-curvature directions stay solvable.
          const double d = std::max(jtj(k, k), 1e-12);
          system(k, k) = jtj(k, k) + lambda * d;
        }
      }
      Vector& step = scratch->step;
      const Status solved =
          CholeskySolveInto(system, scratch->jtr, &scratch->chol, &step);
      if (!solved.ok()) {
        if (!damped) return solved;
        lambda *= 10.0;
        continue;
      }
      Vector& candidate = scratch->candidate;
      candidate.resize(p);
      for (size_t k = 0; k < p; ++k) candidate[k] = beta[k] + step[k];
      if (!AllFinite(candidate)) {
        if (!damped) {
          return Status::NumericError("Gauss-Newton produced non-finite step");
        }
        lambda *= 10.0;
        continue;
      }
      Vector& cand_pred = scratch->cand_pred;
      PredictAllInto(model, inputs, candidate, &cand_pred, &scratch->xrow);
      const double cand_rss = ResidualSumOfSquares(outputs, cand_pred);
      if (damped && (!std::isfinite(cand_rss) || cand_rss > rss)) {
        lambda *= 10.0;
        continue;
      }
      if (!damped && !std::isfinite(cand_rss)) {
        return Status::NumericError("Gauss-Newton diverged (non-finite RSS)");
      }
      // Accept.
      const double step_norm = Norm2(step);
      const double beta_norm = Norm2(beta);
      const double rss_drop = rss - cand_rss;
      beta = candidate;
      pred.swap(cand_pred);
      const double prev_rss = rss;
      rss = cand_rss;
      if (damped) lambda = std::max(lambda / 10.0, 1e-12);
      accepted = true;
      if (step_norm <= options.parameter_tolerance * (1.0 + beta_norm) ||
          (prev_rss > 0.0 &&
           std::fabs(rss_drop) <= options.residual_tolerance * prev_rss)) {
        converged = true;
      }
      break;
    }
    if (!accepted) {
      // LM could not find a descent direction: treat the current point as
      // the (local) optimum.
      converged = true;
    }
  }

  out.parameters = beta;
  out.iterations = iter;
  out.converged = converged;
  LAWS_ASSIGN_OR_RETURN(out.quality, ComputeFitQuality(outputs, pred, p));
  if (options.compute_standard_errors) {
    ComputeJacobianInto(model, inputs, beta, &scratch->jacobian,
                        &scratch->grad, &scratch->xrow);
    out.standard_errors = StandardErrors(
        scratch->jacobian, out.quality.residual_sum_of_squares, n, p);
  }
  return out;
}

Result<FitOutput> FitLogLinearOnly(const Model& model, const Matrix& inputs,
                                   const Vector& outputs,
                                   const FitOptions& options,
                                   FitScratch* scratch) {
  // Models with an exact linearization go through the sum-accumulator
  // kernel; a kernel failure here is a domain/degeneracy error, reported
  // as before.
  Result<FitOutput> kernel_fit = FitOutput{};
  if (TryClosedFormFit(model, inputs, outputs, options, scratch,
                       &kernel_fit)) {
    return kernel_fit;
  }
  ModelLinearization lin;
  if (model.Linearization(&lin) && model.num_inputs() == 1) {
    return Status::InvalidArgument(
        "model '" + model.name() +
        "' has no log-linear transformation (or data violates its domain)");
  }
  // Other models fall back to their heuristic transformed-space estimate.
  Vector params;
  if (!model.LogLinearEstimate(inputs, outputs, &params)) {
    return Status::InvalidArgument(
        "model '" + model.name() +
        "' has no log-linear transformation (or data violates its domain)");
  }
  FitOutput out;
  out.parameters = std::move(params);
  out.converged = true;
  out.iterations = 1;
  out.algorithm_used = FitAlgorithm::kLogLinear;
  PredictAllInto(model, inputs, out.parameters, &scratch->pred,
                 &scratch->xrow);
  LAWS_ASSIGN_OR_RETURN(
      out.quality,
      ComputeFitQuality(outputs, scratch->pred, model.num_parameters()));
  if (options.compute_standard_errors) {
    ComputeJacobianInto(model, inputs, out.parameters, &scratch->jacobian,
                        &scratch->grad, &scratch->xrow);
    out.standard_errors =
        StandardErrors(scratch->jacobian,
                       out.quality.residual_sum_of_squares, outputs.size(),
                       model.num_parameters());
  }
  return out;
}

}  // namespace

std::string_view FitAlgorithmToString(FitAlgorithm a) {
  switch (a) {
    case FitAlgorithm::kAuto:
      return "auto";
    case FitAlgorithm::kOls:
      return "ols_qr";
    case FitAlgorithm::kOlsNormalEquations:
      return "ols_normal";
    case FitAlgorithm::kGaussNewton:
      return "gauss_newton";
    case FitAlgorithm::kLevenbergMarquardt:
      return "levenberg_marquardt";
    case FitAlgorithm::kLogLinear:
      return "log_linear";
  }
  return "?";
}

Vector PredictAll(const Model& model, const Matrix& inputs,
                  const Vector& params) {
  Vector pred;
  Vector x;
  PredictAllInto(model, inputs, params, &pred, &x);
  return pred;
}

void PredictAllInto(const Model& model, const Matrix& inputs,
                    const Vector& params, Vector* pred_out, Vector* xrow) {
  const size_t n = inputs.rows();
  Vector& pred = *pred_out;
  pred.resize(n);
  Vector& x = *xrow;
  x.resize(inputs.cols());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < inputs.cols(); ++j) x[j] = inputs(i, j);
    pred[i] = model.Evaluate(x, params);
  }
}

Result<Matrix> BuildDesignMatrix(const Model& model, const Matrix& inputs) {
  Matrix design;
  Vector phi;
  Vector x;
  LAWS_RETURN_IF_ERROR(
      BuildDesignMatrixInto(model, inputs, &design, &phi, &x));
  return design;
}

Status BuildDesignMatrixInto(const Model& model, const Matrix& inputs,
                             Matrix* design_out, Vector* phi_buf,
                             Vector* xrow) {
  if (!model.IsLinearInParameters()) {
    return Status::InvalidArgument("model '" + model.name() +
                                   "' is not linear in its parameters");
  }
  const size_t n = inputs.rows();
  const size_t p = model.num_parameters();
  Matrix& design = *design_out;
  design.Reshape(n, p);
  Vector& phi = *phi_buf;
  Vector& x = *xrow;
  x.resize(inputs.cols());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < inputs.cols(); ++j) x[j] = inputs(i, j);
    LAWS_RETURN_IF_ERROR(model.BasisFunctions(x, &phi));
    for (size_t k = 0; k < p; ++k) design(i, k) = phi[k];
  }
  return Status::OK();
}

Result<FitOutput> FitModel(const Model& model, const Matrix& inputs,
                           const Vector& outputs, const FitOptions& options) {
  FitScratch scratch;
  return FitModel(model, inputs, outputs, options, &scratch);
}

Result<FitOutput> FitModel(const Model& model, const Matrix& inputs,
                           const Vector& outputs, const FitOptions& options,
                           FitScratch* scratch) {
  if (inputs.rows() != outputs.size()) {
    return Status::InvalidArgument("inputs/outputs row count mismatch");
  }
  if (inputs.cols() != model.num_inputs()) {
    return Status::InvalidArgument("input arity does not match model");
  }
  if (outputs.size() <= model.num_parameters()) {
    return Status::InvalidArgument(
        "need more observations than parameters (n > p)");
  }

  switch (options.algorithm) {
    case FitAlgorithm::kAuto: {
      Result<FitOutput> fast = FitOutput{};
      if (TryClosedFormFit(model, inputs, outputs, options, scratch, &fast)) {
        return fast;
      }
      if (model.IsLinearInParameters()) {
        return FitLinear(model, inputs, outputs, options, /*use_qr=*/true,
                         scratch);
      }
      return FitIterative(model, inputs, outputs, options, /*damped=*/true,
                          scratch);
    }
    case FitAlgorithm::kOls:
      return FitLinear(model, inputs, outputs, options, /*use_qr=*/true,
                       scratch);
    case FitAlgorithm::kOlsNormalEquations:
      return FitLinear(model, inputs, outputs, options, /*use_qr=*/false,
                       scratch);
    case FitAlgorithm::kGaussNewton:
      return FitIterative(model, inputs, outputs, options, /*damped=*/false,
                          scratch);
    case FitAlgorithm::kLevenbergMarquardt:
      return FitIterative(model, inputs, outputs, options, /*damped=*/true,
                          scratch);
    case FitAlgorithm::kLogLinear:
      return FitLogLinearOnly(model, inputs, outputs, options, scratch);
  }
  return Status::Internal("unknown fit algorithm");
}

}  // namespace laws
