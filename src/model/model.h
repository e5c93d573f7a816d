#ifndef LAWSDB_MODEL_MODEL_H_
#define LAWSDB_MODEL_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/numeric_transform.h"
#include "common/result.h"
#include "linalg/matrix.h"

namespace laws {

/// Exact linearization of a two-parameter, single-input model: after
/// transforming x' = t_x(x) and y' = t_y(y), the fit is the closed-form
/// simple regression y' = b0 + b1 * x'. The specialized fit kernels (see
/// model/fit_kernels.h) use this to bypass design matrices and solvers
/// entirely — the paper's power law I = p * nu^alpha becomes log-log OLS
/// over five running sums.
struct ModelLinearization {
  NumericTransform x_transform = NumericTransform::kIdentity;
  NumericTransform y_transform = NumericTransform::kIdentity;
  /// How the transformed-space (b0, b1) map back onto the model's two
  /// parameters, in parameter_names() order.
  enum class ParamMap : uint8_t {
    /// params = {b0, b1} (linear, log law).
    kInterceptSlope,
    /// params = {exp(b0), b1} (power law, exponential).
    kExpInterceptSlope,
  };
  ParamMap param_map = ParamMap::kInterceptSlope;
};

/// A user-supplied statistical model, the paper's central object (§3):
/// "an arbitrary function of the input variables and various constant but
/// unknown parameters". Implementations provide the function, its dimension
/// metadata, and (optionally) analytic derivatives and linear structure.
///
/// Models are stored in the model catalog in a textual source form
/// (ToSource) and reconstructed with ModelFromSource, mirroring the paper's
/// "store the models in their source code form inside the database".
class Model {
 public:
  virtual ~Model() = default;

  /// Short type name ("power_law", "linear", ...).
  virtual std::string name() const = 0;

  /// Number of unknown parameters beta.
  virtual size_t num_parameters() const = 0;

  /// Number of input variables x.
  virtual size_t num_inputs() const = 0;

  /// Human-readable parameter names, in order ("p", "alpha", ...).
  virtual std::vector<std::string> parameter_names() const = 0;

  /// Evaluates f(x; beta). `inputs` has num_inputs entries, `params`
  /// num_parameters.
  virtual double Evaluate(const Vector& inputs,
                          const Vector& params) const = 0;

  /// Gradient of f with respect to the parameters at (x, beta); fills
  /// `grad` (resized to num_parameters). Default: central differences.
  virtual void ParameterGradient(const Vector& inputs, const Vector& params,
                                 Vector* grad) const;

  /// Gradient of f with respect to the inputs at (x, beta); fills `grad`
  /// (resized to num_inputs). Default: central differences. Used by the
  /// model-exploration opportunity (high-gradient region finding, §4.2).
  virtual void InputGradient(const Vector& inputs, const Vector& params,
                             Vector* grad) const;

  /// True when f(x; beta) = sum_j beta_j * phi_j(x): the fit has an exact
  /// OLS solution and aggregate queries admit analytic answers (§4.2).
  virtual bool IsLinearInParameters() const { return false; }

  /// For linear-in-parameters models: evaluates the basis functions
  /// phi_j(x) into `phi` (resized to num_parameters). Unimplemented
  /// otherwise.
  virtual Status BasisFunctions(const Vector& inputs, Vector* phi) const;

  /// Optional heuristic starting values (the Gaussian peak's moment
  /// estimate) for the iterative fitters, which try ClosedFormWarmStart
  /// first: a model with a Linearization() gets its start there. Returns
  /// false when the model has none or the data violates its domain.
  virtual bool LogLinearEstimate(const Matrix& inputs, const Vector& outputs,
                                 Vector* params) const;

  /// Optional exact linearization y' = b0 + b1 * x' (see
  /// ModelLinearization). When provided, the fit kernels solve the model
  /// in closed form with no matrix or solver; data that violates the
  /// transform domain (log of a non-positive value) is detected at fit
  /// time and routed to the iterative path. Returns false when the model
  /// has no such structure.
  virtual bool Linearization(ModelLinearization* /*out*/) const {
    return false;
  }

  /// Reasonable default starting parameters for iterative fitting.
  virtual Vector InitialParameters() const {
    return Vector(num_parameters(), 1.0);
  }

  /// Serializes the model structure (not fitted parameters) as source text,
  /// e.g. "power_law" or "poly(3)". Round-trips through ModelFromSource.
  virtual std::string ToSource() const = 0;

  /// Formula rendering with parameter placeholders, for documentation and
  /// EXPLAIN output, e.g. "y = p * x0^alpha".
  virtual std::string Formula() const = 0;

  virtual std::unique_ptr<Model> Clone() const = 0;
};

using ModelPtr = std::unique_ptr<Model>;

/// y = b0 + b1*x0 + ... + bk*x{k-1}: affine model over k inputs (intercept
/// included). Linear in parameters.
class LinearModel : public Model {
 public:
  explicit LinearModel(size_t num_inputs) : num_inputs_(num_inputs) {}

  std::string name() const override { return "linear"; }
  size_t num_parameters() const override { return num_inputs_ + 1; }
  size_t num_inputs() const override { return num_inputs_; }
  std::vector<std::string> parameter_names() const override;
  double Evaluate(const Vector& inputs, const Vector& params) const override;
  void ParameterGradient(const Vector& inputs, const Vector& params,
                         Vector* grad) const override;
  void InputGradient(const Vector& inputs, const Vector& params,
                     Vector* grad) const override;
  bool IsLinearInParameters() const override { return true; }
  Status BasisFunctions(const Vector& inputs, Vector* phi) const override;
  /// Single-input linear regression is its own (identity) linearization.
  bool Linearization(ModelLinearization* out) const override;
  std::string ToSource() const override;
  std::string Formula() const override;
  std::unique_ptr<Model> Clone() const override {
    return std::make_unique<LinearModel>(num_inputs_);
  }

 private:
  size_t num_inputs_;
};

/// y = b0 + b1*x + ... + bd*x^d: univariate polynomial of degree d. Linear
/// in parameters.
class PolynomialModel : public Model {
 public:
  explicit PolynomialModel(size_t degree) : degree_(degree) {}

  std::string name() const override { return "poly"; }
  size_t degree() const { return degree_; }
  size_t num_parameters() const override { return degree_ + 1; }
  size_t num_inputs() const override { return 1; }
  std::vector<std::string> parameter_names() const override;
  double Evaluate(const Vector& inputs, const Vector& params) const override;
  void ParameterGradient(const Vector& inputs, const Vector& params,
                         Vector* grad) const override;
  void InputGradient(const Vector& inputs, const Vector& params,
                     Vector* grad) const override;
  bool IsLinearInParameters() const override { return true; }
  Status BasisFunctions(const Vector& inputs, Vector* phi) const override;
  std::string ToSource() const override;
  std::string Formula() const override;
  std::unique_ptr<Model> Clone() const override {
    return std::make_unique<PolynomialModel>(degree_);
  }

 private:
  size_t degree_;
};

/// I = p * nu^alpha: the paper's LOFAR spectral model (§2). Nonlinear, but
/// log-linearizable when all observations are positive.
class PowerLawModel : public Model {
 public:
  PowerLawModel() = default;

  std::string name() const override { return "power_law"; }
  size_t num_parameters() const override { return 2; }  // p, alpha
  size_t num_inputs() const override { return 1; }
  std::vector<std::string> parameter_names() const override {
    return {"p", "alpha"};
  }
  double Evaluate(const Vector& inputs, const Vector& params) const override;
  void ParameterGradient(const Vector& inputs, const Vector& params,
                         Vector* grad) const override;
  void InputGradient(const Vector& inputs, const Vector& params,
                     Vector* grad) const override;
  /// log y = log p + alpha * log x: exact log-log OLS.
  bool Linearization(ModelLinearization* out) const override;
  Vector InitialParameters() const override { return {1.0, -1.0}; }
  std::string ToSource() const override { return "power_law"; }
  std::string Formula() const override { return "y = p * x0^alpha"; }
  std::unique_ptr<Model> Clone() const override {
    return std::make_unique<PowerLawModel>();
  }
};

/// y = a * exp(b*x): exponential growth/decay. Nonlinear,
/// log-linearizable for positive observations.
class ExponentialModel : public Model {
 public:
  ExponentialModel() = default;

  std::string name() const override { return "exponential"; }
  size_t num_parameters() const override { return 2; }  // a, b
  size_t num_inputs() const override { return 1; }
  std::vector<std::string> parameter_names() const override {
    return {"a", "b"};
  }
  double Evaluate(const Vector& inputs, const Vector& params) const override;
  void ParameterGradient(const Vector& inputs, const Vector& params,
                         Vector* grad) const override;
  void InputGradient(const Vector& inputs, const Vector& params,
                     Vector* grad) const override;
  /// log y = log a + b * x: exact semilog OLS.
  bool Linearization(ModelLinearization* out) const override;
  Vector InitialParameters() const override { return {1.0, 0.1}; }
  std::string ToSource() const override { return "exponential"; }
  std::string Formula() const override { return "y = a * exp(b * x0)"; }
  std::unique_ptr<Model> Clone() const override {
    return std::make_unique<ExponentialModel>();
  }
};

/// y = L / (1 + exp(-k*(x - x0))): logistic curve. Nonlinear.
class LogisticModel : public Model {
 public:
  LogisticModel() = default;

  std::string name() const override { return "logistic"; }
  size_t num_parameters() const override { return 3; }  // L, k, x0
  size_t num_inputs() const override { return 1; }
  std::vector<std::string> parameter_names() const override {
    return {"L", "k", "x0"};
  }
  double Evaluate(const Vector& inputs, const Vector& params) const override;
  void ParameterGradient(const Vector& inputs, const Vector& params,
                         Vector* grad) const override;
  Vector InitialParameters() const override { return {1.0, 1.0, 0.0}; }
  std::string ToSource() const override { return "logistic"; }
  std::string Formula() const override {
    return "y = L / (1 + exp(-k * (x0_in - x0)))";
  }
  std::unique_ptr<Model> Clone() const override {
    return std::make_unique<LogisticModel>();
  }
};

/// y = b0 + b1*sin(2*pi*x/T) + b2*cos(2*pi*x/T) [+ linear trend b3*x]:
/// seasonal model with known period T. Linear in parameters — the workhorse
/// for the retail workload's planted regularities.
class SeasonalModel : public Model {
 public:
  explicit SeasonalModel(double period, bool with_trend = true)
      : period_(period), with_trend_(with_trend) {}

  std::string name() const override { return "seasonal"; }
  double period() const { return period_; }
  size_t num_parameters() const override { return with_trend_ ? 4 : 3; }
  size_t num_inputs() const override { return 1; }
  std::vector<std::string> parameter_names() const override;
  double Evaluate(const Vector& inputs, const Vector& params) const override;
  void ParameterGradient(const Vector& inputs, const Vector& params,
                         Vector* grad) const override;
  bool IsLinearInParameters() const override { return true; }
  Status BasisFunctions(const Vector& inputs, Vector* phi) const override;
  std::string ToSource() const override;
  std::string Formula() const override;
  std::unique_ptr<Model> Clone() const override {
    return std::make_unique<SeasonalModel>(period_, with_trend_);
  }

 private:
  double period_;
  bool with_trend_;
};

/// y = amp * exp(-(x - mu)^2 / (2 sigma^2)): Gaussian peak, the standard
/// spectral-line shape in astronomy and chromatography. Nonlinear.
class GaussianPeakModel : public Model {
 public:
  GaussianPeakModel() = default;

  std::string name() const override { return "gaussian_peak"; }
  size_t num_parameters() const override { return 3; }  // amp, mu, sigma
  size_t num_inputs() const override { return 1; }
  std::vector<std::string> parameter_names() const override {
    return {"amp", "mu", "sigma"};
  }
  double Evaluate(const Vector& inputs, const Vector& params) const override;
  void ParameterGradient(const Vector& inputs, const Vector& params,
                         Vector* grad) const override;
  void InputGradient(const Vector& inputs, const Vector& params,
                     Vector* grad) const override;
  /// Moment-based warm start: amp from the max, mu/sigma from the
  /// amplitude-weighted mean/spread.
  bool LogLinearEstimate(const Matrix& inputs, const Vector& outputs,
                         Vector* params) const override;
  Vector InitialParameters() const override { return {1.0, 0.0, 1.0}; }
  std::string ToSource() const override { return "gaussian_peak"; }
  std::string Formula() const override {
    return "y = amp * exp(-(x0 - mu)^2 / (2*sigma^2))";
  }
  std::unique_ptr<Model> Clone() const override {
    return std::make_unique<GaussianPeakModel>();
  }
};

/// y = a + b * ln(x): logarithmic law (Weber-Fechner response, coupon
/// collection, loading curves). Linear in its parameters with basis
/// {1, ln x}; requires positive inputs.
class LogLawModel : public Model {
 public:
  LogLawModel() = default;

  std::string name() const override { return "log_law"; }
  size_t num_parameters() const override { return 2; }  // a, b
  size_t num_inputs() const override { return 1; }
  std::vector<std::string> parameter_names() const override {
    return {"a", "b"};
  }
  double Evaluate(const Vector& inputs, const Vector& params) const override;
  void ParameterGradient(const Vector& inputs, const Vector& params,
                         Vector* grad) const override;
  void InputGradient(const Vector& inputs, const Vector& params,
                     Vector* grad) const override;
  bool IsLinearInParameters() const override { return true; }
  Status BasisFunctions(const Vector& inputs, Vector* phi) const override;
  /// y = a + b * log x: exact OLS over the transformed input.
  bool Linearization(ModelLinearization* out) const override;
  std::string ToSource() const override { return "log_law"; }
  std::string Formula() const override { return "y = a + b * ln(x0)"; }
  std::unique_ptr<Model> Clone() const override {
    return std::make_unique<LogLawModel>();
  }
};

/// FunctionDB-style piecewise polynomial over fixed breakpoints: each
/// segment [break_i, break_{i+1}) carries its own degree-d polynomial.
/// Linear in parameters (block-diagonal basis).
class PiecewisePolynomialModel : public Model {
 public:
  /// `breakpoints` must be strictly increasing interior breakpoints; with b
  /// breakpoints there are b+1 segments.
  PiecewisePolynomialModel(std::vector<double> breakpoints, size_t degree);

  std::string name() const override { return "piecewise_poly"; }
  const std::vector<double>& breakpoints() const { return breakpoints_; }
  size_t degree() const { return degree_; }
  size_t num_segments() const { return breakpoints_.size() + 1; }
  size_t num_parameters() const override {
    return num_segments() * (degree_ + 1);
  }
  size_t num_inputs() const override { return 1; }
  std::vector<std::string> parameter_names() const override;
  double Evaluate(const Vector& inputs, const Vector& params) const override;
  bool IsLinearInParameters() const override { return true; }
  Status BasisFunctions(const Vector& inputs, Vector* phi) const override;
  std::string ToSource() const override;
  std::string Formula() const override;
  std::unique_ptr<Model> Clone() const override {
    return std::make_unique<PiecewisePolynomialModel>(breakpoints_, degree_);
  }

  /// Index of the segment containing x.
  size_t SegmentOf(double x) const;

 private:
  std::vector<double> breakpoints_;
  size_t degree_;
};

/// Reconstructs a model from its ToSource() form. Supported grammar:
///   "linear(<k>)", "poly(<degree>)", "power_law", "exponential",
///   "logistic", "seasonal(<period>[,notrend])",
///   "piecewise_poly(<degree>;b1,b2,...)".
Result<ModelPtr> ModelFromSource(const std::string& source);

}  // namespace laws

#endif  // LAWSDB_MODEL_MODEL_H_
