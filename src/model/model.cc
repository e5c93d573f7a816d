#include "model/model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/string_util.h"

namespace laws {
namespace {

constexpr double kNumericStep = 1e-6;

double StepFor(double v) {
  return kNumericStep * std::max(1.0, std::fabs(v));
}

}  // namespace

void Model::ParameterGradient(const Vector& inputs, const Vector& params,
                              Vector* grad) const {
  grad->assign(num_parameters(), 0.0);
  Vector p = params;
  for (size_t j = 0; j < num_parameters(); ++j) {
    const double h = StepFor(params[j]);
    p[j] = params[j] + h;
    const double fp = Evaluate(inputs, p);
    p[j] = params[j] - h;
    const double fm = Evaluate(inputs, p);
    p[j] = params[j];
    (*grad)[j] = (fp - fm) / (2.0 * h);
  }
}

void Model::InputGradient(const Vector& inputs, const Vector& params,
                          Vector* grad) const {
  grad->assign(num_inputs(), 0.0);
  Vector x = inputs;
  for (size_t j = 0; j < num_inputs(); ++j) {
    const double h = StepFor(inputs[j]);
    x[j] = inputs[j] + h;
    const double fp = Evaluate(x, params);
    x[j] = inputs[j] - h;
    const double fm = Evaluate(x, params);
    x[j] = inputs[j];
    (*grad)[j] = (fp - fm) / (2.0 * h);
  }
}

Status Model::BasisFunctions(const Vector& /*inputs*/, Vector* /*phi*/) const {
  return Status::Unimplemented("model '" + name() +
                               "' is not linear in its parameters");
}

bool Model::LogLinearEstimate(const Matrix& /*inputs*/,
                              const Vector& /*outputs*/,
                              Vector* /*params*/) const {
  return false;
}

// --- LinearModel -----------------------------------------------------------

std::vector<std::string> LinearModel::parameter_names() const {
  std::vector<std::string> names = {"intercept"};
  for (size_t i = 0; i < num_inputs_; ++i) {
    names.push_back("b" + std::to_string(i + 1));
  }
  return names;
}

double LinearModel::Evaluate(const Vector& inputs,
                             const Vector& params) const {
  double y = params[0];
  for (size_t i = 0; i < num_inputs_; ++i) y += params[i + 1] * inputs[i];
  return y;
}

void LinearModel::ParameterGradient(const Vector& inputs,
                                    const Vector& /*params*/,
                                    Vector* grad) const {
  grad->assign(num_parameters(), 0.0);
  (*grad)[0] = 1.0;
  for (size_t i = 0; i < num_inputs_; ++i) (*grad)[i + 1] = inputs[i];
}

void LinearModel::InputGradient(const Vector& /*inputs*/,
                                const Vector& params, Vector* grad) const {
  grad->assign(num_inputs_, 0.0);
  for (size_t i = 0; i < num_inputs_; ++i) (*grad)[i] = params[i + 1];
}

Status LinearModel::BasisFunctions(const Vector& inputs, Vector* phi) const {
  phi->assign(num_parameters(), 0.0);
  (*phi)[0] = 1.0;
  for (size_t i = 0; i < num_inputs_; ++i) (*phi)[i + 1] = inputs[i];
  return Status::OK();
}

bool LinearModel::Linearization(ModelLinearization* out) const {
  if (num_inputs_ != 1) return false;
  *out = ModelLinearization{};  // identity transforms, {b0, b1} directly
  return true;
}

std::string LinearModel::ToSource() const {
  return "linear(" + std::to_string(num_inputs_) + ")";
}

std::string LinearModel::Formula() const {
  std::string f = "y = b0";
  for (size_t i = 0; i < num_inputs_; ++i) {
    f += " + b" + std::to_string(i + 1) + "*x" + std::to_string(i);
  }
  return f;
}

// --- PolynomialModel -------------------------------------------------------

std::vector<std::string> PolynomialModel::parameter_names() const {
  std::vector<std::string> names;
  for (size_t i = 0; i <= degree_; ++i) {
    names.push_back("c" + std::to_string(i));
  }
  return names;
}

double PolynomialModel::Evaluate(const Vector& inputs,
                                 const Vector& params) const {
  // Horner's scheme.
  const double x = inputs[0];
  double y = params[degree_];
  for (size_t i = degree_; i > 0; --i) y = y * x + params[i - 1];
  return y;
}

void PolynomialModel::ParameterGradient(const Vector& inputs,
                                        const Vector& /*params*/,
                                        Vector* grad) const {
  grad->assign(num_parameters(), 0.0);
  const double x = inputs[0];
  double pow = 1.0;
  for (size_t i = 0; i <= degree_; ++i) {
    (*grad)[i] = pow;
    pow *= x;
  }
}

void PolynomialModel::InputGradient(const Vector& inputs,
                                    const Vector& params,
                                    Vector* grad) const {
  grad->assign(1, 0.0);
  const double x = inputs[0];
  double pow = 1.0;
  for (size_t i = 1; i <= degree_; ++i) {
    (*grad)[0] += static_cast<double>(i) * params[i] * pow;
    pow *= x;
  }
}

Status PolynomialModel::BasisFunctions(const Vector& inputs,
                                       Vector* phi) const {
  phi->assign(num_parameters(), 0.0);
  double pow = 1.0;
  for (size_t i = 0; i <= degree_; ++i) {
    (*phi)[i] = pow;
    pow *= inputs[0];
  }
  return Status::OK();
}

std::string PolynomialModel::ToSource() const {
  return "poly(" + std::to_string(degree_) + ")";
}

std::string PolynomialModel::Formula() const {
  std::string f = "y = c0";
  for (size_t i = 1; i <= degree_; ++i) {
    f += " + c" + std::to_string(i) + "*x0^" + std::to_string(i);
  }
  return f;
}

// --- PowerLawModel ---------------------------------------------------------

double PowerLawModel::Evaluate(const Vector& inputs,
                               const Vector& params) const {
  return params[0] * std::pow(inputs[0], params[1]);
}

void PowerLawModel::ParameterGradient(const Vector& inputs,
                                      const Vector& params,
                                      Vector* grad) const {
  grad->assign(2, 0.0);
  const double x = inputs[0];
  const double xa = std::pow(x, params[1]);
  (*grad)[0] = xa;                                          // d/dp
  (*grad)[1] = x > 0.0 ? params[0] * xa * std::log(x) : 0.0;  // d/dalpha
}

void PowerLawModel::InputGradient(const Vector& inputs, const Vector& params,
                                  Vector* grad) const {
  grad->assign(1, 0.0);
  (*grad)[0] = params[0] * params[1] * std::pow(inputs[0], params[1] - 1.0);
}

bool PowerLawModel::Linearization(ModelLinearization* out) const {
  out->x_transform = NumericTransform::kLog;
  out->y_transform = NumericTransform::kLog;
  out->param_map = ModelLinearization::ParamMap::kExpInterceptSlope;
  return true;
}

// --- ExponentialModel ------------------------------------------------------

double ExponentialModel::Evaluate(const Vector& inputs,
                                  const Vector& params) const {
  return params[0] * std::exp(params[1] * inputs[0]);
}

void ExponentialModel::ParameterGradient(const Vector& inputs,
                                         const Vector& params,
                                         Vector* grad) const {
  grad->assign(2, 0.0);
  const double e = std::exp(params[1] * inputs[0]);
  (*grad)[0] = e;
  (*grad)[1] = params[0] * inputs[0] * e;
}

void ExponentialModel::InputGradient(const Vector& inputs,
                                     const Vector& params,
                                     Vector* grad) const {
  grad->assign(1, 0.0);
  (*grad)[0] = params[0] * params[1] * std::exp(params[1] * inputs[0]);
}

bool ExponentialModel::Linearization(ModelLinearization* out) const {
  out->x_transform = NumericTransform::kIdentity;
  out->y_transform = NumericTransform::kLog;
  out->param_map = ModelLinearization::ParamMap::kExpInterceptSlope;
  return true;
}

// --- LogisticModel ---------------------------------------------------------

double LogisticModel::Evaluate(const Vector& inputs,
                               const Vector& params) const {
  const double z = -params[1] * (inputs[0] - params[2]);
  return params[0] / (1.0 + std::exp(z));
}

void LogisticModel::ParameterGradient(const Vector& inputs,
                                      const Vector& params,
                                      Vector* grad) const {
  grad->assign(3, 0.0);
  const double L = params[0];
  const double k = params[1];
  const double x0 = params[2];
  const double e = std::exp(-k * (inputs[0] - x0));
  const double denom = 1.0 + e;
  (*grad)[0] = 1.0 / denom;                                     // dL
  (*grad)[1] = L * e * (inputs[0] - x0) / (denom * denom);      // dk
  (*grad)[2] = -L * e * k / (denom * denom);                    // dx0
}

// --- SeasonalModel ---------------------------------------------------------

std::vector<std::string> SeasonalModel::parameter_names() const {
  std::vector<std::string> names = {"level", "sin", "cos"};
  if (with_trend_) names.push_back("trend");
  return names;
}

double SeasonalModel::Evaluate(const Vector& inputs,
                               const Vector& params) const {
  const double w = 2.0 * M_PI * inputs[0] / period_;
  double y = params[0] + params[1] * std::sin(w) + params[2] * std::cos(w);
  if (with_trend_) y += params[3] * inputs[0];
  return y;
}

void SeasonalModel::ParameterGradient(const Vector& inputs,
                                      const Vector& /*params*/,
                                      Vector* grad) const {
  Vector phi;
  (void)BasisFunctions(inputs, &phi);
  *grad = phi;
}

Status SeasonalModel::BasisFunctions(const Vector& inputs,
                                     Vector* phi) const {
  phi->assign(num_parameters(), 0.0);
  const double w = 2.0 * M_PI * inputs[0] / period_;
  (*phi)[0] = 1.0;
  (*phi)[1] = std::sin(w);
  (*phi)[2] = std::cos(w);
  if (with_trend_) (*phi)[3] = inputs[0];
  return Status::OK();
}

std::string SeasonalModel::ToSource() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "seasonal(%.17g%s)", period_,
                with_trend_ ? "" : ",notrend");
  return buf;
}

std::string SeasonalModel::Formula() const {
  std::string f = "y = level + a*sin(2pi*x0/T) + b*cos(2pi*x0/T)";
  if (with_trend_) f += " + trend*x0";
  return f;
}

// --- GaussianPeakModel -------------------------------------------------------

double GaussianPeakModel::Evaluate(const Vector& inputs,
                                   const Vector& params) const {
  const double d = inputs[0] - params[1];
  const double s2 = params[2] * params[2];
  return params[0] * std::exp(-d * d / (2.0 * s2));
}

void GaussianPeakModel::ParameterGradient(const Vector& inputs,
                                          const Vector& params,
                                          Vector* grad) const {
  grad->assign(3, 0.0);
  const double amp = params[0];
  const double mu = params[1];
  const double sigma = params[2];
  const double d = inputs[0] - mu;
  const double s2 = sigma * sigma;
  const double e = std::exp(-d * d / (2.0 * s2));
  (*grad)[0] = e;                          // d/d amp
  (*grad)[1] = amp * e * d / s2;           // d/d mu
  (*grad)[2] = amp * e * d * d / (s2 * sigma);  // d/d sigma
}

void GaussianPeakModel::InputGradient(const Vector& inputs,
                                      const Vector& params,
                                      Vector* grad) const {
  grad->assign(1, 0.0);
  const double d = inputs[0] - params[1];
  const double s2 = params[2] * params[2];
  (*grad)[0] = -params[0] * std::exp(-d * d / (2.0 * s2)) * d / s2;
}

bool GaussianPeakModel::LogLinearEstimate(const Matrix& inputs,
                                          const Vector& outputs,
                                          Vector* params) const {
  const size_t n = outputs.size();
  if (n < 3 || inputs.cols() < 1) return false;
  // Moment start: treat positive outputs as a density over x.
  double amp = 0.0, wsum = 0.0, mean = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double w = std::max(outputs[i], 0.0);
    amp = std::max(amp, outputs[i]);
    wsum += w;
    mean += w * inputs(i, 0);
  }
  if (amp <= 0.0 || wsum <= 0.0) return false;
  mean /= wsum;
  double var = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double w = std::max(outputs[i], 0.0);
    const double d = inputs(i, 0) - mean;
    var += w * d * d;
  }
  var /= wsum;
  if (!(var > 0.0)) return false;
  params->assign(3, 0.0);
  (*params)[0] = amp;
  (*params)[1] = mean;
  (*params)[2] = std::sqrt(var);
  return true;
}

// --- LogLawModel -------------------------------------------------------------

double LogLawModel::Evaluate(const Vector& inputs,
                             const Vector& params) const {
  return params[0] + params[1] * std::log(inputs[0]);
}

void LogLawModel::ParameterGradient(const Vector& inputs,
                                    const Vector& /*params*/,
                                    Vector* grad) const {
  grad->assign(2, 0.0);
  (*grad)[0] = 1.0;
  (*grad)[1] = std::log(inputs[0]);
}

void LogLawModel::InputGradient(const Vector& inputs, const Vector& params,
                                Vector* grad) const {
  grad->assign(1, 0.0);
  (*grad)[0] = params[1] / inputs[0];
}

bool LogLawModel::Linearization(ModelLinearization* out) const {
  out->x_transform = NumericTransform::kLog;
  out->y_transform = NumericTransform::kIdentity;
  out->param_map = ModelLinearization::ParamMap::kInterceptSlope;
  return true;
}

Status LogLawModel::BasisFunctions(const Vector& inputs, Vector* phi) const {
  if (inputs[0] <= 0.0) {
    return Status::InvalidArgument("log_law requires positive inputs");
  }
  phi->assign(2, 0.0);
  (*phi)[0] = 1.0;
  (*phi)[1] = std::log(inputs[0]);
  return Status::OK();
}

// --- PiecewisePolynomialModel -----------------------------------------------

PiecewisePolynomialModel::PiecewisePolynomialModel(
    std::vector<double> breakpoints, size_t degree)
    : breakpoints_(std::move(breakpoints)), degree_(degree) {}

size_t PiecewisePolynomialModel::SegmentOf(double x) const {
  // First breakpoint > x determines the segment.
  const auto it =
      std::upper_bound(breakpoints_.begin(), breakpoints_.end(), x);
  return static_cast<size_t>(it - breakpoints_.begin());
}

std::vector<std::string> PiecewisePolynomialModel::parameter_names() const {
  std::vector<std::string> names;
  for (size_t s = 0; s < num_segments(); ++s) {
    for (size_t d = 0; d <= degree_; ++d) {
      names.push_back("s" + std::to_string(s) + "_c" + std::to_string(d));
    }
  }
  return names;
}

double PiecewisePolynomialModel::Evaluate(const Vector& inputs,
                                          const Vector& params) const {
  const double x = inputs[0];
  const size_t seg = SegmentOf(x);
  const size_t base = seg * (degree_ + 1);
  double y = params[base + degree_];
  for (size_t i = degree_; i > 0; --i) y = y * x + params[base + i - 1];
  return y;
}

Status PiecewisePolynomialModel::BasisFunctions(const Vector& inputs,
                                                Vector* phi) const {
  phi->assign(num_parameters(), 0.0);
  const double x = inputs[0];
  const size_t base = SegmentOf(x) * (degree_ + 1);
  double pow = 1.0;
  for (size_t i = 0; i <= degree_; ++i) {
    (*phi)[base + i] = pow;
    pow *= x;
  }
  return Status::OK();
}

std::string PiecewisePolynomialModel::ToSource() const {
  std::string src = "piecewise_poly(" + std::to_string(degree_) + ";";
  char buf[64];
  for (size_t i = 0; i < breakpoints_.size(); ++i) {
    if (i > 0) src += ",";
    std::snprintf(buf, sizeof(buf), "%.17g", breakpoints_[i]);
    src += buf;
  }
  src += ")";
  return src;
}

std::string PiecewisePolynomialModel::Formula() const {
  return "y = poly_s(x0) for segment s of " +
         std::to_string(num_segments()) + " (degree " +
         std::to_string(degree_) + ")";
}

// --- ModelFromSource --------------------------------------------------------

Result<ModelPtr> ModelFromSource(const std::string& source) {
  const std::string src(Trim(source));
  auto parse_args = [&](std::string_view name) -> Result<std::string> {
    if (!StartsWith(src, std::string(name) + "(") || src.back() != ')') {
      return Status::ParseError("malformed model source: " + src);
    }
    return src.substr(name.size() + 1, src.size() - name.size() - 2);
  };

  if (src == "power_law") return ModelPtr(new PowerLawModel());
  if (src == "exponential") return ModelPtr(new ExponentialModel());
  if (src == "logistic") return ModelPtr(new LogisticModel());
  if (src == "gaussian_peak") return ModelPtr(new GaussianPeakModel());
  if (src == "log_law") return ModelPtr(new LogLawModel());
  if (StartsWith(src, "linear(")) {
    LAWS_ASSIGN_OR_RETURN(std::string args, parse_args("linear"));
    const long k = std::strtol(args.c_str(), nullptr, 10);
    if (k < 1) return Status::ParseError("linear() needs >= 1 input");
    return ModelPtr(new LinearModel(static_cast<size_t>(k)));
  }
  if (StartsWith(src, "poly(")) {
    LAWS_ASSIGN_OR_RETURN(std::string args, parse_args("poly"));
    const long d = std::strtol(args.c_str(), nullptr, 10);
    if (d < 0) return Status::ParseError("poly() needs degree >= 0");
    return ModelPtr(new PolynomialModel(static_cast<size_t>(d)));
  }
  if (StartsWith(src, "seasonal(")) {
    LAWS_ASSIGN_OR_RETURN(std::string args, parse_args("seasonal"));
    const std::vector<std::string> parts = Split(args, ',');
    const double period = std::strtod(parts[0].c_str(), nullptr);
    if (!(period > 0.0)) return Status::ParseError("seasonal() needs T > 0");
    const bool with_trend =
        parts.size() < 2 || std::string(Trim(parts[1])) != "notrend";
    return ModelPtr(new SeasonalModel(period, with_trend));
  }
  if (StartsWith(src, "piecewise_poly(")) {
    LAWS_ASSIGN_OR_RETURN(std::string args, parse_args("piecewise_poly"));
    const std::vector<std::string> halves = Split(args, ';');
    if (halves.size() != 2) {
      return Status::ParseError("piecewise_poly(degree;b1,b2,...) expected");
    }
    const long d = std::strtol(halves[0].c_str(), nullptr, 10);
    if (d < 0) return Status::ParseError("bad piecewise degree");
    std::vector<double> breaks;
    if (!Trim(halves[1]).empty()) {
      for (const std::string& b : Split(halves[1], ',')) {
        breaks.push_back(std::strtod(b.c_str(), nullptr));
      }
    }
    for (size_t i = 1; i < breaks.size(); ++i) {
      if (breaks[i] <= breaks[i - 1]) {
        return Status::ParseError("breakpoints must be strictly increasing");
      }
    }
    return ModelPtr(
        new PiecewisePolynomialModel(std::move(breaks), static_cast<size_t>(d)));
  }
  return Status::ParseError("unknown model source: " + src);
}

}  // namespace laws
