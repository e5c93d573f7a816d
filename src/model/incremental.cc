#include "model/incremental.h"

#include <cmath>

#include "linalg/solve.h"

namespace laws {

IncrementalOls::IncrementalOls(ModelPtr model)
    : model_(std::move(model)),
      xtx_(model_->num_parameters(), model_->num_parameters()),
      xty_(model_->num_parameters(), 0.0) {}

Result<IncrementalOls> IncrementalOls::Create(const Model& model) {
  if (!model.IsLinearInParameters()) {
    return Status::InvalidArgument(
        "incremental OLS requires a model linear in its parameters");
  }
  return IncrementalOls(model.Clone());
}

Status IncrementalOls::Add(const Vector& inputs, double y) {
  if (inputs.size() != model_->num_inputs()) {
    return Status::InvalidArgument("input arity mismatch");
  }
  Vector& phi = phi_;
  LAWS_RETURN_IF_ERROR(model_->BasisFunctions(inputs, &phi));
  const size_t p = phi.size();
  for (size_t i = 0; i < p; ++i) {
    xty_[i] += phi[i] * y;
    for (size_t j = 0; j < p; ++j) {
      xtx_(i, j) += phi[i] * phi[j];
    }
  }
  sum_y_ += y;
  sum_y2_ += y * y;
  ++n_;
  return Status::OK();
}

Status IncrementalOls::AddBatch(const Matrix& inputs, const Vector& y) {
  if (inputs.rows() != y.size()) {
    return Status::InvalidArgument("batch size mismatch");
  }
  Vector x(inputs.cols());
  for (size_t r = 0; r < inputs.rows(); ++r) {
    for (size_t c = 0; c < inputs.cols(); ++c) x[c] = inputs(r, c);
    LAWS_RETURN_IF_ERROR(Add(x, y[r]));
  }
  return Status::OK();
}

Status IncrementalOls::Merge(const IncrementalOls& other) {
  if (other.model_->ToSource() != model_->ToSource()) {
    return Status::InvalidArgument("merging accumulators of different models");
  }
  const size_t p = xty_.size();
  for (size_t i = 0; i < p; ++i) {
    xty_[i] += other.xty_[i];
    for (size_t j = 0; j < p; ++j) xtx_(i, j) += other.xtx_(i, j);
  }
#ifdef LAWS_TESTING_INJECT_BUG
  // Planted mutant for the learning-harness smoke test: corrupt one
  // merged sufficient statistic. Every scan-local accumulator merged into
  // a stored candidate drifts Phi^T y a little further from the data, so
  // the harvested parameters silently diverge from a batch OLS over the
  // same rows — exactly what VerifyCandidatesAgainstBatch must catch.
  xty_[0] += 1.0;
#endif
  sum_y_ += other.sum_y_;
  sum_y2_ += other.sum_y2_;
  n_ += other.n_;
  return Status::OK();
}

Result<FitOutput> IncrementalOls::Solve() const {
  const size_t p = model_->num_parameters();
  if (n_ <= p) {
    return Status::InvalidArgument(
        "need more observations than parameters (n > p)");
  }
  LAWS_ASSIGN_OR_RETURN(Vector beta, CholeskySolve(xtx_, xty_));

  FitOutput out;
  out.parameters = beta;
  out.converged = true;
  out.iterations = 1;
  out.algorithm_used = FitAlgorithm::kOlsNormalEquations;

  // Quality from the sufficient statistics:
  //   RSS = y'y - 2 b'X'y + b'X'Xb,  TSS = y'y - n*mean^2.
  const double nd = static_cast<double>(n_);
  double bxtxb = 0.0;
  for (size_t i = 0; i < p; ++i) {
    double acc = 0.0;
    for (size_t j = 0; j < p; ++j) acc += xtx_(i, j) * beta[j];
    bxtxb += beta[i] * acc;
  }
  double rss = sum_y2_ - 2.0 * Dot(beta, xty_) + bxtxb;
  rss = std::max(rss, 0.0);  // guard cancellation
  const double mean = sum_y_ / nd;
  const double tss = std::max(sum_y2_ - nd * mean * mean, 0.0);

  out.quality = FitQualityFromSums(rss, tss, n_, p);

  // Standard errors from sigma^2 (X'X)^{-1}.
  auto inv = Invert(xtx_);
  if (inv.ok()) {
    const double s2 = rss / (nd - static_cast<double>(p));
    out.standard_errors.assign(p, 0.0);
    for (size_t i = 0; i < p; ++i) {
      const double v = s2 * (*inv)(i, i);
      out.standard_errors[i] = v > 0.0 ? std::sqrt(v) : 0.0;
    }
  }
  return out;
}

}  // namespace laws
