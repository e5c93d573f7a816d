// Table 2 / challenge "Multiple, partial or grouped models" (§4.1).
//
// Three sub-problems the paper raises, exercised in turn:
//  (a) multiple high-quality models over the same columns -> arbitration,
//  (b) a model fitted on a restricted subset (partial coverage) is only
//      trusted inside its subset,
//  (c) grouped models yield a parameter set per group (exercised
//      throughout; here we check the multi-model interplay with groups).

#include <cmath>
#include <cstdio>
#include <memory>

#include "aqp/model_aqp.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "core/session.h"
#include "query/expr_eval.h"
#include "query/parser.h"
#include "storage/catalog.h"

int main() {
  using namespace laws;
  using namespace laws::bench;

  Banner("Table 2: multiple, partial or grouped models",
         "arbitration among overlapping models; subset-restricted fits "
         "apply only to their subset");

  // Data with a regime split at x = 5: quadratic below, linear above.
  Catalog catalog;
  ModelCatalog models;
  Session session(&catalog, &models);
  Rng rng(23);
  auto table = std::make_shared<Table>(
      Schema({Field{"x", DataType::kDouble, false},
              Field{"y", DataType::kDouble, false}}));
  for (int i = 0; i < 6000; ++i) {
    const double x = rng.Uniform(0.0, 10.0);
    const double y = x < 5.0 ? 1.0 + 0.3 * x * x
                             : 12.0 - 0.9 * x;
    CheckOk(table->AppendRow({Value::Double(x),
                              Value::Double(y + rng.Normal(0.0, 0.05))}),
            "append");
  }
  catalog.RegisterOrReplace("t", table);

  // (a) Multiple models over the full column: poly(2) vs linear(1).
  FitRequest poly_fit;
  poly_fit.table = "t";
  poly_fit.model_source = "poly(2)";
  poly_fit.input_columns = {"x"};
  poly_fit.output_column = "y";
  FitReport poly_report = Unwrap(session.Fit(poly_fit), "poly");
  FitRequest lin_fit = poly_fit;
  lin_fit.model_source = "linear(1)";
  FitReport lin_report = Unwrap(session.Fit(lin_fit), "lin");
  // Arbitration is the model path's own: FindModelFor on a statement
  // pinned to one x.
  DomainRegistry domains;
  const ModelQueryEngine engine(&catalog, &models, &domains);
  const SelectStatement pinned =
      Unwrap(ParseSelect("SELECT y FROM t WHERE x = 2.5"), "parse");
  const CapturedModel* best = Unwrap(engine.FindModelFor(pinned), "best");
  std::printf("(a) full-table models: poly(2) R2=%.4f vs linear R2=%.4f -> "
              "arbitration: %s\n",
              poly_report.quality.r_squared, lin_report.quality.r_squared,
              best->model_source.c_str());

  // (b) Partial models: fit each regime on its own subset. Each fits its
  // regime near-perfectly while the full-table models cannot.
  FitRequest low_fit = poly_fit;
  low_fit.where = "x < 5";
  FitReport low_report = Unwrap(session.Fit(low_fit), "low subset");
  FitRequest high_fit = lin_fit;
  high_fit.where = "x >= 5";
  FitReport high_report = Unwrap(session.Fit(high_fit), "high subset");
  std::printf("(b) subset models: poly(2)|x<5 R2=%.4f, linear|x>=5 "
              "R2=%.4f (full-table best was R2=%.4f)\n",
              low_report.quality.r_squared, high_report.quality.r_squared,
              best->ArbitrationQuality());
  if (low_report.quality.r_squared < 0.99 ||
      high_report.quality.r_squared < 0.99) {
    std::fprintf(stderr, "FATAL: subset fits should be near-perfect\n");
    return 1;
  }

  // The captured subset predicate is retained, so a query processor can
  // check containment: evaluate each model's predicate coverage of a
  // candidate query range.
  const CapturedModel* low_model =
      Unwrap(models.Get(low_report.model_id), "low model");
  std::printf("    captured subset predicate: \"%s\" over %zu rows\n",
              low_model->subset_predicate.c_str(), low_model->rows_fitted);
  auto predicate =
      Unwrap(ParseExpression(low_model->subset_predicate), "parse");
  auto rows = Unwrap(FilterRows(*predicate, *table), "coverage");
  std::printf("    predicate currently covers %zu / %zu rows — queries "
              "outside it must not use this model\n",
              rows.size(), table->num_rows());

  // (c) Overlap resolution: with all four models stored, the best
  // *full-coverage* model is still chosen, although both subset models
  // fit better; they keep their predicates for a coverage-aware planner.
  size_t full_models = 0, partial_models = 0;
  for (uint64_t id : models.ListIds()) {
    const CapturedModel* m = Unwrap(models.Get(id), "get");
    (m->subset_predicate.empty() ? full_models : partial_models) += 1;
  }
  std::printf("(c) catalog now holds %zu full-coverage and %zu partial "
              "models over t.y\n",
              full_models, partial_models);
  if (full_models != 2 || partial_models != 2) {
    std::fprintf(stderr, "FATAL: unexpected catalog contents\n");
    return 1;
  }
  const CapturedModel* chosen = Unwrap(engine.FindModelFor(pinned), "chosen");
  const bool full = chosen->subset_predicate.empty();
  std::printf("    arbitration with all four stored: %s (%s)\n",
              chosen->model_source.c_str(),
              full ? "full table" : chosen->subset_predicate.c_str());
  if (chosen->model_source != "poly(2)" || !full) {
    std::fprintf(stderr,
                 "FATAL: arbitration must pick the full-table poly(2)\n");
    return 1;
  }

  std::printf("\nSHAPE OK: quality arbitration picks the better "
              "full-coverage model; regime-restricted fits achieve "
              "near-perfect quality inside their subsets and carry their "
              "predicates for coverage checks.\n");
  return 0;
}
