// Table 2 / challenge "Data or model changes" (§4.1).
//
// "Changing or added observations can change fit of the model
// dramatically. This could also make a model with a previously poor fit
// relevant again. A possible solution could be to check these measures for
// all previous models and switch when appropriate." This bench measures
// (a) staleness detection + refit cost after appends, (b) the model-switch
// policy: when appended data changes regime, arbitration flips to the
// previously-inferior model after the refresh sweep.

#include <cmath>
#include <cstdio>
#include <memory>

#include "aqp/model_aqp.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/session.h"
#include "query/parser.h"
#include "storage/catalog.h"

int main() {
  using namespace laws;
  using namespace laws::bench;

  Banner("Table 2: data or model changes",
         "staleness detection, refit cost, and switching to a previously "
         "poor model when the data regime changes");

  // Start in a steep power-law regime: y = 2 * x^-3.
  Catalog catalog;
  ModelCatalog models;
  Session session(&catalog, &models);
  Rng rng(11);
  auto table = std::make_shared<Table>(
      Schema({Field{"x", DataType::kDouble, false},
              Field{"y", DataType::kDouble, false}}));
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(1.0, 3.0);
    CheckOk(table->AppendRow(
                {Value::Double(x),
                 Value::Double(2.0 * std::pow(x, -3.0) *
                               std::exp(rng.Normal(0.0, 0.02)))}),
            "append");
  }
  catalog.RegisterOrReplace("series", table);

  // Capture two competing models: power law (right) and exponential
  // (plausible but worse here).
  FitRequest plaw_fit;
  plaw_fit.table = "series";
  plaw_fit.model_source = "power_law";
  plaw_fit.input_columns = {"x"};
  plaw_fit.output_column = "y";
  FitReport plaw_report = Unwrap(session.Fit(plaw_fit), "plaw fit");
  FitRequest exp_fit = plaw_fit;
  exp_fit.model_source = "exponential";
  FitReport exp_report = Unwrap(session.Fit(exp_fit), "exp fit");

  // Arbitration is the model path's own: FindModelFor on a statement
  // pinned to one x.
  DomainRegistry domains;
  const ModelQueryEngine engine(&catalog, &models, &domains);
  const SelectStatement pinned =
      Unwrap(ParseSelect("SELECT y FROM series WHERE x = 2"), "parse");
  const CapturedModel* best0 = Unwrap(engine.FindModelFor(pinned), "best");
  std::printf("phase 1 (power-law regime): power_law R2=%.4f, exponential "
              "R2=%.4f -> arbitration picks '%s'\n",
              plaw_report.quality.r_squared, exp_report.quality.r_squared,
              best0->model_source.c_str());
  if (best0->model_source != "power_law") {
    std::fprintf(stderr, "FATAL: wrong initial arbitration\n");
    return 1;
  }

  // Regime change: the instrument now produces exponential-decay data,
  // and 20x as much of it accumulates: y = 3 * exp(-0.8 x).
  std::printf("\nphase 2: appending 20000 rows of exponential-regime data\n");
  Timer append_timer;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.Uniform(1.0, 3.0);
    CheckOk(table->AppendRow(
                {Value::Double(x),
                 Value::Double(3.0 * std::exp(-0.8 * x) *
                               std::exp(rng.Normal(0.0, 0.02)))}),
            "append");
  }
  std::printf("  append: %.1f ms\n", append_timer.ElapsedMillis());

  // Both captured models are now stale; the sweep refits them.
  Timer sweep_timer;
  RefitReport sweep = Unwrap(session.RefitStale(), "sweep");
  std::printf("  staleness sweep: checked=%zu stale=%zu refitted=%zu "
              "quality-shifted=%zu in %.1f ms\n",
              sweep.checked, sweep.stale, sweep.refitted,
              sweep.quality_shifted.size(), sweep_timer.ElapsedMillis());
  if (sweep.stale != 2 || sweep.refitted != 2) {
    std::fprintf(stderr, "FATAL: staleness sweep missed models\n");
    return 1;
  }

  // After refresh, arbitration should switch: the appended majority is
  // exponential, so the previously-inferior exponential model takes over.
  const CapturedModel* best1 = Unwrap(engine.FindModelFor(pinned), "best");
  double exp_r2 = 0.0, plaw_r2 = 0.0;
  for (uint64_t id : models.ListIds()) {
    const CapturedModel* m = Unwrap(models.Get(id), "get");
    if (m->model_source == "exponential") exp_r2 = m->quality.r_squared;
    if (m->model_source == "power_law") plaw_r2 = m->quality.r_squared;
  }
  std::printf("\nphase 3 (exponential-majority): power_law R2=%.4f, "
              "exponential R2=%.4f -> arbitration picks '%s'\n",
              plaw_r2, exp_r2, best1->model_source.c_str());
  if (best1->model_source != "exponential") {
    std::fprintf(stderr,
                 "FATAL: arbitration did not switch to the better model\n");
    return 1;
  }
  std::printf("\nSHAPE OK: appended data marked both models stale; the "
              "sweep refreshed them and the previously-inferior "
              "exponential model took over — the paper's proposed switch "
              "policy ('a model with a previously poor fit relevant "
              "again').\n");
  return 0;
}
