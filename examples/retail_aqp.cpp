// Retail AQP comparison — the paper's §6 proposal in miniature: benchmark-
// style generated data carries strong regularities, so captured models can
// answer the benchmark's aggregate queries approximately. This example
// pits the captured seasonal model against the two classic AQP baselines
// the paper cites (uniform sampling, histogram synopses) and the exact
// engine, reporting answer error and auxiliary-structure size.

#include <cmath>
#include <cstdio>
#include <memory>

#include "aqp/domain.h"
#include "aqp/histogram_aqp.h"
#include "aqp/model_aqp.h"
#include "aqp/sampling_aqp.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/session.h"
#include "query/executor.h"
#include "query/parser.h"
#include "workload/retail.h"

int main() {
  using namespace laws;

  RetailConfig cfg;
  cfg.num_skus = 500;
  cfg.num_days = 365;
  auto retail = GenerateRetail(cfg);
  if (!retail.ok()) return 1;

  Catalog catalog;
  auto table = std::make_shared<Table>(std::move(retail->sales));
  catalog.RegisterOrReplace("sales", table);
  std::printf("sales: %zu rows (%s)\n", table->num_rows(),
              HumanBytes(table->MemoryBytes()).c_str());

  // Capture the per-SKU weekly seasonal model.
  ModelCatalog models;
  Session session(&catalog, &models);
  FitRequest fit;
  fit.table = "sales";
  fit.model_source = "seasonal(7)";
  fit.input_columns = {"day"};
  fit.output_column = "units";
  fit.group_column = "sku";
  auto report = session.Fit(fit);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  auto captured = models.Get(report->model_id);
  std::printf("captured: %s\n", (*captured)->Summary().c_str());

  // Set up the three approximate engines.
  DomainRegistry domains;
  domains.Register(
      "sales", "day",
      ColumnDomain::IntegerRange(0, static_cast<int64_t>(cfg.num_days) - 1,
                                 1));
  ModelQueryEngine model_engine(&catalog, &models, &domains);
  // Even 5% uniform samples struggle with selective predicates (one SKU x
  // one quarter keeps ~5 sample rows) — the weakness stratified-sampling
  // systems like BlinkDB exist to patch.
  auto sampler = SamplingEngine::Build(*table, 0.05);
  if (!sampler.ok()) return 1;
  auto hist = HistogramEngine::Build(*table, 64);
  if (!hist.ok()) return 1;

  std::printf("\nauxiliary structure sizes:\n");
  std::printf("  model parameters: %s\n",
              HumanBytes((*captured)->StorageBytes()).c_str());
  std::printf("  5%% sample:        %s\n",
              HumanBytes(sampler->SampleBytes()).c_str());
  std::printf("  histograms:       %s\n", HumanBytes(hist->SizeBytes()).c_str());

  // The benchmark query: total units for one SKU over a quarter.
  const std::string q =
      "SELECT SUM(units) FROM sales WHERE sku = 101 AND day >= 90 AND day "
      "<= 180";
  auto exact = ExecuteQuery(catalog, q);
  if (!exact.ok()) return 1;
  const double truth = exact->GetValue(0, 0).dbl();

  auto model_ans = model_engine.Execute(q);
  auto pred = ParseExpression("sku = 101 AND day >= 90 AND day <= 180");
  auto sample_ans =
      sampler->EstimateAggregate(AggregateFunc::kSum, "units", pred->get());

  std::printf("\n%s\n", q.c_str());
  std::printf("  %-12s %14s %12s\n", "method", "answer", "error");
  std::printf("  %-12s %14.1f %12s\n", "exact", truth, "-");
  if (model_ans.ok()) {
    std::printf("  %-12s %14.1f %11.2f%%\n", "model",
                model_ans->table.GetValue(0, 0).dbl(),
                100.0 *
                    std::fabs(model_ans->table.GetValue(0, 0).dbl() - truth) /
                    truth);
  }
  if (sample_ans.ok()) {
    std::printf("  %-12s %14.1f %11.2f%%   (CI +/- %.1f)\n", "sample",
                sample_ans->value,
                100.0 * std::fabs(sample_ans->value - truth) / truth,
                sample_ans->ci_half_width);
  }
  // Histograms cannot answer a cross-column restriction (sku AND day) —
  // exactly the limitation the paper holds against generic synopses.
  auto hist_ans =
      hist->EstimateRange(AggregateFunc::kSum, "units", "day", 90, 180);
  std::printf("  %-12s %14s   (%s)\n", "histogram", "n/a",
              hist_ans.ok() ? "ignores the sku predicate"
                            : hist_ans.status().ToString().c_str());
  return 0;
}
