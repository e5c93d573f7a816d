// Persistence durability cost: what do the v2 image checksums buy and
// what do they charge?
//
// The format CRC32C-protects every section plus the header and the whole
// image, so a loader never parses unverified bytes ("model-based answers
// must never lie" extends to never lying because of bit rot). This bench
// measures the end-to-end save/load wall time on the LOFAR workload and
// isolates the checksum share: raw CRC32C throughput over the image, the
// verification-only pass (InspectImage = header parse + every CRC check),
// and their fraction of the full save + load pipeline. The repo gate is
// checksum overhead < 5% of save+load (tools/bench_compare.py on
// save_load_seconds against the committed baseline).
//
//   bench_persistence [--json PATH] [rows]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.h"
#include "common/crc32c.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/persistence.h"
#include "core/session.h"
#include "lofar/generator.h"

namespace {

using namespace laws;
using namespace laws::bench;

}  // namespace

int main(int argc, char** argv) {
  Banner("persistence: checksummed image save/load",
         "models are retained durably; damaged images are detected, "
         "never trusted");
  size_t rows = 400'000;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (a[0] >= '0' && a[0] <= '9') rows = std::strtoull(a, nullptr, 10);
  }

  LofarConfig cfg;
  cfg.num_rows = rows;
  cfg.num_sources = rows / 40;
  auto gen = Unwrap(GenerateLofar(cfg), "generate");

  Catalog data;
  ModelCatalog models;
  data.RegisterOrReplace("measurements",
                         std::make_shared<Table>(std::move(gen.observations)));
  Session session(&data, &models);
  FitRequest req;
  req.table = "measurements";
  req.model_source = "power_law";
  req.input_columns = {"wavelength"};
  req.output_column = "intensity";
  req.group_column = "source";
  Unwrap(session.Fit(req), "fit");

  constexpr int kIters = 5;
  double save_s = 1e100, load_s = 1e100, verify_s = 1e100, crc_s = 1e100;
  uint32_t image_crc = 0;  // printed below, which keeps the CRC pass live
  std::vector<uint8_t> image;
  for (int it = 0; it < kIters; ++it) {
    Timer t;
    image = Unwrap(SaveDatabaseToBytes(data, models), "save");
    save_s = std::min(save_s, t.ElapsedSeconds());

    t.Restart();
    image_crc = Crc32c(image.data(), image.size());
    crc_s = std::min(crc_s, t.ElapsedSeconds());

    t.Restart();
    auto info = Unwrap(InspectImage(image), "inspect");
    verify_s = std::min(verify_s, t.ElapsedSeconds());
    CheckOk(info.image_checksum_ok ? Status::OK()
                                   : Status::Internal("image crc"),
            "image checksum");

    Catalog data2;
    ModelCatalog models2;
    t.Restart();
    CheckOk(LoadDatabaseFromBytes(image, &data2, &models2), "load");
    load_s = std::min(load_s, t.ElapsedSeconds());
  }

  // The save computes each section CRC plus the header and trailer CRCs —
  // very nearly one full pass over the image; the load verifies the same
  // set, a second pass. Report both the measured verification pass and
  // the raw CRC throughput bound.
  const double pipeline = save_s + load_s;
  const double overhead_pct = 100.0 * (2.0 * crc_s) / pipeline;
  const double crc_gbps =
      static_cast<double>(image.size()) / crc_s / (1024.0 * 1024.0 * 1024.0);

  std::printf("\nrows=%zu image=%s\n", rows, HumanBytes(image.size()).c_str());
  std::printf("  save             %8.2f ms\n", save_s * 1e3);
  std::printf("  load (verified)  %8.2f ms\n", load_s * 1e3);
  std::printf("  verify-only pass %8.2f ms (InspectImage)\n", verify_s * 1e3);
  std::printf("  crc32c one pass  %8.2f ms (%.1f GiB/s, crc32c %08x)\n",
              crc_s * 1e3, crc_gbps, image_crc);
  std::printf("  checksum share   %8.2f %% of save+load (budget < 5%%)\n",
              overhead_pct);

  JsonReport json(JsonPathFromArgs(argc, argv));
  json.Begin("persistence_save_load");
  json.Field("rows", rows);
  json.Field("image_bytes", image.size());
  json.Field("save_seconds", save_s);
  json.Field("load_seconds", load_s);
  json.Field("save_load_seconds", pipeline);
  json.Field("verify_seconds", verify_s);
  json.Field("crc_pass_seconds", crc_s);
  json.Field("crc_gib_per_s", crc_gbps);
  json.Field("checksum_overhead_pct", overhead_pct);
  laws::bench::MetricsFields(json);
  json.Flush();

  if (overhead_pct >= 5.0) {
    std::fprintf(stderr, "FATAL checksum overhead %.2f%% exceeds the 5%% "
                         "budget\n", overhead_pct);
    return 1;
  }
  return 0;
}
