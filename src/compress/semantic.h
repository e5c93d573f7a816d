#ifndef LAWSDB_COMPRESS_SEMANTIC_H_
#define LAWSDB_COMPRESS_SEMANTIC_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "compress/column_compressor.h"
#include "model/grouped_fit.h"
#include "storage/table.h"

namespace laws {

/// Options for model-based ("semantic") compression — the paper's §4.1
/// opportunity: "store only the differences between the predicted and
/// observed values ... we can then recompute the original dataset without
/// loss of information".
struct SemanticCompressionOptions {
  /// Lossless mode stores XOR bit-deltas between observed and predicted
  /// IEEE doubles (exactly invertible; good predictions zero the high
  /// bytes, which byte-shuffled DEFLATE then removes). Lossy mode
  /// quantizes residuals to multiples of `quantization_step`, bounding the
  /// absolute reconstruction error by step/2 — the knob for the
  /// residual-quantization ablation.
  bool lossless = true;
  double quantization_step = 1e-4;
};

/// A semantically compressed table: the captured model (source form + per-
/// group parameters) plus residuals for the modeled output column and
/// generically compressed remaining columns.
struct SemanticCompressedTable {
  Schema schema;
  size_t num_rows = 0;

  /// Model structure in source form (ModelFromSource round-trip).
  std::string model_source;
  std::string group_column;
  std::vector<std::string> input_columns;
  std::string output_column;

  /// Per-group fitted parameters (schema: group, params..., residual_se,
  /// r_squared, n_obs).
  Table parameter_table{Schema{}};

  /// All non-output columns, generically compressed, in schema order.
  std::vector<CompressedColumn> other_columns;
  std::vector<std::string> other_column_names;

  /// The output column as residuals (lossless doubles or quantized ints).
  CompressedColumn residual_column;
  bool lossless = true;
  double quantization_step = 0.0;

  /// Residuals + parameters + other columns, in bytes.
  size_t TotalCompressedBytes() const;
  /// Raw columnar footprint of the source table.
  size_t uncompressed_bytes = 0;
  double CompressionRatio() const;
  /// Bytes spent only on reconstructing the output column (residuals +
  /// parameter table) — the apples-to-apples number against compressing
  /// the output column alone.
  size_t OutputColumnBytes() const;
};

/// Compresses `table` using a fitted grouped model. `fits` must come from
/// FitGrouped over the same table/spec. Groups without a fit fall back to
/// prediction 0 (their residuals equal the raw values), so the round trip
/// is always lossless in lossless mode.
Result<SemanticCompressedTable> SemanticCompress(
    const Table& table, const Model& model, const GroupedFitOutput& fits,
    const GroupedFitSpec& spec, const SemanticCompressionOptions& options = {});

/// Reconstructs the table. In lossless mode the result is bit-exact; in
/// lossy mode the output column deviates by at most quantization_step/2.
Result<Table> SemanticDecompress(const SemanticCompressedTable& compressed);

/// Re-bases an existing *lossless* semantic blob on a newer/better model
/// (paper §4.1: "if we base our data compression on a model, we can choose
/// to recompress the data, which is an IO-intensive process"): decompresses
/// with the old model and recompresses against `new_fits`. Refuses lossy
/// inputs — recompressing already-lossy data would silently stack error.
Result<SemanticCompressedTable> SemanticRecompress(
    const SemanticCompressedTable& old_blob, const Model& new_model,
    const GroupedFitOutput& new_fits, const GroupedFitSpec& new_spec,
    const SemanticCompressionOptions& options = {});

}  // namespace laws

#endif  // LAWSDB_COMPRESS_SEMANTIC_H_
