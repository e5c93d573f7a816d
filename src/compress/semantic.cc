#include "compress/semantic.h"

#include <bit>
#include <cmath>
#include <iterator>
#include <optional>

#include "common/thread_pool.h"
#include "model/model.h"

namespace laws {
namespace {

/// Non-failing numeric coercion for columns already checked to be
/// non-string; used inside parallel regions where Status cannot flow.
double CoerceNumeric(const Column& c, size_t i) {
  switch (c.type()) {
    case DataType::kInt64:
      return static_cast<double>(c.Int64At(i));
    case DataType::kDouble:
      return c.DoubleAt(i);
    case DataType::kBool:
      return c.BoolAt(i) ? 1.0 : 0.0;
    case DataType::kString:
      break;  // excluded by the callers' type checks
  }
  return 0.0;
}

/// Per-row model prediction; rows without parameters (unfitted groups) or
/// with NULL inputs predict 0 so residuals degrade to the raw values.
Result<Vector> PredictRows(const Table& table, const Model& model,
                           const GroupParameters& params,
                           const std::string& group_column,
                           const std::vector<std::string>& input_columns) {
  LAWS_ASSIGN_OR_RETURN(const Column* group, table.ColumnByName(group_column));
  std::vector<const Column*> inputs;
  for (const auto& name : input_columns) {
    LAWS_ASSIGN_OR_RETURN(const Column* c, table.ColumnByName(name));
    if (c->type() == DataType::kString) {
      return Status::TypeMismatch("input column '" + name +
                                  "' is not numeric");
    }
    inputs.push_back(c);
  }
  const size_t n = table.num_rows();
  Vector pred(n, 0.0);
  // Rows are independent and each lane writes disjoint pred[i] slots, so
  // the result is identical at any thread count. The grain keeps tiny
  // tables on the serial path.
  ParallelForOptions opts;
  opts.grain = 4096;
  ParallelForChunks(0, n, [&](size_t lo, size_t hi) {
    Vector x(inputs.size()), beta;
    for (size_t i = lo; i < hi; ++i) {
      if (group->IsNull(i)) continue;
      const std::optional<size_t> g = params.Find(group->Int64At(i));
      if (!g) continue;
      bool ok = true;
      for (size_t c = 0; c < inputs.size(); ++c) {
        if (inputs[c]->IsNull(i)) {
          ok = false;
          break;
        }
        x[c] = CoerceNumeric(*inputs[c], i);
      }
      if (!ok) continue;
      params.Params(*g, &beta);
      const double y = model.Evaluate(x, beta);
      pred[i] = std::isfinite(y) ? y : 0.0;
    }
  }, opts);
  return pred;
}

}  // namespace

size_t SemanticCompressedTable::TotalCompressedBytes() const {
  size_t bytes = residual_column.compressed_bytes();
  bytes += parameter_table.MemoryBytes();
  for (const auto& c : other_columns) bytes += c.compressed_bytes();
  bytes += model_source.size();
  return bytes;
}

double SemanticCompressedTable::CompressionRatio() const {
  if (uncompressed_bytes == 0) return 1.0;
  return static_cast<double>(TotalCompressedBytes()) /
         static_cast<double>(uncompressed_bytes);
}

size_t SemanticCompressedTable::OutputColumnBytes() const {
  return residual_column.compressed_bytes() + parameter_table.MemoryBytes() +
         model_source.size();
}

Result<SemanticCompressedTable> SemanticCompress(
    const Table& table, const Model& model, const GroupedFitOutput& fits,
    const GroupedFitSpec& spec, const SemanticCompressionOptions& options) {
  SemanticCompressedTable out;
  out.schema = table.schema();
  out.num_rows = table.num_rows();
  out.model_source = model.ToSource();
  out.group_column = spec.group_column;
  out.input_columns = spec.input_columns;
  out.output_column = spec.output_column;
  out.lossless = options.lossless;
  out.quantization_step = options.lossless ? 0.0 : options.quantization_step;
  out.uncompressed_bytes = table.MemoryBytes();
  if (!options.lossless && !(options.quantization_step > 0.0)) {
    return Status::InvalidArgument("lossy mode needs quantization_step > 0");
  }

  LAWS_ASSIGN_OR_RETURN(out.parameter_table,
                        GroupedFitToTable(model, fits, spec.group_column));
  LAWS_ASSIGN_OR_RETURN(const GroupParameters params,
                        GroupParameters::Of(model, out.parameter_table));

  LAWS_ASSIGN_OR_RETURN(const Column* output_col,
                        table.ColumnByName(spec.output_column));
  if (output_col->type() != DataType::kDouble) {
    return Status::TypeMismatch(
        "semantic compression models a DOUBLE output column");
  }
  LAWS_ASSIGN_OR_RETURN(
      Vector pred, PredictRows(table, model, params, spec.group_column,
                               spec.input_columns));

  // Residual column, preserving nullability. Bit-exact reconstruction
  // requires an exactly invertible transform: floating-point
  // `pred + (y - pred)` can be off by an ulp, so lossless mode stores the
  // XOR of the IEEE bit patterns instead. Good predictions zero the
  // sign/exponent/leading-mantissa bytes, which the byte-shuffled DEFLATE
  // encoding then squeezes out. Lossy mode stores the residual in whole
  // quantization steps.
  Column residuals(DataType::kInt64, output_col->nullable());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    if (output_col->IsNull(i)) {
      LAWS_RETURN_IF_ERROR(residuals.AppendNull());
      continue;
    }
    const double y = output_col->DoubleAt(i);
    residuals.AppendInt64(
        options.lossless
            ? static_cast<int64_t>(std::bit_cast<uint64_t>(y) ^
                                   std::bit_cast<uint64_t>(pred[i]))
            : static_cast<int64_t>(
                  std::llround((y - pred[i]) / options.quantization_step)));
  }

  // The residuals and every other column, compressed under kAuto in one
  // CompressColumns call, so their codec trials and DEFLATE blocks share
  // the pool's lanes; the other columns keep their schema order.
  std::vector<const Column*> columns = {&residuals};
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const std::string& name = table.schema().field(c).name;
    if (name == spec.output_column) continue;
    columns.push_back(&table.column(c));
    out.other_column_names.push_back(name);
  }
  LAWS_ASSIGN_OR_RETURN(std::vector<CompressedColumn> compressed,
                        CompressColumns(columns, ColumnEncoding::kAuto));
  out.residual_column = std::move(compressed[0]);
  out.other_columns.assign(std::make_move_iterator(compressed.begin() + 1),
                           std::make_move_iterator(compressed.end()));
  return out;
}

Result<Table> SemanticDecompress(const SemanticCompressedTable& compressed) {
  LAWS_ASSIGN_OR_RETURN(ModelPtr model,
                        ModelFromSource(compressed.model_source));

  // Rebuild the non-output columns first (predictions need the inputs).
  std::vector<Column> columns;
  columns.reserve(compressed.schema.num_fields());
  size_t other_idx = 0;
  // Output slot placeholder (filled below); remember its index.
  size_t output_idx = compressed.schema.num_fields();
  for (size_t c = 0; c < compressed.schema.num_fields(); ++c) {
    const Field& f = compressed.schema.field(c);
    if (f.name == compressed.output_column) {
      output_idx = c;
      columns.emplace_back(f.type, f.nullable);  // placeholder
      continue;
    }
    if (other_idx >= compressed.other_columns.size() ||
        compressed.other_column_names[other_idx] != f.name) {
      return Status::ParseError("column order mismatch in semantic blob");
    }
    LAWS_ASSIGN_OR_RETURN(
        Column col,
        DecompressColumn(compressed.other_columns[other_idx], f,
                         compressed.num_rows));
    columns.push_back(std::move(col));
    ++other_idx;
  }
  if (output_idx == compressed.schema.num_fields()) {
    return Status::ParseError("output column missing from schema");
  }

  // Assemble a temporary table of the inputs for prediction.
  std::vector<Field> tmp_fields;
  std::vector<Column> tmp_cols;
  for (size_t c = 0; c < compressed.schema.num_fields(); ++c) {
    if (c == output_idx) continue;
    tmp_fields.push_back(compressed.schema.field(c));
    tmp_cols.push_back(columns[c]);
  }
  LAWS_ASSIGN_OR_RETURN(
      Table tmp, Table::FromColumns(Schema(tmp_fields), std::move(tmp_cols)));

  LAWS_ASSIGN_OR_RETURN(
      const GroupParameters params,
      GroupParameters::Of(*model, compressed.parameter_table));
  LAWS_ASSIGN_OR_RETURN(
      Vector pred, PredictRows(tmp, *model, params, compressed.group_column,
                               compressed.input_columns));

  // Reconstruct the output column from residuals.
  const Field& out_field = compressed.schema.field(output_idx);
  LAWS_ASSIGN_OR_RETURN(
      Column residuals,
      DecompressColumn(compressed.residual_column,
                       Field{"residual", DataType::kInt64, out_field.nullable},
                       compressed.num_rows));
  if (residuals.size() != compressed.num_rows) {
    return Status::ParseError("residual row count mismatch");
  }
  Column output(DataType::kDouble, out_field.nullable);
  for (size_t i = 0; i < residuals.size(); ++i) {
    if (residuals.IsNull(i)) {
      LAWS_RETURN_IF_ERROR(output.AppendNull());
      continue;
    }
    const int64_t r = residuals.Int64At(i);
    output.AppendDouble(
        compressed.lossless
            ? std::bit_cast<double>(std::bit_cast<uint64_t>(pred[i]) ^
                                    static_cast<uint64_t>(r))
            : pred[i] + static_cast<double>(r) * compressed.quantization_step);
  }
  columns[output_idx] = std::move(output);
  return Table::FromColumns(compressed.schema, std::move(columns));
}

Result<SemanticCompressedTable> SemanticRecompress(
    const SemanticCompressedTable& old_blob, const Model& new_model,
    const GroupedFitOutput& new_fits, const GroupedFitSpec& new_spec,
    const SemanticCompressionOptions& options) {
  if (!old_blob.lossless) {
    return Status::InvalidArgument(
        "refusing to recompress a lossy blob (errors would accumulate); "
        "recompress from the original data instead");
  }
  LAWS_ASSIGN_OR_RETURN(Table restored, SemanticDecompress(old_blob));
  return SemanticCompress(restored, new_model, new_fits, new_spec, options);
}

}  // namespace laws
