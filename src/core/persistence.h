#ifndef LAWSDB_CORE_PERSISTENCE_H_
#define LAWSDB_CORE_PERSISTENCE_H_

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "core/model_catalog.h"
#include "storage/catalog.h"

namespace laws {

/// Durable storage for the whole engine state: data tables (generically
/// compressed per column) plus the model catalog. The paper's premise is
/// that captured models are retained "forever" and model-based answers
/// "must never lie"; persistence makes that literal — a reopened database
/// still knows every harvested model, and a damaged image can never be
/// mistaken for a healthy one.
///
/// Image format v2 (all integers little-endian, lengths LEB128 unless
/// fixed-width):
///
///   magic "LWDB" | version u8 | section_count u32
///   per section: kind u8 | name string | offset u64 | length u64 | crc u32
///   header_crc u32                       (CRC32C of every byte above)
///   section payloads, contiguous, in section-table order
///   image_crc u32                        (CRC32C of every preceding byte)
///
/// Section kinds: table (payload = data_version u64 + compressed table),
/// model catalog manifest (model ids), captured model (one per model).
/// Loaders verify the header CRC, every section CRC and the whole-image
/// CRC before trusting any parsed value; failures report the section name
/// and byte offset. SaveDatabase writes tmp + fsync + rename, so a crash
/// at any point leaves either the old image or the new one, never a
/// hybrid (fault points: persist/serialize_image, persist/serialize_table,
/// persist/write_models, persist/open_tmp, persist/write_image,
/// persist/fsync_tmp, persist/rename, persist/read_image).

/// Section kinds in the image section table.
enum class ImageSectionKind : uint8_t {
  kTable = 1,
  kModelCatalog = 2,
  kModel = 3,
};

/// One entry of a parsed image section table (InspectImage).
struct ImageSection {
  ImageSectionKind kind = ImageSectionKind::kTable;
  /// Table name for kTable, "model/<id>" for kModel, "model_catalog".
  std::string name;
  /// Absolute byte offset of the payload within the image.
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t stored_crc = 0;
  /// Whether the payload matches stored_crc.
  bool crc_ok = false;
};

/// Integrity overview of an image without parsing payloads; the debugging
/// and test face of the format.
struct ImageInfo {
  uint8_t version = 0;
  bool image_checksum_ok = false;
  uint64_t file_bytes = 0;
  std::vector<ImageSection> sections;
};

/// Reads magic, version, section table and all checksums. Fails on bad
/// magic, unsupported version or a corrupt header; per-section corruption
/// is reported via ImageSection::crc_ok, not an error.
Result<ImageInfo> InspectImage(const std::vector<uint8_t>& bytes);

/// Load behavior under corruption.
struct LoadOptions {
  /// When true, sections failing their CRC (or failing to parse) are
  /// quarantined — recorded in the LoadReport and skipped — instead of
  /// failing the whole load. A quarantined model simply does not exist in
  /// the loaded catalog, so query paths fall back to exact data rather
  /// than serving answers from damaged parameters. A quarantined table is
  /// not registered. When false (default), any integrity failure fails the
  /// load with kIOError/kParseError naming the section and byte offset.
  bool tolerate_corruption = false;
};

/// One section dropped by a tolerant load.
struct QuarantinedSection {
  std::string name;
  uint64_t offset = 0;
  std::string reason;
};

/// What a load did: section counts plus everything it had to drop.
struct LoadReport {
  size_t tables_loaded = 0;
  size_t models_loaded = 0;
  /// False when the trailing whole-image checksum did not match (tolerant
  /// loads continue on per-section checksums; strict loads fail instead).
  bool image_checksum_ok = true;
  std::vector<QuarantinedSection> quarantined;

  bool clean() const { return image_checksum_ok && quarantined.empty(); }
  /// Human-readable one-liner per quarantined section.
  std::string Summary() const;
};

/// Serializes one captured model, including the grouped parameter table.
void SerializeCapturedModel(const CapturedModel& model, ByteWriter* out);
/// Reads one captured model and checks it against its law: model_source
/// parses, the input columns match its arity, the parameters read through
/// ParametersOf, and a grouped model's keys strictly ascend. A model that
/// fails is a typed error, so a load fails or quarantines its section.
Result<CapturedModel> DeserializeCapturedModel(ByteReader* in);

/// Writes data catalog + model catalog into one checksummed image. Tables
/// are stored with best-of generic column compression. Model staleness
/// survives the round trip: models fresh at save time are fresh after
/// load.
Result<std::vector<uint8_t>> SaveDatabaseToBytes(const Catalog& data,
                                                 const ModelCatalog& models);

/// Verifies checksums, then parses. `report` (optional) receives what was
/// loaded and what was quarantined; with options.tolerate_corruption the
/// load succeeds as long as the header is intact, dropping damaged
/// sections into the report.
Status LoadDatabaseFromBytes(const std::vector<uint8_t>& bytes, Catalog* data,
                             ModelCatalog* models,
                             const LoadOptions& options = {},
                             LoadReport* report = nullptr);

/// Atomic file save: writes `<path>.tmp.<pid>`, fsyncs, renames over
/// `path`. On any failure (including injected faults) the tmp file is
/// removed and a previously existing image at `path` is untouched.
Status SaveDatabase(const Catalog& data, const ModelCatalog& models,
                    const std::string& path);

Status LoadDatabase(const std::string& path, Catalog* data,
                    ModelCatalog* models, const LoadOptions& options = {},
                    LoadReport* report = nullptr);

}  // namespace laws

#endif  // LAWSDB_CORE_PERSISTENCE_H_
