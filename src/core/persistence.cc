#include "core/persistence.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <set>

#include "common/crc32c.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "compress/column_compressor.h"
#include "model/model.h"
#include "storage/serialize.h"

namespace laws {
namespace {

constexpr char kMagic[4] = {'L', 'W', 'D', 'B'};
/// v1 wrote an unchecksummed stream; v2 is the sectioned, CRC32C-guarded
/// format described in persistence.h. v1 images are rejected with a clear
/// message rather than parsed on trust.
constexpr uint8_t kFormatVersion = 2;

/// Smallest possible section-table entry: kind + empty name + offset +
/// length + crc. Bounds the claimed section count against the bytes left.
constexpr uint64_t kMinSectionEntryBytes = 1 + 1 + 8 + 8 + 4;

const char* SectionKindName(ImageSectionKind kind) {
  switch (kind) {
    case ImageSectionKind::kTable:
      return "table";
    case ImageSectionKind::kModelCatalog:
      return "model catalog";
    case ImageSectionKind::kModel:
      return "model";
  }
  return "?";
}

void SerializeVector(const Vector& v, ByteWriter* out) {
  out->PutVarint(v.size());
  for (double x : v) out->PutDouble(x);
}

Result<Vector> DeserializeVector(ByteReader* in) {
  LAWS_ASSIGN_OR_RETURN(uint64_t n, in->GetCount(8, "parameter vector"));
  Vector v(n);
  for (auto& x : v) {
    LAWS_ASSIGN_OR_RETURN(x, in->GetDouble());
  }
  return v;
}

void SerializeQuality(const FitQuality& q, ByteWriter* out) {
  out->PutVarint(q.n_observations);
  out->PutVarint(q.n_parameters);
  out->PutDouble(q.r_squared);
  out->PutDouble(q.adjusted_r_squared);
  out->PutDouble(q.residual_standard_error);
  out->PutDouble(q.residual_sum_of_squares);
  out->PutDouble(q.total_sum_of_squares);
  out->PutDouble(q.aic);
  out->PutDouble(q.bic);
}

Result<FitQuality> DeserializeQuality(ByteReader* in) {
  FitQuality q;
  LAWS_ASSIGN_OR_RETURN(uint64_t n_obs, in->GetVarint());
  LAWS_ASSIGN_OR_RETURN(uint64_t n_par, in->GetVarint());
  q.n_observations = n_obs;
  q.n_parameters = n_par;
  LAWS_ASSIGN_OR_RETURN(q.r_squared, in->GetDouble());
  LAWS_ASSIGN_OR_RETURN(q.adjusted_r_squared, in->GetDouble());
  LAWS_ASSIGN_OR_RETURN(q.residual_standard_error, in->GetDouble());
  LAWS_ASSIGN_OR_RETURN(q.residual_sum_of_squares, in->GetDouble());
  LAWS_ASSIGN_OR_RETURN(q.total_sum_of_squares, in->GetDouble());
  LAWS_ASSIGN_OR_RETURN(q.aic, in->GetDouble());
  LAWS_ASSIGN_OR_RETURN(q.bic, in->GetDouble());
  return q;
}

/// A table section's payload: the table's data version, then its
/// compressed image: schema + per-column (encoding, payload). The buffer is
/// sized once, to exactly the bytes written.
Result<std::vector<uint8_t>> TableSectionPayload(const Table& table) {
  LAWS_ASSIGN_OR_RETURN(CompressedTable ct, CompressTable(table));
  size_t bytes = sizeof(uint64_t) + VarintSize(ct.schema.num_fields()) +
                 VarintSize(ct.num_rows);
  for (const Field& f : ct.schema.fields()) {
    bytes += VarintSize(f.name.size()) + f.name.size() + 2;
  }
  for (const CompressedColumn& c : ct.columns) {
    bytes += 1 + VarintSize(c.payload.size()) + c.payload.size();
  }
  std::vector<uint8_t> buffer;
  buffer.reserve(bytes);
  ByteWriter out(std::move(buffer));
  // Freshness of every model fitted on this table, so staleness semantics
  // survive the round trip (loaded tables restart their version counters).
  out.PutU64(table.data_version());
  out.PutVarint(ct.schema.num_fields());
  for (const Field& f : ct.schema.fields()) {
    out.PutString(f.name);
    out.PutU8(static_cast<uint8_t>(f.type));
    out.PutU8(f.nullable ? 1 : 0);
  }
  out.PutVarint(ct.num_rows);
  for (const CompressedColumn& c : ct.columns) {
    out.PutU8(static_cast<uint8_t>(c.encoding));
    out.PutVarint(c.payload.size());
    out.PutRaw(c.payload.data(), c.payload.size());
  }
  return out.TakeData();
}

/// Reads a table's compressed image; the decoders read each column payload
/// in place, so `in`'s bytes must outlive the call.
Result<Table> DeserializeTableCompressed(ByteReader* in) {
  // A field encodes at least name length + type + nullable = 3 bytes.
  LAWS_ASSIGN_OR_RETURN(uint64_t nfields, in->GetCount(3, "field count"));
  std::vector<Field> fields;
  fields.reserve(nfields);
  for (uint64_t i = 0; i < nfields; ++i) {
    Field f;
    LAWS_ASSIGN_OR_RETURN(f.name, in->GetString());
    LAWS_ASSIGN_OR_RETURN(uint8_t t, in->GetU8());
    if (t > static_cast<uint8_t>(DataType::kBool)) {
      return Status::ParseError("bad column type tag");
    }
    f.type = static_cast<DataType>(t);
    LAWS_ASSIGN_OR_RETURN(uint8_t nullable, in->GetU8());
    f.nullable = nullable != 0;
    fields.push_back(std::move(f));
  }
  const Schema schema(std::move(fields));
  LAWS_ASSIGN_OR_RETURN(uint64_t rows, in->GetVarint());
  std::vector<ColumnPayloadView> columns(schema.num_fields());
  for (ColumnPayloadView& col : columns) {
    LAWS_ASSIGN_OR_RETURN(uint8_t enc, in->GetU8());
    col.encoding = static_cast<ColumnEncoding>(enc);
    LAWS_ASSIGN_OR_RETURN(uint64_t psize, in->GetCount(1, "column payload"));
    LAWS_ASSIGN_OR_RETURN(const uint8_t* payload, in->GetView(psize));
    col.payload = {payload, static_cast<size_t>(psize)};
  }
  return DecompressTable(schema, rows, columns);
}

/// One section staged for assembly (save) or parsed for loading.
struct StagedSection {
  ImageSectionKind kind;
  std::string name;
  std::vector<uint8_t> payload;
};

/// Serializes the section table; offsets are fixed-width so the header
/// size does not depend on their values (measure with zeros, then write
/// the real ones).
std::vector<uint8_t> BuildHeader(const std::vector<StagedSection>& sections,
                                 const std::vector<uint64_t>& offsets,
                                 const std::vector<uint32_t>& crcs) {
  ByteWriter h;
  h.PutRaw(kMagic, sizeof(kMagic));
  h.PutU8(kFormatVersion);
  h.PutU32(static_cast<uint32_t>(sections.size()));
  for (size_t i = 0; i < sections.size(); ++i) {
    h.PutU8(static_cast<uint8_t>(sections[i].kind));
    h.PutString(sections[i].name);
    h.PutU64(offsets[i]);
    h.PutU64(sections[i].payload.size());
    h.PutU32(crcs[i]);
  }
  return h.TakeData();
}

struct ParsedHeader {
  uint8_t version = 0;
  std::vector<ImageSection> sections;
  /// Byte offset just past the section table (start of the header CRC).
  size_t header_end = 0;
};

/// Reads and verifies magic, version, section table and header CRC, and
/// bounds-checks every section against the payload region. Everything the
/// loader trusts afterwards is covered by the header checksum.
Result<ParsedHeader> ParseHeader(const std::vector<uint8_t>& bytes) {
  ByteReader in(bytes);
  char magic[4];
  LAWS_RETURN_IF_ERROR(in.GetRaw(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(magic)) != 0) {
    return Status::ParseError("not a LawsDB database image (bad magic)");
  }
  ParsedHeader h;
  LAWS_ASSIGN_OR_RETURN(h.version, in.GetU8());
  if (h.version != kFormatVersion) {
    return Status::ParseError(
        "unsupported database image version " + std::to_string(h.version) +
        " (this build reads version " + std::to_string(kFormatVersion) +
        "; re-save the database with a current build)");
  }
  LAWS_ASSIGN_OR_RETURN(uint32_t count, in.GetU32());
  if (count > in.remaining() / kMinSectionEntryBytes) {
    return Status::ParseError("implausible section count");
  }
  h.sections.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ImageSection s;
    LAWS_ASSIGN_OR_RETURN(uint8_t kind, in.GetU8());
    if (kind < static_cast<uint8_t>(ImageSectionKind::kTable) ||
        kind > static_cast<uint8_t>(ImageSectionKind::kModel)) {
      return Status::ParseError("bad section kind tag");
    }
    s.kind = static_cast<ImageSectionKind>(kind);
    LAWS_ASSIGN_OR_RETURN(s.name, in.GetString());
    LAWS_ASSIGN_OR_RETURN(s.offset, in.GetU64());
    LAWS_ASSIGN_OR_RETURN(s.length, in.GetU64());
    LAWS_ASSIGN_OR_RETURN(s.stored_crc, in.GetU32());
    h.sections.push_back(std::move(s));
  }
  h.header_end = in.position();
  LAWS_ASSIGN_OR_RETURN(uint32_t header_crc, in.GetU32());
  if (Crc32c(bytes.data(), h.header_end) != header_crc) {
    return Status::IOError("image header checksum mismatch (bytes 0.." +
                           std::to_string(h.header_end) + ")");
  }
  // Payload region: [header_end + 4, size - 4). The trailing 4 bytes hold
  // the whole-image checksum.
  if (bytes.size() < h.header_end + 4 + 4) {
    return Status::ParseError("truncated image (missing trailer checksum)");
  }
  const uint64_t payload_begin = h.header_end + 4;
  const uint64_t payload_end = bytes.size() - 4;
  for (const ImageSection& s : h.sections) {
    if (s.offset < payload_begin || s.offset > payload_end ||
        s.length > payload_end - s.offset) {
      return Status::ParseError("section '" + s.name +
                                "' out of bounds at offset " +
                                std::to_string(s.offset));
    }
  }
  return h;
}

bool VerifyImageCrc(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 4) return false;
  uint32_t stored;
  std::memcpy(&stored, bytes.data() + bytes.size() - 4, sizeof(stored));
  return Crc32c(bytes.data(), bytes.size() - 4) == stored;
}

Status SectionCrcStatus(const std::vector<uint8_t>& bytes,
                        const ImageSection& s) {
  if (Crc32c(bytes.data() + s.offset, s.length) != s.stored_crc) {
    return Status::IOError("checksum mismatch in " +
                           std::string(SectionKindName(s.kind)) +
                           " section '" + s.name + "' at offset " +
                           std::to_string(s.offset));
  }
  return Status::OK();
}

/// Prefixes a parse failure with where it happened.
Status InSection(const ImageSection& s, Status st) {
  return Status(st.code(), std::string(SectionKindName(s.kind)) +
                               " section '" + s.name + "' at offset " +
                               std::to_string(s.offset) + ": " +
                               st.message());
}

/// POSIX write loop; on an armed "persist/write_image" truncate fault only
/// the allowed prefix reaches the file before the injected error —
/// modelling a torn write cut short by a crash.
Status WriteAllWithFaults(int fd, const uint8_t* data, size_t n) {
  auto& faults = FaultInjector::Instance();
  bool fail_after = false;
  size_t to_write = n;
  if (faults.active()) {
    to_write = faults.AllowedWriteBytes("persist/write_image", n, &fail_after);
  }
  size_t written = 0;
  while (written < to_write) {
    const ssize_t w = ::write(fd, data + written, to_write - written);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("write failed: ") +
                             std::strerror(errno));
    }
    written += static_cast<size_t>(w);
  }
  if (fail_after) {
    return Status::IOError("injected torn write at persist/write_image after " +
                           std::to_string(to_write) + " bytes");
  }
  return Status::OK();
}

Status WriteImageAtomic(const std::vector<uint8_t>& bytes,
                        const std::string& path) {
  auto& faults = FaultInjector::Instance();
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());

  LAWS_FAULT_POINT("persist/open_tmp");
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open " + tmp + ": " + std::strerror(errno));
  }
  auto fail = [&](Status st) {
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    return st;
  };

  // An armed bitflip on the write site corrupts the image between memory
  // and disk — save "succeeds", and the load-side checksums must catch it.
  const uint8_t* data = bytes.data();
  std::vector<uint8_t> corrupted;
  if (faults.active()) {
    corrupted = bytes;
    if (faults.CorruptBuffer("persist/write_image", corrupted.data(),
                             corrupted.size())) {
      data = corrupted.data();
    }
  }

  Status write_status = WriteAllWithFaults(fd, data, bytes.size());
  if (!write_status.ok()) return fail(write_status);
  {
    Status st = faults.active() ? faults.Check("persist/write_image")
                                : Status::OK();
    if (!st.ok()) return fail(st);
  }

  {
    Status st = faults.active() ? faults.Check("persist/fsync_tmp")
                                : Status::OK();
    if (!st.ok()) return fail(st);
  }
  if (::fsync(fd) != 0) {
    return fail(Status::IOError("fsync failed for " + tmp + ": " +
                                std::strerror(errno)));
  }
  if (::close(fd) != 0) {
    fd = -1;
    return fail(Status::IOError("close failed for " + tmp + ": " +
                                std::strerror(errno)));
  }
  fd = -1;

  {
    Status st =
        faults.active() ? faults.Check("persist/rename") : Status::OK();
    if (!st.ok()) return fail(st);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail(Status::IOError("rename " + tmp + " -> " + path +
                                " failed: " + std::strerror(errno)));
  }

  // Make the rename itself durable: fsync the containing directory.
  // Best-effort — the data is already safely at `path` either way.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

}  // namespace

std::string LoadReport::Summary() const {
  std::string out = std::to_string(tables_loaded) + " table(s), " +
                    std::to_string(models_loaded) + " model(s) loaded";
  if (!image_checksum_ok) out += "; whole-image checksum FAILED";
  for (const QuarantinedSection& q : quarantined) {
    out += "\nquarantined '" + q.name + "' at offset " +
           std::to_string(q.offset) + ": " + q.reason;
  }
  return out;
}

void SerializeCapturedModel(const CapturedModel& model, ByteWriter* out) {
  out->PutU64(model.id);
  out->PutString(model.table_name);
  out->PutVarint(model.input_columns.size());
  for (const auto& c : model.input_columns) out->PutString(c);
  out->PutString(model.output_column);
  out->PutString(model.group_column);
  out->PutString(model.subset_predicate);
  out->PutString(model.model_source);
  SerializeVector(model.parameters, out);
  SerializeVector(model.standard_errors, out);
  SerializeQuality(model.quality, out);
  out->PutU8(model.grouped ? 1 : 0);
  if (model.grouped) {
    SerializeTable(model.parameter_table, out);
  }
  out->PutVarint(model.num_groups);
  out->PutVarint(model.groups_skipped);
  out->PutVarint(model.groups_failed);
  out->PutDouble(model.median_r_squared);
  out->PutDouble(model.median_residual_se);
  out->PutU64(model.fitted_data_version);
  out->PutVarint(model.rows_fitted);
}

Result<CapturedModel> DeserializeCapturedModel(ByteReader* in) {
  CapturedModel m;
  LAWS_ASSIGN_OR_RETURN(m.id, in->GetU64());
  LAWS_ASSIGN_OR_RETURN(m.table_name, in->GetString());
  // An input column encodes at least its 1-byte length prefix.
  LAWS_ASSIGN_OR_RETURN(uint64_t n_inputs, in->GetCount(1, "input columns"));
  m.input_columns.resize(n_inputs);
  for (auto& c : m.input_columns) {
    LAWS_ASSIGN_OR_RETURN(c, in->GetString());
  }
  LAWS_ASSIGN_OR_RETURN(m.output_column, in->GetString());
  LAWS_ASSIGN_OR_RETURN(m.group_column, in->GetString());
  LAWS_ASSIGN_OR_RETURN(m.subset_predicate, in->GetString());
  LAWS_ASSIGN_OR_RETURN(m.model_source, in->GetString());
  LAWS_ASSIGN_OR_RETURN(m.parameters, DeserializeVector(in));
  LAWS_ASSIGN_OR_RETURN(m.standard_errors, DeserializeVector(in));
  LAWS_ASSIGN_OR_RETURN(m.quality, DeserializeQuality(in));
  LAWS_ASSIGN_OR_RETURN(uint8_t grouped, in->GetU8());
  m.grouped = grouped != 0;
  if (m.grouped) {
    LAWS_ASSIGN_OR_RETURN(m.parameter_table, DeserializeTable(in));
  }
  LAWS_ASSIGN_OR_RETURN(uint64_t num_groups, in->GetVarint());
  LAWS_ASSIGN_OR_RETURN(uint64_t skipped, in->GetVarint());
  LAWS_ASSIGN_OR_RETURN(uint64_t failed, in->GetVarint());
  m.num_groups = num_groups;
  m.groups_skipped = skipped;
  m.groups_failed = failed;
  LAWS_ASSIGN_OR_RETURN(m.median_r_squared, in->GetDouble());
  LAWS_ASSIGN_OR_RETURN(m.median_residual_se, in->GetDouble());
  LAWS_ASSIGN_OR_RETURN(m.fitted_data_version, in->GetU64());
  LAWS_ASSIGN_OR_RETURN(uint64_t rows, in->GetVarint());
  m.rows_fitted = rows;

  // The model must agree with its law before anything serves from it: a
  // parameter table or vector the law reads out of bounds is a load
  // error here, not a crash at the first query.
  LAWS_ASSIGN_OR_RETURN(ModelPtr law, ModelFromSource(m.model_source));
  if (m.input_columns.size() != law->num_inputs()) {
    return Status::InvalidArgument(
        "model has " + std::to_string(m.input_columns.size()) +
        " input columns; " + m.model_source + " needs " +
        std::to_string(law->num_inputs()));
  }
  LAWS_ASSIGN_OR_RETURN(const GroupParameters groups, ParametersOf(m, *law));
  for (size_t g = 1; g < groups.num_groups(); ++g) {
    if (groups.key(g - 1) >= groups.key(g)) {
      return Status::InvalidArgument(
          "parameter table keys are not strictly ascending at row " +
          std::to_string(g));
    }
  }
  return m;
}

Result<ImageInfo> InspectImage(const std::vector<uint8_t>& bytes) {
  LAWS_ASSIGN_OR_RETURN(ParsedHeader h, ParseHeader(bytes));
  ImageInfo info;
  info.version = h.version;
  info.file_bytes = bytes.size();
  info.image_checksum_ok = VerifyImageCrc(bytes);
  info.sections = std::move(h.sections);
  for (ImageSection& s : info.sections) {
    s.crc_ok = SectionCrcStatus(bytes, s).ok();
  }
  return info;
}

Result<std::vector<uint8_t>> SaveDatabaseToBytes(const Catalog& data,
                                                 const ModelCatalog& models) {
  LAWS_FAULT_POINT("persist/serialize_image");
  std::vector<StagedSection> sections;

  for (const auto& name : data.ListTables()) {
    LAWS_FAULT_POINT("persist/serialize_table");
    LAWS_ASSIGN_OR_RETURN(TablePtr table, data.Get(name));
    LAWS_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                          TableSectionPayload(*table));
    sections.push_back({ImageSectionKind::kTable, name, std::move(payload)});
  }

  // The catalog manifest lists every model id the image must contain, so
  // a vanished model section is detectable even though each model also
  // carries its own CRC.
  const auto ids = models.ListIds();
  {
    ByteWriter w;
    w.PutVarint(ids.size());
    for (uint64_t id : ids) w.PutU64(id);
    sections.push_back(
        {ImageSectionKind::kModelCatalog, "model_catalog", w.TakeData()});
  }

  for (uint64_t id : ids) {
    LAWS_FAULT_POINT("persist/write_models");
    LAWS_ASSIGN_OR_RETURN(const CapturedModel* model, models.Get(id));
    ByteWriter w;
    SerializeCapturedModel(*model, &w);
    sections.push_back({ImageSectionKind::kModel,
                        "model/" + std::to_string(id), w.TakeData()});
  }

  Timer checksum_timer;
  std::vector<uint32_t> crcs(sections.size());
  for (size_t i = 0; i < sections.size(); ++i) {
    crcs[i] = Crc32c(sections[i].payload);
  }
  double checksum_micros = checksum_timer.ElapsedMicros();

  // Offsets are fixed-width, so a zero-offset pass measures the header.
  std::vector<uint64_t> offsets(sections.size(), 0);
  const size_t header_bytes =
      BuildHeader(sections, offsets, crcs).size() + 4;  // + header CRC
  uint64_t running = header_bytes;
  for (size_t i = 0; i < sections.size(); ++i) {
    offsets[i] = running;
    running += sections[i].payload.size();
  }

  // The image writer grows by doubling, though its size is known here. An
  // image sized exactly returns with a smaller capacity, which lowers
  // glibc's dynamic mmap and trim thresholds; the heap the save freed is
  // then given back to the OS, and a load that follows faults in every
  // page of its columns again (EXPERIMENTS.md, block-parallel save).
  ByteWriter out;
  const std::vector<uint8_t> header = BuildHeader(sections, offsets, crcs);
  out.PutRaw(header.data(), header.size());
  checksum_timer.Restart();
  out.PutU32(Crc32c(header));
  checksum_micros += checksum_timer.ElapsedMicros();
  for (const StagedSection& s : sections) {
    out.PutRaw(s.payload.data(), s.payload.size());
  }
  checksum_timer.Restart();
  out.PutU32(Crc32c(out.data()));
  checksum_micros += checksum_timer.ElapsedMicros();
  {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static Counter* saves = reg.GetCounter("persist.saves");
    static Counter* save_bytes = reg.GetCounter("persist.save_bytes");
    saves->Add();
    save_bytes->Add(out.data().size());
    reg.GetHistogram("persist.save.checksum_micros")->Record(checksum_micros);
  }
  return out.TakeData();
}

Status LoadDatabaseFromBytes(const std::vector<uint8_t>& bytes, Catalog* data,
                             ModelCatalog* models, const LoadOptions& options,
                             LoadReport* report) {
  if (data == nullptr || models == nullptr) {
    return Status::InvalidArgument("null output catalog");
  }
  LoadReport local_report;
  LoadReport* rep = report != nullptr ? report : &local_report;
  *rep = LoadReport{};

  ScopedSpan load_span("LoadImage");
  {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static Counter* loads = reg.GetCounter("persist.loads");
    static Counter* load_bytes = reg.GetCounter("persist.load_bytes");
    loads->Add();
    load_bytes->Add(bytes.size());
  }

  // Header corruption is not survivable in either mode: without a trusted
  // section table nothing else can be located.
  LAWS_ASSIGN_OR_RETURN(ParsedHeader header, ParseHeader(bytes));
  rep->image_checksum_ok = VerifyImageCrc(bytes);

  auto quarantine = [&](const ImageSection& s, const std::string& reason) {
    rep->quarantined.push_back(QuarantinedSection{s.name, s.offset, reason});
  };

  // Stage everything first; the output catalogs are only touched once the
  // whole image is accepted, so a failed strict load cannot leave them
  // half-populated.
  std::map<std::string, std::pair<uint64_t, TablePtr>> loaded;
  std::vector<std::string> table_order;
  std::vector<CapturedModel> staged_models;
  std::set<uint64_t> staged_model_ids;
  std::vector<uint64_t> manifest_ids;
  bool have_manifest = false;

  for (const ImageSection& s : header.sections) {
    Status crc_status = SectionCrcStatus(bytes, s);
    if (!crc_status.ok()) {
      if (!options.tolerate_corruption) return crc_status;
      quarantine(s, crc_status.message());
      continue;
    }
    ByteReader in(bytes.data() + s.offset, s.length);
    Status parse_status = Status::OK();
    switch (s.kind) {
      case ImageSectionKind::kTable: {
        auto parse = [&]() -> Status {
          LAWS_ASSIGN_OR_RETURN(uint64_t saved_version, in.GetU64());
          LAWS_ASSIGN_OR_RETURN(Table table, DeserializeTableCompressed(&in));
          if (!in.AtEnd()) {
            return Status::ParseError("trailing bytes after table payload");
          }
          if (loaded.find(s.name) == loaded.end()) table_order.push_back(s.name);
          loaded[s.name] = {saved_version,
                            std::make_shared<Table>(std::move(table))};
          return Status::OK();
        };
        parse_status = parse();
        break;
      }
      case ImageSectionKind::kModelCatalog: {
        auto parse = [&]() -> Status {
          LAWS_ASSIGN_OR_RETURN(uint64_t count,
                                in.GetCount(8, "model manifest"));
          manifest_ids.clear();
          manifest_ids.reserve(count);
          for (uint64_t i = 0; i < count; ++i) {
            LAWS_ASSIGN_OR_RETURN(uint64_t id, in.GetU64());
            manifest_ids.push_back(id);
          }
          if (!in.AtEnd()) {
            return Status::ParseError("trailing bytes after model manifest");
          }
          have_manifest = true;
          return Status::OK();
        };
        parse_status = parse();
        break;
      }
      case ImageSectionKind::kModel: {
        auto parse = [&]() -> Status {
          LAWS_ASSIGN_OR_RETURN(CapturedModel m, DeserializeCapturedModel(&in));
          if (!in.AtEnd()) {
            return Status::ParseError("trailing bytes after model payload");
          }
          if (s.name != "model/" + std::to_string(m.id)) {
            return Status::ParseError("model id does not match section name");
          }
          if (!staged_model_ids.insert(m.id).second) {
            return Status::ParseError("duplicate model id " +
                                      std::to_string(m.id));
          }
          staged_models.push_back(std::move(m));
          return Status::OK();
        };
        parse_status = parse();
        break;
      }
    }
    if (!parse_status.ok()) {
      if (!options.tolerate_corruption) return InSection(s, parse_status);
      quarantine(s, parse_status.message());
    }
  }

  // Cross-check the manifest: every listed model must have produced a
  // section (possibly quarantined above).
  if (have_manifest) {
    for (uint64_t id : manifest_ids) {
      if (staged_model_ids.count(id) != 0) continue;
      const std::string name = "model/" + std::to_string(id);
      const bool already_quarantined =
          std::any_of(rep->quarantined.begin(), rep->quarantined.end(),
                      [&](const QuarantinedSection& q) { return q.name == name; });
      if (already_quarantined) continue;
      if (!options.tolerate_corruption) {
        return Status::ParseError("model " + std::to_string(id) +
                                  " listed in catalog manifest but missing "
                                  "from the image");
      }
      rep->quarantined.push_back(QuarantinedSection{
          name, 0, "listed in catalog manifest but missing from the image"});
    }
  } else if (!options.tolerate_corruption && !staged_models.empty()) {
    return Status::ParseError("image has model sections but no catalog "
                              "manifest");
  }

  if (!rep->image_checksum_ok && !options.tolerate_corruption) {
    // Every section passed its own CRC, so the flip sits in the trailer
    // itself (or a CRC collision); either way the image is not trustworthy.
    return Status::IOError("whole-image checksum mismatch");
  }

  // Commit.
  for (const auto& name : table_order) {
    data->RegisterOrReplace(name, loaded[name].second);
  }
  rep->tables_loaded = table_order.size();
  for (CapturedModel& m : staged_models) {
    // Re-stamp freshness against the reloaded table's version counter.
    auto it = loaded.find(m.table_name);
    if (it != loaded.end()) {
      const bool was_fresh = m.fitted_data_version == it->second.first;
      const uint64_t current = it->second.second->data_version();
      m.fitted_data_version = was_fresh ? current : current - 1;
    }
    // The image is the source of truth: replace any in-memory model with
    // the same id, mirroring RegisterOrReplace for tables.
    (void)models->Remove(m.id);
    LAWS_RETURN_IF_ERROR(models->RestoreWithId(std::move(m)));
    ++rep->models_loaded;
  }
  if (!rep->quarantined.empty()) {
    static Counter* quarantined =
        MetricsRegistry::Global().GetCounter("persist.sections_quarantined");
    quarantined->Add(rep->quarantined.size());
  }
  load_span.SetRows(header.sections.size(),
                    rep->tables_loaded + rep->models_loaded);
  return Status::OK();
}

Status SaveDatabase(const Catalog& data, const ModelCatalog& models,
                    const std::string& path) {
  ScopedSpan save_span("SaveImage");
  LAWS_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                        SaveDatabaseToBytes(data, models));
  save_span.SetDetail(path);
  return WriteImageAtomic(bytes, path);
}

Status LoadDatabase(const std::string& path, Catalog* data,
                    ModelCatalog* models, const LoadOptions& options,
                    LoadReport* report) {
  LAWS_FAULT_POINT("persist/read_image");
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) return Status::IOError("read failed for " + path);
  return LoadDatabaseFromBytes(bytes, data, models, options, report);
}

}  // namespace laws
