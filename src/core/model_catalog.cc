#include "core/model_catalog.h"

#include <cstdio>

namespace laws {

size_t CapturedModel::StorageBytes() const {
  size_t bytes = model_source.size() + table_name.size() +
                 output_column.size() + group_column.size() +
                 subset_predicate.size();
  for (const auto& c : input_columns) bytes += c.size();
  bytes += parameters.size() * sizeof(double);
  bytes += standard_errors.size() * sizeof(double);
  if (grouped) bytes += parameter_table.MemoryBytes();
  return bytes;
}

double CapturedModel::ArbitrationQuality() const {
  return grouped ? median_r_squared : quality.adjusted_r_squared;
}

std::string CapturedModel::Summary() const {
  char buf[512];
  if (grouped) {
    std::snprintf(buf, sizeof(buf),
                  "model #%llu %s on %s.%s grouped by %s: %zu groups, "
                  "median R2=%.4f, median RSE=%.6g, %s",
                  static_cast<unsigned long long>(id), model_source.c_str(),
                  table_name.c_str(), output_column.c_str(),
                  group_column.c_str(), num_groups, median_r_squared,
                  median_residual_se,
                  subset_predicate.empty()
                      ? "full table"
                      : ("subset: " + subset_predicate).c_str());
  } else {
    std::snprintf(buf, sizeof(buf),
                  "model #%llu %s on %s.%s: R2=%.4f RSE=%.6g (%s)",
                  static_cast<unsigned long long>(id), model_source.c_str(),
                  table_name.c_str(), output_column.c_str(),
                  quality.r_squared, quality.residual_standard_error,
                  subset_predicate.empty()
                      ? "full table"
                      : ("subset: " + subset_predicate).c_str());
  }
  return buf;
}

Result<GroupParameters> ParametersOf(const CapturedModel& model,
                                     const Model& law) {
  return model.grouped
             ? GroupParameters::Of(law, model.parameter_table)
             : GroupParameters::Ungrouped(law, model.parameters,
                                          model.quality);
}

ModelCatalog ModelCatalog::Clone() const {
  ModelCatalog copy;
  copy.models_ = models_;
  copy.next_id_ = next_id_;
  return copy;
}

uint64_t ModelCatalog::Store(CapturedModel model) {
  model.id = next_id_++;
  const uint64_t id = model.id;
  models_.emplace(id, std::move(model));
  return id;
}

Status ModelCatalog::RestoreWithId(CapturedModel model) {
  if (model.id == 0) {
    return Status::InvalidArgument("restored model must carry an id");
  }
  if (models_.count(model.id) > 0) {
    return Status::AlreadyExists("model id " + std::to_string(model.id) +
                                 " already present");
  }
  next_id_ = std::max(next_id_, model.id + 1);
  models_.emplace(model.id, std::move(model));
  return Status::OK();
}

Result<const CapturedModel*> ModelCatalog::Get(uint64_t id) const {
  auto it = models_.find(id);
  if (it == models_.end()) {
    return Status::NotFound("no model with id " + std::to_string(id));
  }
  return &it->second;
}

Status ModelCatalog::Remove(uint64_t id) {
  if (models_.erase(id) == 0) {
    return Status::NotFound("no model with id " + std::to_string(id));
  }
  return Status::OK();
}

size_t ModelCatalog::RemoveForTable(const std::string& table_name) {
  size_t removed = 0;
  for (auto it = models_.begin(); it != models_.end();) {
    if (it->second.table_name == table_name) {
      it = models_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::vector<const CapturedModel*> ModelCatalog::ModelsForTable(
    const std::string& table_name) const {
  std::vector<const CapturedModel*> out;
  for (const auto& [id, m] : models_) {
    if (m.table_name == table_name) out.push_back(&m);
  }
  return out;
}

bool ModelCatalog::IsStale(const CapturedModel& model,
                           uint64_t current_data_version) {
  return model.fitted_data_version != current_data_version;
}

std::vector<uint64_t> ModelCatalog::ListIds() const {
  std::vector<uint64_t> ids;
  ids.reserve(models_.size());
  for (const auto& [id, m] : models_) ids.push_back(id);
  return ids;
}

}  // namespace laws
