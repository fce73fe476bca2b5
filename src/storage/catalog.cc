#include "storage/catalog.h"

#include "common/string_util.h"

namespace skalla {

void Catalog::Register(std::string name, Table table) {
  auto shared = std::make_shared<const Table>(std::move(table));
  Entry entry;
  entry.table = shared;
  entry.provider = std::make_shared<MemoryDataProvider>(std::move(shared));
  tables_[std::move(name)] = std::move(entry);
}

void Catalog::RegisterProvider(std::string name, DataProviderPtr provider) {
  Entry entry;
  entry.provider = std::move(provider);
  tables_[std::move(name)] = std::move(entry);
}

Result<const Table*> Catalog::Get(std::string_view name) const {
  auto it = tables_.find(std::string(name));
  if (it == tables_.end()) {
    return Status::NotFound(StrCat("no table named '", name, "'"));
  }
  if (it->second.table == nullptr) {
    return Status::FailedPrecondition(
        StrCat("table '", name,
               "' is chunk-backed; read it through GetProvider"));
  }
  return it->second.table.get();
}

Result<const DataProvider*> Catalog::GetProvider(
    std::string_view name) const {
  auto it = tables_.find(std::string(name));
  if (it == tables_.end()) {
    return Status::NotFound(StrCat("no table named '", name, "'"));
  }
  return it->second.provider.get();
}

bool Catalog::Contains(std::string_view name) const {
  return tables_.find(std::string(name)) != tables_.end();
}

bool Catalog::IsChunkBacked(std::string_view name) const {
  auto it = tables_.find(std::string(name));
  return it != tables_.end() && it->second.table == nullptr;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) names.push_back(name);
  return names;
}

}  // namespace skalla
