// Catalog: name -> relation mapping. Each Skalla site owns a catalog of
// its local partitions; a centralized catalog backs the reference
// evaluator used as the test oracle.
//
// A relation is either memory-backed (Register(Table) — the resident
// table stays directly reachable through Get) or chunk-backed
// (RegisterProvider with a paged DataProvider — Get fails and consumers
// go through GetProvider, which works for both kinds). Evaluation code
// reads through GetProvider: the columnar kernel streams either kind's
// chunks.

#ifndef SKALLA_STORAGE_CATALOG_H_
#define SKALLA_STORAGE_CATALOG_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/data_provider.h"
#include "storage/table.h"

namespace skalla {

/// Maps table names to immutable relations (resident or chunk-paged).
class Catalog {
 public:
  Catalog() = default;

  /// Registers `table` under `name`, replacing any previous registration.
  void Register(std::string name, Table table);

  /// Registers a paged relation under `name`, replacing any previous
  /// registration. Get() fails for it; read through GetProvider().
  void RegisterProvider(std::string name, DataProviderPtr provider);

  /// Looks up a resident table. The pointer stays valid while the
  /// catalog lives and the name is not re-registered. Fails with
  /// FailedPrecondition for chunk-backed relations.
  Result<const Table*> Get(std::string_view name) const;

  /// Looks up any relation through its provider (resident tables are
  /// wrapped at Register time, so this always works for known names).
  Result<const DataProvider*> GetProvider(std::string_view name) const;

  bool Contains(std::string_view name) const;

  /// Whether `name` is registered without a resident table.
  bool IsChunkBacked(std::string_view name) const;

  std::vector<std::string> TableNames() const;

 private:
  struct Entry {
    std::shared_ptr<const Table> table;  // null for chunk-backed entries
    DataProviderPtr provider;
  };
  std::unordered_map<std::string, Entry> tables_;
};

}  // namespace skalla

#endif  // SKALLA_STORAGE_CATALOG_H_
