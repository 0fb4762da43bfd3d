#ifndef RELCONT_SERVICE_CATALOG_H_
#define RELCONT_SERVICE_CATALOG_H_

#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "binding/adornment.h"
#include "common/status.h"
#include "relcont/relative_containment.h"
#include "rewriting/inverse_rules.h"
#include "rewriting/views.h"

namespace relcont {

/// An immutable, named snapshot of a data integration system's source
/// descriptions: the view definitions plus the binding patterns.
///
/// Snapshots are stored as *text*, not parsed structures: parsed ViewSets
/// carry SymbolIds bound to one Interner, and the service gives every
/// worker thread its own interner arena (Interner is not thread-safe; see
/// common/interner.h). Workers materialize the text into their arena on
/// first use and cache the result by (name, version).
struct CatalogSpec {
  std::string name;
  /// Monotonically increasing per name; re-registering bumps it, which
  /// invalidates worker materializations and rotates cache keys, so stale
  /// cached decisions are never served for an updated catalog.
  int64_t version = 0;
  /// View definitions, one rule per view (ParseViews syntax).
  std::string views_text;
  /// Number of views in views_text (counted during validation, so CATALOG?
  /// introspection never needs to re-parse the text).
  int num_views = 0;
  /// (source predicate name, adornment text) pairs, e.g. ("redcars", "bf").
  std::vector<std::pair<std::string, std::string>> patterns;
};

/// A CatalogSpec parsed against one worker's interner.
struct MaterializedCatalog {
  int64_t version = 0;
  ViewSet views;
  BindingPatterns patterns;
  /// The views' inverse rules, built once here: every request against
  /// this (arena, version) resolves its plans against them. Empty when
  /// the catalog has binding patterns: every request against such a
  /// catalog takes a Section 4 route, which builds its own guarded plan.
  InverseRuleIndex inverse;
};

/// Parses `spec` against `interner`: views must parse and validate, every
/// pattern must name a declared source with a matching arity. Also builds
/// the inverse-rule index of a catalog without binding patterns.
Result<MaterializedCatalog> MaterializeCatalog(const CatalogSpec& spec,
                                               Interner* interner);

/// A cache key for an answer computed against catalog `name` at `version`:
/// the name, `v<version>`, then `fields`, joined by kCacheKeySeparator.
/// ShardedLru::InvalidateCatalog reads the name back from the leading
/// field.
std::string CatalogCacheKey(const std::string& name, int64_t version,
                            std::initializer_list<std::string_view> fields);

/// A thread-safe registry of named catalog snapshots. Registration
/// validates the spec (by materializing it against a scratch interner)
/// before publishing; lookups hand out shared immutable snapshots, so a
/// concurrent re-registration never mutates a spec a reader holds.
class CatalogRegistry {
 public:
  /// Invoked after every successful Register with the published name and
  /// version (the caches invalidate that catalog's entries this way).
  /// Must be safe to call from many registering threads concurrently.
  using RegistrationListener =
      std::function<void(const std::string& name, int64_t version)>;

  /// Validates and publishes `views_text` + `patterns` under `name`,
  /// replacing any previous snapshot. Returns the published version
  /// (1 for a new name, previous + 1 on replacement).
  Result<int64_t> Register(
      const std::string& name, std::string views_text,
      std::vector<std::pair<std::string, std::string>> patterns = {});

  /// Installs the registration listener (empty function removes it). Not
  /// synchronized against in-flight Register calls — install before the
  /// registry is shared, as the owning service's constructor does.
  void set_registration_listener(RegistrationListener listener) {
    listener_ = std::move(listener);
  }

  /// The current snapshot for `name`, or nullptr if never registered.
  std::shared_ptr<const CatalogSpec> Find(const std::string& name) const;

  /// All registered names, sorted.
  std::vector<std::string> Names() const;

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const CatalogSpec>> catalogs_;
  /// Immutable once the registry is shared (see set_registration_listener),
  /// so Register may invoke it outside mu_.
  RegistrationListener listener_;
};

/// Per-thread working memory of the request path: the interner arena plus
/// the catalogs materialized against it. Requests keep the catalogs and the
/// parsed query names in the arena and roll back every symbol an uncached
/// request mints (InternerScope). NOT thread-safe — each context must be
/// used by one thread at a time (constructing one is cheap).
class WorkerContext {
 public:
  WorkerContext();

  Interner* interner() { return interner_.get(); }

  /// The materialization of `name`'s current snapshot in `registry`,
  /// built into this arena on first use and kept until the version moves.
  /// First discards the whole arena (catalogs and parsed names included)
  /// when its interner holds more than `max_symbols` symbols.
  Result<const MaterializedCatalog*> Catalog(const CatalogRegistry& registry,
                                             const std::string& name,
                                             int64_t max_symbols);

  /// Parses `text` (ParseProgram syntax) into the arena; the goal is the
  /// head predicate of its first rule.
  Result<GoalQuery> ParseQuery(const std::string& text);

 private:
  std::unique_ptr<Interner> interner_;
  std::map<std::string, MaterializedCatalog> catalogs_;
};

}  // namespace relcont

#endif  // RELCONT_SERVICE_CATALOG_H_
