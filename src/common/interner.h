#ifndef RELCONT_COMMON_INTERNER_H_
#define RELCONT_COMMON_INTERNER_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace relcont {

/// A dense integer handle for an interned string (predicate name, variable
/// name, symbolic constant, or Skolem function name).
using SymbolId = int32_t;

/// Sentinel for "no symbol".
inline constexpr SymbolId kInvalidSymbol = -1;

/// Bidirectional string <-> SymbolId table.
///
/// The library uses one interner per "universe" of discourse (typically one
/// per test or application session); all datalog structures built against it
/// carry SymbolIds and are cheap to hash and compare.
///
/// Thread-safety: NONE, by design — Intern() and Fresh() mutate the table,
/// and even logically read-only decision procedures allocate fresh symbols
/// through it. Concurrent work must use one Interner per thread and keep
/// every structure carrying SymbolIds confined to the thread that owns the
/// interner those ids came from (the service layer's worker arenas do
/// exactly this; cross-thread values travel as rendered text or canonical
/// fingerprints instead).
class Interner {
 public:
  Interner() = default;
  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  /// Returns the id for `name`, creating it if needed.
  SymbolId Intern(std::string_view name);

  /// Returns the id for `name`, or kInvalidSymbol if it was never interned.
  SymbolId Lookup(std::string_view name) const;

  /// Returns the string for `id`. `id` must have been produced by Intern()
  /// and not forgotten by a later Truncate() (checked in debug builds: a
  /// stale id would otherwise read whatever name now holds its slot).
  const std::string& NameOf(SymbolId id) const {
    assert(id >= 0 && id < size());
    return names_[id];
  }

  /// Number of distinct symbols interned so far.
  int64_t size() const { return static_cast<int64_t>(names_.size()); }

  /// Creates a fresh symbol guaranteed distinct from all interned names, of
  /// the form "<prefix><n>". Useful for fresh variables and Skolem functions.
  SymbolId Fresh(std::string_view prefix);

  /// Forgets every symbol with id >= `size`, so the next Intern() of a new
  /// name reuses id `size`. The Fresh() counter is not rewound: a name
  /// minted after the truncation never repeats one minted before it.
  void Truncate(int64_t size);

 private:
  std::unordered_map<std::string, SymbolId> ids_;
  std::vector<std::string> names_;
  int64_t fresh_counter_ = 0;
};

/// Scopes the symbols interned during one unit of work: records the
/// interner's size on construction and truncates back to it on
/// destruction. Every SymbolId minted inside the scope is dead afterwards,
/// so whatever must outlive the scope leaves it as rendered text.
class InternerScope {
 public:
  explicit InternerScope(Interner* interner)
      : interner_(interner), mark_(interner->size()) {}
  ~InternerScope() { interner_->Truncate(mark_); }
  InternerScope(const InternerScope&) = delete;
  InternerScope& operator=(const InternerScope&) = delete;

 private:
  Interner* interner_;
  int64_t mark_;
};

}  // namespace relcont

#endif  // RELCONT_COMMON_INTERNER_H_
