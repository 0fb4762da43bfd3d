#include "common/interner.h"

namespace relcont {

SymbolId Interner::Intern(std::string_view name) {
  auto it = ids_.find(std::string(name));
  if (it != ids_.end()) return it->second;
  SymbolId id = static_cast<SymbolId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

SymbolId Interner::Lookup(std::string_view name) const {
  auto it = ids_.find(std::string(name));
  return it == ids_.end() ? kInvalidSymbol : it->second;
}

SymbolId Interner::Fresh(std::string_view prefix) {
  for (;;) {
    std::string candidate(prefix);
    candidate += std::to_string(fresh_counter_++);
    if (ids_.find(candidate) == ids_.end()) return Intern(candidate);
  }
}

void Interner::Truncate(int64_t size) {
  assert(size >= 0);
  while (static_cast<int64_t>(names_.size()) > size) {
    ids_.erase(names_.back());
    names_.pop_back();
  }
}

}  // namespace relcont
