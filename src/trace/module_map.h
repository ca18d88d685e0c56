// Address-space module map and symbol table.
//
// The raw log begins with MODULE records (emitted on image load) and SYMBOL
// records for system modules (standing in for the symbol/PDB information a
// real tracer resolves offline). The application image is registered as a
// module but carries no symbols — LEAPS never needs application symbols; the
// application side of the pipeline works on raw addresses only.
//
// The map also owns the header rule every log dialect is held to: a module
// has a nonzero size, its end base + size does not wrap past 2^64, no two
// modules overlap, and every symbol lies inside a module.
// The readers apply it record by record through the try_ forms, so a
// RawLog that decoded cleanly can always be symbolized.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace leaps::trace {

struct ModuleInfo {
  std::string name;
  std::uint64_t base = 0;
  std::uint64_t size = 0;

  bool contains(std::uint64_t addr) const {
    return addr >= base && addr < base + size;
  }
};

/// Resolution result for one address.
struct Resolution {
  const ModuleInfo* module = nullptr;  // nullptr => unmapped region
  std::string function;                // empty => no symbol
};

class ModuleMap {
 public:
  /// Registers a module, or returns kCorruptInput (plain message, no
  /// position) and leaves the map unchanged if it breaks the header rule.
  util::Status try_add_module(ModuleInfo info);

  /// Registers a symbol (function entry) at `addr`, or returns
  /// kCorruptInput if no registered module contains `addr`.
  util::Status try_add_symbol(std::uint64_t addr, std::string function);

  /// Trusted-path forms (simulator output, validated logs): a broken rule
  /// is a caller bug and throws (LEAPS_CHECK).
  void add_module(ModuleInfo info);
  void add_symbol(std::uint64_t addr, std::string function);

  /// Finds the module containing `addr`, or nullptr.
  const ModuleInfo* find_module(std::uint64_t addr) const;

  /// Resolves an address to (module, nearest-preceding symbol within the
  /// same module). Unmapped addresses resolve to {nullptr, ""}.
  Resolution resolve(std::uint64_t addr) const;

  const std::vector<ModuleInfo>& modules() const { return modules_list_; }
  std::size_t symbol_count() const { return symbols_.size(); }
  /// All registered symbols, ascending by address.
  const std::map<std::uint64_t, std::string>& symbols() const {
    return symbols_;
  }

 private:
  // base -> index into modules_list_; ordered for range lookup.
  std::map<std::uint64_t, std::size_t> by_base_;
  std::vector<ModuleInfo> modules_list_;
  std::map<std::uint64_t, std::string> symbols_;
};

}  // namespace leaps::trace
