#include "trace/module_map.h"

#include "util/check.h"

namespace leaps::trace {

util::Status ModuleMap::try_add_module(ModuleInfo info) {
  if (info.size == 0) return util::corrupt_input("MODULE with zero size");
  // base + size must itself be representable: contains() compares
  // against it.
  if (info.size > ~std::uint64_t{0} - info.base) {
    return util::corrupt_input("MODULE range wraps past 2^64");
  }
  // Reject overlap with the neighbor below and above.
  auto it = by_base_.upper_bound(info.base);
  if (it != by_base_.begin()) {
    const ModuleInfo& below = modules_list_[std::prev(it)->second];
    if (below.base + below.size > info.base) {
      return util::corrupt_input("MODULE overlaps " + below.name + ": " +
                                 info.name);
    }
  }
  if (it != by_base_.end()) {
    const ModuleInfo& above = modules_list_[it->second];
    if (info.base + info.size > above.base) {
      return util::corrupt_input("MODULE overlaps " + above.name + ": " +
                                 info.name);
    }
  }
  by_base_.emplace(info.base, modules_list_.size());
  modules_list_.push_back(std::move(info));
  return util::ok_status();
}

util::Status ModuleMap::try_add_symbol(std::uint64_t addr,
                                       std::string function) {
  if (find_module(addr) == nullptr) {
    return util::corrupt_input("SYMBOL outside any MODULE");
  }
  symbols_[addr] = std::move(function);
  return util::ok_status();
}

void ModuleMap::add_module(ModuleInfo info) {
  const util::Status s = try_add_module(std::move(info));
  LEAPS_CHECK_MSG(s.ok(), s.message());
}

void ModuleMap::add_symbol(std::uint64_t addr, std::string function) {
  const util::Status s = try_add_symbol(addr, std::move(function));
  LEAPS_CHECK_MSG(s.ok(), s.message());
}

const ModuleInfo* ModuleMap::find_module(std::uint64_t addr) const {
  auto it = by_base_.upper_bound(addr);
  if (it == by_base_.begin()) return nullptr;
  const ModuleInfo& m = modules_list_[std::prev(it)->second];
  return m.contains(addr) ? &m : nullptr;
}

Resolution ModuleMap::resolve(std::uint64_t addr) const {
  Resolution r;
  r.module = find_module(addr);
  if (r.module == nullptr) return r;
  auto it = symbols_.upper_bound(addr);
  if (it == symbols_.begin()) return r;
  --it;
  // The nearest preceding symbol must live in the same module to count.
  if (r.module->contains(it->first)) r.function = it->second;
  return r;
}

}  // namespace leaps::trace
