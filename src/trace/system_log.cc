#include "trace/system_log.h"

#include <ostream>
#include <sstream>
#include <stdexcept>

#include "trace/module_map.h"
#include "trace/reader.h"
#include "util/strings.h"

namespace leaps::trace {

std::vector<std::uint32_t> capture_pids(const SystemRawLog& capture) {
  std::vector<std::uint32_t> out;
  out.reserve(capture.process_names.size());
  for (const auto& [pid, name] : capture.process_names) out.push_back(pid);
  return out;
}

RawLog slice_process(const SystemRawLog& capture, std::uint32_t pid) {
  const auto name_it = capture.process_names.find(pid);
  if (name_it == capture.process_names.end()) {
    throw std::invalid_argument("slice_process: unknown pid " +
                                std::to_string(pid));
  }
  RawLog out;
  out.process_name = name_it->second;
  const auto modules_it = capture.process_modules.find(pid);
  if (modules_it != capture.process_modules.end()) {
    out.modules = modules_it->second;
  }
  out.modules.insert(out.modules.end(), capture.shared_modules.begin(),
                     capture.shared_modules.end());
  out.symbols = capture.symbols;
  for (const SystemRawLog::Entry& e : capture.entries) {
    if (e.pid == pid) out.events.push_back(e.event);
  }
  return out;
}

void write_system_log(const SystemRawLog& capture, std::ostream& os) {
  os << "# LEAPS system event trace v1\n";
  for (const RawModule& m : capture.shared_modules) {
    os << "SYSMODULE " << util::hex_addr(m.base) << ' '
       << util::hex_addr(m.size) << ' ' << m.name << '\n';
  }
  for (const RawSymbol& s : capture.symbols) {
    os << "SYMBOL " << util::hex_addr(s.address) << ' ' << s.function
       << '\n';
  }
  for (const auto& [pid, name] : capture.process_names) {
    os << "PROCESSENTRY " << pid << ' ' << name << '\n';
    const auto it = capture.process_modules.find(pid);
    if (it == capture.process_modules.end()) continue;
    for (const RawModule& m : it->second) {
      os << "PROCMODULE " << pid << ' ' << util::hex_addr(m.base) << ' '
         << util::hex_addr(m.size) << ' ' << m.name << '\n';
    }
  }
  for (const SystemRawLog::Entry& e : capture.entries) {
    os << "SYSEVENT " << e.pid << ' ' << e.event.seq << ' ' << e.event.tid
       << ' ' << event_type_name(e.event.type) << '\n';
    for (const std::uint64_t addr : e.event.stack) {
      os << "STACK " << util::hex_addr(addr) << '\n';
    }
  }
}

std::string system_log_to_string(const SystemRawLog& capture) {
  std::ostringstream os;
  write_system_log(capture, os);
  return os.str();
}

namespace {

/// The system-capture grammar in the header comment, one record at a time,
/// held to the ModuleMap header rule per slice: every pid's modules plus
/// the shared ones, checked as each module record arrives (SYSMODULE and
/// PROCMODULE may come in either order).
class SystemDecoder final : public LineDecoder {
 public:
  SystemRawLog take() && { return std::move(out_); }

  void record(std::string_view line) override {
    const auto fields = util::split_ws(line);
    const std::string_view kind = fields.front();
    if (kind == "SYSMODULE") {
      require(fields.size() == 4, "SYSMODULE expects 3 fields");
      out_.shared_modules.push_back({hex(fields[1], "address"),
                                     hex(fields[2], "address"),
                                     std::string(fields[3])});
      const RawModule& m = out_.shared_modules.back();
      require_ok(shared_.try_add_module({m.name, m.base, m.size}));
      for (auto& [pid, slice] : slices_) add_to_slice(pid, slice, m);
    } else if (kind == "SYMBOL") {
      require(fields.size() == 3, "SYMBOL expects 2 fields");
      out_.symbols.push_back(
          {hex(fields[1], "address"), std::string(fields[2])});
      // Every slice carries every symbol, so it must lie in a shared
      // module (application images carry no symbols).
      require(shared_.find_module(out_.symbols.back().address) != nullptr,
              "SYMBOL outside any SYSMODULE");
    } else if (kind == "PROCESSENTRY") {
      require(fields.size() == 3, "PROCESSENTRY expects 2 fields");
      const std::uint32_t pid = dec_u32(fields[1], "pid");
      out_.process_names[pid] = std::string(fields[2]);
      slices_.try_emplace(pid, shared_);
    } else if (kind == "PROCMODULE") {
      require(fields.size() == 5, "PROCMODULE expects 4 fields");
      const std::uint32_t pid = dec_u32(fields[1], "pid");
      const auto slice = slices_.find(pid);
      require(slice != slices_.end(), "PROCMODULE before PROCESSENTRY");
      std::vector<RawModule>& own = out_.process_modules[pid];
      own.push_back({hex(fields[2], "address"), hex(fields[3], "address"),
                     std::string(fields[4])});
      add_to_slice(pid, slice->second, own.back());
    } else if (kind == "SYSEVENT") {
      require(fields.size() == 5, "SYSEVENT expects 4 fields");
      SystemRawLog::Entry& entry = out_.entries.emplace_back();
      entry.pid = dec_u32(fields[1], "pid");
      require(out_.process_names.count(entry.pid) > 0,
              "SYSEVENT for unknown pid");
      entry.event.seq = dec(fields[2]);
      entry.event.tid = dec_u32(fields[3], "tid");
      const auto type = event_type_from_name(fields[4]);
      require(type.has_value(), "unknown event type");
      entry.event.type = *type;
    } else if (kind == "STACK") {
      require(fields.size() == 2, "STACK expects 1 field");
      require(!out_.entries.empty(), "STACK before any SYSEVENT");
      out_.entries.back().event.stack.push_back(hex(fields[1], "address"));
    } else {
      fail("unknown record kind '" + std::string(kind) + "'");
    }
  }

  std::size_t finish() override { return out_.entries.size(); }

 private:
  static void add_to_slice(std::uint32_t pid, ModuleMap& slice,
                           const RawModule& m) {
    const util::Status s = slice.try_add_module({m.name, m.base, m.size});
    if (!s.ok()) fail(s.message() + " (pid " + std::to_string(pid) + ")");
  }

  SystemRawLog out_;
  ModuleMap shared_;                            // the SYSMODULEs so far
  std::map<std::uint32_t, ModuleMap> slices_;  // pid → its slice's modules
};

}  // namespace

util::StatusOr<SystemRawLog> parse_system_log(std::istream& is) {
  SystemDecoder decoder;
  const util::Status s = read_line_records(is, {"raw log", false}, decoder);
  if (!s.ok()) return s;
  return std::move(decoder).take();
}

util::StatusOr<SystemRawLog> parse_system_log_string(std::string_view text) {
  std::istringstream is{std::string(text)};
  return parse_system_log(is);
}

}  // namespace leaps::trace
