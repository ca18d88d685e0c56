#include "trace/raw_log.h"

#include <ostream>
#include <sstream>

#include "trace/module_map.h"
#include "trace/reader.h"
#include "util/strings.h"

namespace leaps::trace {

namespace {

/// The textual grammar in the header comment, one record at a time.
class TextDecoder final : public LineDecoder {
 public:
  RawLog take() && { return std::move(log_); }

  void record(std::string_view line) override {
    const auto fields = util::split_ws(line);
    const std::string_view kind = fields.front();
    if (kind == "PROCESS") {
      require(fields.size() == 2, "PROCESS expects 1 field");
      log_.process_name = std::string(fields[1]);
    } else if (kind == "MODULE") {
      require(fields.size() == 4, "MODULE expects 3 fields");
      RawModule m{hex(fields[1], "address"), hex(fields[2], "address"),
                  std::string(fields[3])};
      require_ok(header_.try_add_module({m.name, m.base, m.size}));
      log_.modules.push_back(std::move(m));
    } else if (kind == "SYMBOL") {
      require(fields.size() == 3, "SYMBOL expects 2 fields");
      RawSymbol sym{hex(fields[1], "address"), std::string(fields[2])};
      require_ok(header_.try_add_symbol(sym.address, sym.function));
      log_.symbols.push_back(std::move(sym));
    } else if (kind == "EVENT") {
      require(fields.size() == 4, "EVENT expects 3 fields");
      close_event();
      RawEvent& e = log_.events.emplace_back();
      e.seq = dec(fields[1]);
      e.tid = dec_u32(fields[2], "tid");
      const auto type = event_type_from_name(fields[3]);
      require(type.has_value(), "unknown event type");
      e.type = *type;
    } else if (kind == "STACK") {
      require(fields.size() == 2, "STACK expects 1 field");
      require(!log_.events.empty(), "STACK before any EVENT");
      frames_.push_back(hex(fields[1], "address"));
    } else {
      fail("unknown record kind '" + std::string(kind) + "'");
    }
  }

  std::size_t finish() override {
    close_event();
    return log_.events.size();
  }

 private:
  /// Hands the open event its frames in one exactly sized allocation.
  void close_event() {
    if (frames_.empty()) return;
    log_.events.back().stack.assign(frames_.begin(), frames_.end());
    frames_.clear();
  }

  RawLog log_;
  ModuleMap header_;  // validates MODULE/SYMBOL records as they arrive
  std::vector<std::uint64_t> frames_;  // STACK records of the open event
};

}  // namespace

void write_raw_log(const RawLog& log, std::ostream& os) {
  os << "# LEAPS raw event trace v1\n";
  os << "PROCESS " << log.process_name << '\n';
  for (const RawModule& m : log.modules) {
    os << "MODULE " << util::hex_addr(m.base) << ' ' << util::hex_addr(m.size)
       << ' ' << m.name << '\n';
  }
  for (const RawSymbol& s : log.symbols) {
    os << "SYMBOL " << util::hex_addr(s.address) << ' ' << s.function << '\n';
  }
  for (const RawEvent& e : log.events) {
    os << "EVENT " << e.seq << ' ' << e.tid << ' ' << event_type_name(e.type)
       << '\n';
    for (std::uint64_t addr : e.stack) {
      os << "STACK " << util::hex_addr(addr) << '\n';
    }
  }
}

std::string raw_log_to_string(const RawLog& log) {
  std::ostringstream os;
  write_raw_log(log, os);
  return os.str();
}

util::StatusOr<RawLog> read_raw_log_text(std::istream& is) {
  TextDecoder decoder;
  const util::Status s = read_line_records(is, {"raw log", false}, decoder);
  if (!s.ok()) return s;
  return std::move(decoder).take();
}

}  // namespace leaps::trace
