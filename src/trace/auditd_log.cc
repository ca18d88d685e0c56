#include "trace/auditd_log.h"

#include <cstdio>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "trace/module_map.h"
#include "trace/reader.h"
#include "util/strings.h"

namespace leaps::trace {

namespace {

using util::split;
using util::split_ws;
using util::starts_with;

// Deterministic fake clock for the writer: auditd stamps records with
// wall time, the simulator has none, so records tick one millisecond per
// serial from a fixed epoch. The parser never reads the timestamp.
constexpr std::uint64_t kEpoch = 1700000000;

void append_record_prefix(std::ostream& os, const char* kind,
                          std::uint64_t& serial) {
  const std::uint64_t s = serial++;
  char ts[64];
  std::snprintf(ts, sizeof ts, "%llu.%03llu",
                static_cast<unsigned long long>(kEpoch + s / 1000),
                static_cast<unsigned long long>(s % 1000));
  os << "type=" << kind << " msg=audit(" << ts << ":" << s << "): ";
}

/// The auditd record grammar, one record at a time.
class AuditdDecoder final : public LineDecoder {
 public:
  RawLog take() && { return std::move(log_); }

  void record(std::string_view line) override {
    const auto tokens = split_ws(line);
    require(tokens.size() >= 2, "truncated record");
    require(starts_with(tokens[0], "type="), "record without type=");
    const std::string_view kind = tokens[0].substr(5);
    const std::string_view msg = tokens[1];
    require(starts_with(msg, "msg=audit(") && msg.size() >= 12 &&
                msg.substr(msg.size() - 2) == "):",
            "malformed msg=audit(ts:serial) field");

    // The remaining tokens are k=v fields; values may be double-quoted.
    fields_.clear();
    for (std::size_t i = 2; i < tokens.size(); ++i) {
      const auto eq = tokens[i].find('=');
      require(eq != std::string_view::npos && eq > 0,
              "field without key=value shape");
      std::string_view value = tokens[i].substr(eq + 1);
      if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
        value = value.substr(1, value.size() - 2);
      } else {
        require(value.find('"') == std::string_view::npos,
                "unterminated quoted value");
      }
      fields_.emplace_back(tokens[i].substr(0, eq), value);
    }

    if (kind == "DAEMON_START") {
      log_.process_name = std::string(field("comm"));
    } else if (kind == "MMAP") {
      RawModule m;
      m.base = hex(field("addr"), "value");
      m.size = hex(field("len"), "value");
      m.name = std::string(field("name"));
      require(m.size > 0, "MMAP with zero len");
      require_ok(header_.try_add_module({m.name, m.base, m.size}));
      log_.modules.push_back(std::move(m));
    } else if (kind == "SYM") {
      RawSymbol sym;
      sym.address = hex(field("addr"), "value");
      sym.function = std::string(field("name"));
      require_ok(header_.try_add_symbol(sym.address, sym.function));
      log_.symbols.push_back(std::move(sym));
    } else if (kind == "SYSCALL") {
      RawEvent& e = log_.events.emplace_back();
      e.seq = dec(field("seq"));
      e.tid = dec_u32(field("tid"), "tid");
      // The audit filter key carries the exact event-type name; the
      // syscall number is the fallback for foreign captures without keys.
      const std::string_view key = field("key", /*required=*/false);
      if (!key.empty()) {
        const auto type = event_type_from_name(key);
        require(type.has_value(), "unknown audit key");
        e.type = *type;
      } else {
        const std::uint64_t syscall = dec(field("syscall"));
        const auto type =
            syscall <= std::numeric_limits<int>::max()
                ? auditd_event_type(static_cast<int>(syscall))
                : std::nullopt;
        require(type.has_value(), "unmapped syscall number");
        e.type = *type;
      }
    } else if (kind == "BACKTRACE") {
      require(!log_.events.empty(), "BACKTRACE before any SYSCALL");
      const std::string_view frames = field("frames");
      if (!frames.empty()) {
        for (const std::string_view f : split(frames, ',')) {
          log_.events.back().stack.push_back(hex(f, "value"));
        }
      }
    } else {
      fail("unknown record type '" + std::string(kind) + "'");
    }
  }

  std::size_t finish() override { return log_.events.size(); }

 private:
  std::string_view field(std::string_view key, bool required = true) const {
    for (const auto& [k, v] : fields_) {
      if (k == key) return v;
    }
    if (required) fail("missing field '" + std::string(key) + "'");
    return {};
  }

  RawLog log_;
  ModuleMap header_;  // validates MMAP/SYM records as they arrive
  std::vector<std::pair<std::string_view, std::string_view>> fields_;
};

}  // namespace

int auditd_syscall_for(EventType t) {
  // Nearest x86-64 Linux analogue per event class (DESIGN.md §15 has the
  // full table). Numbers are distinct, so the mapping inverts exactly.
  switch (t) {
    case EventType::kSysCallEnter:
      return 39;  // getpid
    case EventType::kSysCallExit:
      return 102;  // getuid
    case EventType::kProcessCreate:
      return 59;  // execve
    case EventType::kThreadCreate:
      return 56;  // clone
    case EventType::kImageLoad:
      return 9;  // mmap (PROT_EXEC image mapping)
    case EventType::kFileRead:
      return 0;  // read
    case EventType::kFileWrite:
      return 1;  // write
    case EventType::kFileCreate:
      return 2;  // open
    case EventType::kRegistryRead:
      return 217;  // getdents64 (config-store read analogue)
    case EventType::kRegistryWrite:
      return 82;  // rename (config-store update analogue)
    case EventType::kNetworkConnect:
      return 42;  // connect
    case EventType::kNetworkSend:
      return 44;  // sendto
    case EventType::kNetworkRecv:
      return 45;  // recvfrom
    case EventType::kMemAlloc:
      return 12;  // brk
    case EventType::kMemProtect:
      return 10;  // mprotect
    case EventType::kUiMessage:
      return 7;  // poll (event-loop pump analogue)
    case EventType::kCount:
      break;
  }
  return -1;
}

std::optional<EventType> auditd_event_type(int syscall) {
  for (std::size_t i = 0; i < kEventTypeCount; ++i) {
    const auto t = static_cast<EventType>(i);
    if (auditd_syscall_for(t) == syscall) return t;
  }
  return std::nullopt;
}

void write_raw_log_auditd(const RawLog& log, std::ostream& os) {
  std::uint64_t serial = 1;
  append_record_prefix(os, "DAEMON_START", serial);
  os << "op=start comm=\"" << log.process_name << "\" ver=\"leaps\"\n";
  for (const RawModule& m : log.modules) {
    append_record_prefix(os, "MMAP", serial);
    os << "addr=" << util::hex_addr(m.base) << " len=" << util::hex_addr(m.size)
       << " name=\"" << m.name << "\"\n";
  }
  for (const RawSymbol& s : log.symbols) {
    append_record_prefix(os, "SYM", serial);
    os << "addr=" << util::hex_addr(s.address) << " name=\"" << s.function
       << "\"\n";
  }
  for (const RawEvent& e : log.events) {
    append_record_prefix(os, "SYSCALL", serial);
    os << "seq=" << e.seq << " tid=" << e.tid
       << " syscall=" << auditd_syscall_for(e.type) << " key=\""
       << event_type_name(e.type) << "\"\n";
    if (!e.stack.empty()) {
      append_record_prefix(os, "BACKTRACE", serial);
      os << "frames=\"";
      for (std::size_t f = 0; f < e.stack.size(); ++f) {
        if (f > 0) os << ',';
        os << util::hex_addr(e.stack[f]);
      }
      os << "\"\n";
    }
  }
}

std::string raw_log_to_auditd_string(const RawLog& log) {
  std::ostringstream os;
  write_raw_log_auditd(log, os);
  return os.str();
}

util::StatusOr<RawLog> read_raw_log_auditd(std::istream& is) {
  AuditdDecoder decoder;
  const util::Status s = read_line_records(is, {"auditd log", true}, decoder);
  if (!s.ok()) return s;
  return std::move(decoder).take();
}

}  // namespace leaps::trace
