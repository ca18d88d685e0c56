// Linux auditd / DARPA Transparent Computing–style provenance dialect.
//
// Real deployments rarely speak the simulator's ETW-flavored grammar;
// Linux fleets emit auditd record streams (arxiv 1610.06936 traces ship
// in exactly this shape). This dialect renders a raw trace as auditd
// records — `type=KIND msg=audit(ts:serial): k=v ...` lines — and parses
// them back behind the same hardened StatusOr boundary as the text and
// binary formats, so every tool ingests auditd captures unchanged via
// read_raw_log_any()/tools/ingest.h:
//
//   type=DAEMON_START msg=audit(1700000000.000:1): op=start comm="putty.exe"
//   type=MMAP msg=audit(1700000000.000:2): addr=0x140000000 len=0x24000
//     name="putty.exe"
//   type=SYM msg=audit(1700000000.000:3): addr=0x7ff810001200 name="ReadFile"
//   type=SYSCALL msg=audit(1700000000.107:9): seq=107 tid=3 syscall=0
//     key="FileRead"
//   type=BACKTRACE msg=audit(1700000000.107:10): frames="0xfffff8...,0x7ff..."
//
// Event classes travel twice: as a syscall number (the canonical auditd
// field, mapped through the table below) and as an audit filter key
// carrying the LEAPS event-type name. The key wins when present — the
// syscall table is many-to-one (read(2) is kFileRead whether the key
// survived or not), the key makes the round trip exact.
//
// The reader is an untrusted boundary: malformed records, a tid above
// 2^32 - 1, and MMAP/SYM records that break the ModuleMap header rule yield
// kCorruptInput (the message carries the 1-based line number and the byte
// offset of the offending record), implausible allocations yield
// kResourceExhausted; it never throws, crashes, or silently partial-parses.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "trace/raw_log.h"
#include "util/status.h"

namespace leaps::trace {

/// Representative Linux syscall number for an event class (the writer's
/// side of the mapping table; see DESIGN.md §15 for the full table).
int auditd_syscall_for(EventType t);

/// Event class for a syscall number; nullopt for unmapped numbers.
std::optional<EventType> auditd_event_type(int syscall);

/// Serializes the log as an auditd record stream.
void write_raw_log_auditd(const RawLog& log, std::ostream& os);

std::string raw_log_to_auditd_string(const RawLog& log);

/// Parses an auditd record stream; kCorruptInput (with line number and
/// byte offset) on malformed input.
util::StatusOr<RawLog> read_raw_log_auditd(std::istream& is);

}  // namespace leaps::trace
