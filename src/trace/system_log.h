// System-wide event captures and application slicing.
//
// A real tracing engine records *every* process on the machine into one
// log; LEAPS's front end then performs application slicing — "extract
// function and library information sliced for each process" (Section II-B).
// SystemRawLog models that capture: interleaved events tagged with process
// ids, per-process image records (each process maps its own image at the
// same base — separate address spaces), and the shared system modules.
// slice_process() recovers the familiar single-process RawLog.
//
// Text format (shares STACK/SYMBOL grammar with the single-process format):
//   # LEAPS system event trace v1
//   SYSMODULE <base> <size> <name>
//   SYMBOL <addr> <name>
//   PROCESSENTRY <pid> <name>
//   PROCMODULE <pid> <base> <size> <name>
//   SYSEVENT <pid> <seq> <tid> <Type>
//   STACK <addr>
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "trace/raw_log.h"
#include "util/status.h"

namespace leaps::trace {

struct SystemRawLog {
  struct Entry {
    std::uint32_t pid = 0;
    RawEvent event;

    bool operator==(const Entry&) const = default;
  };

  /// pid → process (image) name.
  std::map<std::uint32_t, std::string> process_names;
  /// pid → that process's private image records.
  std::map<std::uint32_t, std::vector<RawModule>> process_modules;
  /// Shared libraries + kernel modules (one copy machine-wide).
  std::vector<RawModule> shared_modules;
  std::vector<RawSymbol> symbols;
  /// Capture order across all processes; seq numbers are global.
  std::vector<Entry> entries;

  bool operator==(const SystemRawLog&) const = default;
};

/// Process ids present in the capture, ascending.
std::vector<std::uint32_t> capture_pids(const SystemRawLog& capture);

/// Application slicing: the single-process raw log of `pid` (its image
/// records + the shared modules + its events, capture order preserved).
/// Throws std::invalid_argument for unknown pids.
RawLog slice_process(const SystemRawLog& capture, std::uint32_t pid);

void write_system_log(const SystemRawLog& capture, std::ostream& os);
std::string system_log_to_string(const SystemRawLog& capture);

/// Decodes the textual format — an untrusted boundary, read with the same
/// line-record loop as the single-process text and auditd dialects.
/// Malformed input, or a pid or tid above 2^32 - 1, yields kCorruptInput
/// carrying the 1-based line number; it never throws.
///
/// The ModuleMap header rule holds per slice, so every slice_process()
/// result of an accepted capture symbolizes: each pid's PROCMODULEs plus
/// the SYSMODULEs have nonzero sizes, do not wrap and do not overlap,
/// whichever of the two records comes first (the later one is rejected,
/// its message naming the pid). Every slice carries every symbol, so a
/// SYMBOL must lie inside a SYSMODULE declared before it.
util::StatusOr<SystemRawLog> parse_system_log(std::istream& is);
util::StatusOr<SystemRawLog> parse_system_log_string(std::string_view text);

}  // namespace leaps::trace
