// Raw Log Parser (Section II-B): turns a raw trace into a stack-event
// correlated log, resolving each frame address against the module map and
// symbol table carried in the log header — the same correlate-and-slice role
// Introperf's front end plays for ETW traces in the paper.
//
// This is the one place frames are symbolized. The dialect readers
// (read_raw_log_text in raw_log.h, binary_log.h, auditd_log.h) only decode
// bytes into a RawLog, and apply the ModuleMap header rule as they go, so
// any RawLog a reader accepted symbolizes without error.
#pragma once

#include "trace/event.h"
#include "trace/module_map.h"
#include "trace/raw_log.h"

namespace leaps::trace {

/// Result of parsing: the correlated log plus the module map built from the
/// log's MODULE/SYMBOL records (needed downstream by the stack partitioner).
struct ParsedTrace {
  CorrelatedLog log;
  ModuleMap modules;
};

class RawLogParser {
 public:
  /// Symbolizes a RawLog: from the simulator, or from any reader. A trusted
  /// path — a header that breaks the ModuleMap rule is a caller bug and
  /// throws (LEAPS_CHECK); the readers never return one.
  ParsedTrace parse_raw(const RawLog& raw) const;
};

}  // namespace leaps::trace
