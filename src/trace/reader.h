// What every log reader shares: the bulk ingest counters, and the
// line-record loop the text, auditd and system-log dialects decode with.
//
// A line dialect supplies only its grammar — a LineDecoder that turns one
// record into RawLog fields and throws RecordError on a bad one. The loop
// owns the rest of the untrusted boundary: reading lines, the 1-based line
// number and the byte offset each line starts at, the trace.ingest.read
// fault point, the leaps_ingest_* counters, and mapping every failure to a
// Status. Errors read "<dialect> parse error at line N: <what>", with
// " (byte B)" after the line number for dialects that report offsets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/registry.h"
#include "util/status.h"

namespace leaps::trace {

/// leaps_ingest_{events,bytes,corrupt}_total, registered once for every
/// reader (text, binary, auditd, system log). Incremented in bulk per log,
/// never per record, so decode loops stay free of shared-cache-line traffic.
struct IngestCounters {
  obs::Counter& events;
  obs::Counter& bytes;
  obs::Counter& corrupt;
};
const IngestCounters& ingest_counters();

/// Rejects the record being decoded; read_line_records adds its position.
class RecordError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One line dialect's grammar, fed one record at a time.
class LineDecoder {
 public:
  virtual ~LineDecoder() = default;

  /// Decodes one record: a whitespace-trimmed line that is neither blank
  /// nor a '#' comment. Throws RecordError if the record is malformed.
  virtual void record(std::string_view line) = 0;

  /// Runs once after the last record; returns the number of events decoded.
  virtual std::size_t finish() = 0;

 protected:
  [[noreturn]] static void fail(const std::string& what) {
    throw RecordError(what);
  }
  static void require(bool cond, const char* what) {
    if (!cond) fail(what);
  }
  /// Rejects the record with `s`'s message (the ModuleMap header rule).
  static void require_ok(const util::Status& s) {
    if (!s.ok()) fail(s.message());
  }
  /// Hex value with optional 0x prefix; "bad hex <noun> '<s>'" otherwise.
  static std::uint64_t hex(std::string_view s, const char* noun);
  /// Decimal that fits 64 bits; "empty decimal" / "bad decimal '<s>'".
  static std::uint64_t dec(std::string_view s);
  /// Decimal that fits 32 bits; "<field> out of range '<s>'" above that.
  static std::uint32_t dec_u32(std::string_view s, const char* field);
};

struct LineDialect {
  const char* name;   // "raw log", "auditd log", ...
  bool byte_offsets;  // report the byte offset of the bad line too
};

/// Feeds `decoder` every record of `is`; see the file comment. Returns
/// kCorruptInput for a rejected record, kResourceExhausted if decoding ran
/// out of memory, or the armed trace.ingest.read fault's status.
util::Status read_line_records(std::istream& is, const LineDialect& dialect,
                               LineDecoder& decoder);

}  // namespace leaps::trace
