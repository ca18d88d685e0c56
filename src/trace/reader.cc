#include "trace/reader.h"

#include <istream>
#include <limits>
#include <new>

#include "util/fault.h"
#include "util/strings.h"

namespace leaps::trace {

const IngestCounters& ingest_counters() {
  static const IngestCounters counters{
      obs::MetricRegistry::global().counter(
          "leaps_ingest_events_total", "raw events decoded from ingested logs"),
      obs::MetricRegistry::global().counter(
          "leaps_ingest_bytes_total", "bytes consumed decoding ingested logs"),
      obs::MetricRegistry::global().counter(
          "leaps_ingest_corrupt_total", "ingest attempts rejected as corrupt"),
  };
  return counters;
}

std::uint64_t LineDecoder::hex(std::string_view s, const char* noun) {
  std::uint64_t v = 0;
  if (!util::parse_hex_u64(s, v)) {
    fail("bad hex " + std::string(noun) + " '" + std::string(s) + "'");
  }
  return v;
}

std::uint64_t LineDecoder::dec(std::string_view s) {
  std::uint64_t v = 0;
  if (s.empty()) fail("empty decimal");
  if (!util::parse_dec_u64(s, v)) fail("bad decimal '" + std::string(s) + "'");
  return v;
}

std::uint32_t LineDecoder::dec_u32(std::string_view s, const char* field) {
  const std::uint64_t v = dec(s);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    fail(std::string(field) + " out of range '" + std::string(s) + "'");
  }
  return static_cast<std::uint32_t>(v);
}

util::Status read_line_records(std::istream& is, const LineDialect& dialect,
                               LineDecoder& decoder) {
  LEAPS_FAULT_POINT_STATUS("trace.ingest.read");
  const IngestCounters& counters = ingest_counters();
  std::size_t lineno = 0;
  std::size_t byte = 0;  // offset of the current line's first byte
  try {
    std::string line;
    while (std::getline(is, line)) {
      ++lineno;
      const std::string_view record = util::trim(line);
      if (!record.empty() && record.front() != '#') decoder.record(record);
      byte += line.size() + 1;  // + the newline getline consumed
    }
    counters.events.inc(decoder.finish());
    counters.bytes.inc(byte);
    return util::ok_status();
  } catch (const RecordError& e) {
    counters.corrupt.inc(1);
    std::string where = std::string(dialect.name) + " parse error at line " +
                        std::to_string(lineno);
    if (dialect.byte_offsets) where += " (byte " + std::to_string(byte) + ")";
    return util::corrupt_input(where + ": " + e.what());
  } catch (const std::bad_alloc&) {
    return util::resource_exhausted(std::string(dialect.name) +
                                    " parse: allocation failed");
  } catch (const std::length_error&) {
    return util::resource_exhausted(std::string(dialect.name) +
                                    " parse: implausible allocation");
  }
}

}  // namespace leaps::trace
