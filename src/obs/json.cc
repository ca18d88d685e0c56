#include "obs/json.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <utility>

namespace leaps::obs::json {

void quote(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

void number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  os << buf;
}

void histogram_fields(std::ostream& os, const LatencyHistogram::Snapshot& h) {
  os << "\"count\":" << h.count << ",\"total_us\":" << h.total_us
     << ",\"max_us\":" << h.max_us << ",\"p50_us\":" << h.quantile_us(0.50)
     << ",\"p95_us\":" << h.quantile_us(0.95)
     << ",\"p99_us\":" << h.quantile_us(0.99) << ",\"le_us\":[";
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    if (i > 0) os << ",";
    const bool saturated = i + 1 == LatencyHistogram::kBuckets;
    os << (saturated ? -1 : std::int64_t(LatencyHistogram::bucket_upper_us(i)));
  }
  os << "],\"buckets\":[";
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    if (i > 0) os << ",";
    os << h.buckets[i];
  }
  os << "]";
}

void summary_fields(std::ostream& os, const Summary::Snapshot& s) {
  os << "\"count\":" << s.count;
  const std::pair<const char*, double> values[] = {
      {"sum", s.sum}, {"min", s.min}, {"max", s.max},
      {"q50", s.q50}, {"q90", s.q90}, {"q99", s.q99}};
  for (const auto& [key, v] : values) {
    os << ",\"" << key << "\":";
    number(os, v);
  }
}

}  // namespace leaps::obs::json
