// JSON building blocks: the one place in src/ that turns a string, a
// double, a latency histogram or a quantile summary into JSON text. The
// registry exposition, `leaps-serve --json`, the status file, the audit
// JSONL and the chrome trace all use them, so they share one escaping
// rule and one non-finite rule: NaN and ±Inf are written as `null`.
#pragma once

#include <ostream>
#include <string_view>

#include "obs/histogram.h"
#include "obs/sketch.h"

namespace leaps::obs::json {

/// `s` as a quoted JSON string: `"` and `\` are backslash-escaped and
/// control characters (below 0x20) become `\u00XX`; every other byte,
/// UTF-8 included, passes through unchanged.
void quote(std::ostream& os, std::string_view s);

/// `v` in `%.9g`, or `null` when it is NaN or infinite.
void number(std::ostream& os, double v);

/// The members of a histogram object, without the braces:
/// `count,total_us,max_us,p50_us,p95_us,p99_us,le_us,buckets`. `le_us[i]`
/// is bucket i's inclusive upper bound, -1 for the saturated last bucket
/// (le="+Inf" in Prometheus), so a consumer can compute any quantile.
void histogram_fields(std::ostream& os, const LatencyHistogram::Snapshot& h);

/// The members of a summary object, without the braces:
/// `count,sum,min,max,q50,q90,q99`.
void summary_fields(std::ostream& os, const Summary::Snapshot& s);

}  // namespace leaps::obs::json
