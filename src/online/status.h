// Live status surface: one JSON snapshot of everything an operator needs
// to judge a running deployment's model health at a glance.
//
// render_status_json() folds the serving metrics (sessions, queue depths,
// shed/quarantine state, verdict mix, decision-value quantiles), the
// online-learning report, the drift monitor, and the audit stream's
// written/dropped counters into a single JSON object;
// write_status_json() lands it with util::atomic_write_file so a reader
// (`leaps-top`, a scrape sidecar, `python -m json.tool` in CI) always
// sees a complete document, never a torn one.
//
// The serving groups carry the counter table's keys (plus
// `sessions.active` and `queues.wait_p99_us`); every string and number
// goes through obs/json.h, so untrusted names are escaped and non-finite
// values are `null`. DESIGN.md §13 lists the keys.
//
// This lives in online/ (not serve/) because the interesting half of the
// surface — drift state, retrain phase, per-generation verdict mixes —
// comes from OnlineManager, which serve/ sits below.
#pragma once

#include <cstdint>
#include <string>

#include "attrib/matcher.h"
#include "online/manager.h"
#include "serve/audit.h"
#include "serve/server.h"
#include "util/status.h"

namespace leaps::online {

struct StatusInputs {
  /// Required: sessions + server metrics.
  const serve::DetectionServer* server = nullptr;
  /// Optional: online/drift report (null → "online": null).
  const OnlineManager* manager = nullptr;
  /// Optional: audit stream counters (null → "audit": null).
  const serve::AuditLog* audit = nullptr;
  /// Optional: campaign attribution (null → "attribution": null). Each
  /// ranked claim renders as an object tagged "AttributionVerdict".
  const attrib::FleetAttributor* attrib = nullptr;
};

/// The full status document (one JSON object, no trailing newline).
std::string render_status_json(const StatusInputs& inputs);

/// Atomically replaces `path` with the current status document.
util::Status write_status_json(const std::string& path,
                               const StatusInputs& inputs);

}  // namespace leaps::online
