// Serving-layer metrics: lock-free atomic counters and log₂-bucketed
// latency histograms, snapshotted periodically into a plain struct with
// text and JSON renderings.
//
// Everything here is written from worker and producer threads on the hot
// path, so all mutation is relaxed-atomic; a snapshot is a best-effort
// consistent read (counters may be mid-update relative to each other,
// which is fine for operational metrics).
//
// Which counters exist is decided once, by the counter table in
// metrics.cc (atomic, snapshot field, JSON group and key, Prometheus name
// and help); every rendering loops over it. Adding a counter means adding
// an atomic, a snapshot field and one row.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/histogram.h"
#include "obs/registry.h"

namespace leaps::serve {

/// One coherent reading of every server counter (plain values).
///
/// Accounting identity (holds exactly after drain()):
///   events_ingested == events_processed + events_dropped
///                      + events_quarantined
/// events_failed and events_shed are *subset* counters (failed ⊆
/// quarantined, shed ⊆ dropped); rejected events were never accepted and
/// sit outside the identity.
struct MetricsSnapshot {
  std::uint64_t events_ingested = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t events_dropped = 0;   // evicted from a queue before feed
  std::uint64_t events_rejected = 0;  // unknown session / server stopped
  std::uint64_t events_quarantined = 0;  // failed or skipped in feed_run
  std::uint64_t events_failed = 0;       // threw during classification
  std::uint64_t events_shed = 0;         // dropped while shedding engaged
  std::uint64_t windows_scored = 0;
  std::uint64_t verdicts_benign = 0;
  std::uint64_t verdicts_malicious = 0;
  std::uint64_t batches_drained = 0;
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t sessions_quarantined = 0;  // circuit-breaker trips
  std::uint64_t sessions_evicted = 0;      // removed by the idle sweep
  std::uint64_t registry_retries = 0;      // open_session re-lookups
  std::uint64_t shed_activations = 0;      // shard entered shedding
  std::uint64_t queue_high_water = 0;  // deepest any shard queue got (events)
  obs::LatencyHistogram::Snapshot queue_wait;  // enqueue → worker dequeue
  obs::LatencyHistogram::Snapshot classify;    // per drained session run
  /// Distribution of SVM decision values over every scored window — the
  /// model-health signal (quantiles from the streaming sketch).
  obs::Summary::Snapshot decision_values;

  std::string to_text() const;
  std::string to_json() const;

  /// The `"key":value` members of one counter group ("events", "windows",
  /// "sessions" or "queues"), without braces — for documents that lay
  /// the groups out differently (the live status file).
  void counter_fields(std::ostream& os, std::string_view group) const;
};

/// The live counters. Shared by the server, its workers, and any
/// metrics-dumping thread; every member is individually atomic.
class ServerMetrics {
 public:
  std::atomic<std::uint64_t> events_ingested{0};
  std::atomic<std::uint64_t> events_processed{0};
  std::atomic<std::uint64_t> events_dropped{0};
  std::atomic<std::uint64_t> events_rejected{0};
  std::atomic<std::uint64_t> events_quarantined{0};
  std::atomic<std::uint64_t> events_failed{0};
  std::atomic<std::uint64_t> events_shed{0};
  std::atomic<std::uint64_t> windows_scored{0};
  std::atomic<std::uint64_t> verdicts_benign{0};
  std::atomic<std::uint64_t> verdicts_malicious{0};
  std::atomic<std::uint64_t> batches_drained{0};
  std::atomic<std::uint64_t> sessions_opened{0};
  std::atomic<std::uint64_t> sessions_closed{0};
  std::atomic<std::uint64_t> sessions_quarantined{0};
  std::atomic<std::uint64_t> sessions_evicted{0};
  std::atomic<std::uint64_t> registry_retries{0};
  std::atomic<std::uint64_t> shed_activations{0};
  obs::LatencyHistogram queue_wait;
  obs::LatencyHistogram classify;
  /// Streaming quantile sketch of per-window decision values (mutex-
  /// guarded internally; observed once per scored window, not per event).
  obs::Summary decision_values;

  /// Raises the queue-depth high-water mark if `depth` exceeds it.
  void note_queue_depth(std::size_t depth);

  /// Seeds the four accounting-identity counters from a recovered
  /// durability checkpoint, so ingested == processed + dropped +
  /// quarantined keeps holding across a restart boundary. Only valid
  /// before the server starts ingesting (counters must still be zero).
  void restore_baseline(std::uint64_t ingested, std::uint64_t processed,
                        std::uint64_t dropped, std::uint64_t quarantined);

  MetricsSnapshot snapshot() const;

  /// Contributes every counter and both histograms to `registry` under
  /// `leaps_serve_*` names, so serving metrics share one scrape surface
  /// with the pipeline/ingest metrics. Readings are taken at collect()
  /// time from the live atomics. The returned handle unregisters on
  /// destruction and must not outlive this object.
  [[nodiscard]] obs::MetricRegistry::Registration register_with(
      obs::MetricRegistry& registry) const;

 private:
  friend struct CounterTable;  // metrics.cc: one row per counter
  std::atomic<std::uint64_t> queue_high_water_{0};
};

}  // namespace leaps::serve
