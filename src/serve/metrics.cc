#include "serve/metrics.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/json.h"

namespace leaps::serve {

/// One serving counter: where it lives, where its snapshot lands, and how
/// every surface names it.
struct CounterRow {
  std::atomic<std::uint64_t> ServerMetrics::*live;
  std::uint64_t MetricsSnapshot::*field;
  std::string_view group;  // JSON object and text-report line
  std::string_view key;    // JSON key; the text key swaps `_` for `-`
  const char* prometheus;
  const char* help;
  obs::MetricType type = obs::MetricType::kCounter;
};

/// The rows, grouped (each group's rows are contiguous) in report order.
/// A friend of ServerMetrics, for the private high-water atomic.
struct CounterTable {
  static const CounterRow kRows[];
};

const CounterRow CounterTable::kRows[] = {
    {&ServerMetrics::events_ingested, &MetricsSnapshot::events_ingested,
     "events", "ingested", "leaps_serve_events_ingested_total",
     "events accepted by submit"},
    {&ServerMetrics::events_processed, &MetricsSnapshot::events_processed,
     "events", "processed", "leaps_serve_events_processed_total",
     "events classified"},
    {&ServerMetrics::events_dropped, &MetricsSnapshot::events_dropped,
     "events", "dropped", "leaps_serve_events_dropped_total",
     "events evicted from a queue before feed"},
    {&ServerMetrics::events_rejected, &MetricsSnapshot::events_rejected,
     "events", "rejected", "leaps_serve_events_rejected_total",
     "submits refused (unknown session / stopped server)"},
    {&ServerMetrics::events_quarantined, &MetricsSnapshot::events_quarantined,
     "events", "quarantined", "leaps_serve_events_quarantined_total",
     "events failed or skipped in feed_run"},
    {&ServerMetrics::events_failed, &MetricsSnapshot::events_failed, "events",
     "failed", "leaps_serve_events_failed_total",
     "events that threw during classification"},
    {&ServerMetrics::events_shed, &MetricsSnapshot::events_shed, "events",
     "shed", "leaps_serve_events_shed_total",
     "events dropped while shedding engaged"},
    {&ServerMetrics::windows_scored, &MetricsSnapshot::windows_scored,
     "windows", "scored", "leaps_serve_windows_scored_total",
     "windows classified"},
    {&ServerMetrics::verdicts_benign, &MetricsSnapshot::verdicts_benign,
     "windows", "benign", "leaps_serve_verdicts_benign_total",
     "benign window verdicts"},
    {&ServerMetrics::verdicts_malicious, &MetricsSnapshot::verdicts_malicious,
     "windows", "malicious", "leaps_serve_verdicts_malicious_total",
     "malicious window verdicts"},
    {&ServerMetrics::sessions_opened, &MetricsSnapshot::sessions_opened,
     "sessions", "opened", "leaps_serve_sessions_opened_total",
     "sessions opened"},
    {&ServerMetrics::sessions_closed, &MetricsSnapshot::sessions_closed,
     "sessions", "closed", "leaps_serve_sessions_closed_total",
     "sessions closed"},
    {&ServerMetrics::sessions_quarantined,
     &MetricsSnapshot::sessions_quarantined, "sessions", "quarantined",
     "leaps_serve_sessions_quarantined_total", "circuit-breaker trips"},
    {&ServerMetrics::sessions_evicted, &MetricsSnapshot::sessions_evicted,
     "sessions", "evicted", "leaps_serve_sessions_evicted_total",
     "sessions removed by the idle sweep"},
    {&ServerMetrics::queue_high_water_, &MetricsSnapshot::queue_high_water,
     "queues", "high_water", "leaps_serve_queue_high_water",
     "deepest any shard queue got (events)", obs::MetricType::kGauge},
    {&ServerMetrics::batches_drained, &MetricsSnapshot::batches_drained,
     "queues", "batches", "leaps_serve_batches_drained_total",
     "worker batch drains"},
    {&ServerMetrics::shed_activations, &MetricsSnapshot::shed_activations,
     "queues", "shed_activations", "leaps_serve_shed_activations_total",
     "times a shard entered shedding"},
    {&ServerMetrics::registry_retries, &MetricsSnapshot::registry_retries,
     "queues", "registry_retries", "leaps_serve_registry_retries_total",
     "open_session registry re-lookups"},
};

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

/// fetch_max for pre-C++26 atomics.
void atomic_max(std::atomic<std::uint64_t>& a, std::uint64_t value) {
  std::uint64_t seen = a.load(kRelaxed);
  while (seen < value && !a.compare_exchange_weak(seen, value, kRelaxed)) {
  }
}

void histogram_text(std::ostringstream& os, const char* name,
                    const obs::LatencyHistogram::Snapshot& h) {
  os << "  " << name << " us: count=" << h.count;
  if (h.count > 0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", h.mean_us());
    os << " mean=" << buf << " p50<=" << h.quantile_us(0.50)
       << " p95<=" << h.quantile_us(0.95) << " p99<=" << h.quantile_us(0.99)
       << " max=" << h.max_us;
  }
  os << "\n";
}

}  // namespace

void ServerMetrics::note_queue_depth(std::size_t depth) {
  atomic_max(queue_high_water_, depth);
}

void ServerMetrics::restore_baseline(std::uint64_t ingested,
                                     std::uint64_t processed,
                                     std::uint64_t dropped,
                                     std::uint64_t quarantined) {
  events_ingested.store(ingested, kRelaxed);
  events_processed.store(processed, kRelaxed);
  events_dropped.store(dropped, kRelaxed);
  events_quarantined.store(quarantined, kRelaxed);
}

MetricsSnapshot ServerMetrics::snapshot() const {
  MetricsSnapshot s;
  for (const CounterRow& row : CounterTable::kRows) {
    s.*row.field = (this->*row.live).load(kRelaxed);
  }
  s.queue_wait = queue_wait.snapshot();
  s.classify = classify.snapshot();
  s.decision_values = decision_values.snapshot();
  return s;
}

std::string MetricsSnapshot::to_text() const {
  std::ostringstream os;
  os << "serve metrics:\n";
  std::string_view group;
  for (const CounterRow& row : CounterTable::kRows) {
    if (row.group != group) {
      if (!group.empty()) os << "\n";
      group = row.group;
      os << "  " << group << ":";
    }
    std::string key(row.key);
    std::replace(key.begin(), key.end(), '_', '-');
    os << " " << key << "=" << this->*row.field;
  }
  os << "\n";
  histogram_text(os, "queue-wait", queue_wait);
  histogram_text(os, "classify ", classify);
  os << "  decision-value: count=" << decision_values.count;
  if (decision_values.count > 0) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  " min=%.4f q50=%.4f q90=%.4f q99=%.4f max=%.4f",
                  decision_values.min, decision_values.q50,
                  decision_values.q90, decision_values.q99,
                  decision_values.max);
    os << buf;
  }
  os << "\n";
  return os.str();
}

void MetricsSnapshot::counter_fields(std::ostream& os,
                                     std::string_view group) const {
  bool first = true;
  for (const CounterRow& row : CounterTable::kRows) {
    if (row.group != group) continue;
    if (!first) os << ",";
    first = false;
    os << "\"" << row.key << "\":" << this->*row.field;
  }
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{";
  std::string_view group;
  for (const CounterRow& row : CounterTable::kRows) {
    if (row.group == group) continue;
    group = row.group;
    os << "\"" << group << "\":{";
    counter_fields(os, group);
    os << "},";
  }
  os << "\"queue_wait\":{";
  obs::json::histogram_fields(os, queue_wait);
  os << "},\"classify\":{";
  obs::json::histogram_fields(os, classify);
  os << "},\"decision_value\":{";
  obs::json::summary_fields(os, decision_values);
  os << "}}";
  return os.str();
}

obs::MetricRegistry::Registration ServerMetrics::register_with(
    obs::MetricRegistry& registry) const {
  return registry.register_collector([this](
                                         std::vector<obs::MetricSample>& out) {
    const MetricsSnapshot snap = snapshot();
    for (const CounterRow& row : CounterTable::kRows) {
      out.push_back(obs::scalar_sample(row.type, row.prometheus, row.help,
                                       snap.*row.field));
    }

    obs::MetricSample qw;
    qw.name = "leaps_serve_queue_wait_us";
    qw.help = "enqueue to worker dequeue latency";
    qw.type = obs::MetricType::kHistogram;
    qw.histogram = snap.queue_wait;
    out.push_back(std::move(qw));

    obs::MetricSample cl;
    cl.name = "leaps_serve_classify_us";
    cl.help = "per drained run of one session";
    cl.type = obs::MetricType::kHistogram;
    cl.histogram = snap.classify;
    out.push_back(std::move(cl));

    obs::MetricSample dv;
    dv.name = "leaps_serve_decision_value";
    dv.help = "SVM decision values over scored windows (quantile sketch)";
    dv.type = obs::MetricType::kSummary;
    dv.summary = snap.decision_values;
    out.push_back(std::move(dv));
  });
}

}  // namespace leaps::serve
