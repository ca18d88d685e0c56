#include "serve/metrics.h"

#include <cstdio>
#include <sstream>

namespace leaps::serve {

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

void histogram_json(std::ostringstream& os, const char* name,
                    const obs::LatencyHistogram::Snapshot& h) {
  os << "\"" << name << "\":{\"count\":" << h.count
     << ",\"total_us\":" << h.total_us << ",\"max_us\":" << h.max_us
     << ",\"p50_us\":" << h.quantile_us(0.50)
     << ",\"p95_us\":" << h.quantile_us(0.95)
     << ",\"p99_us\":" << h.quantile_us(0.99) << ",\"le_us\":[";
  // Full bucket shape, not just three pre-chewed quantiles: downstream
  // consumers can compute any quantile, and the Prometheus _bucket lines
  // derive from the same arrays. le_us[i] is bucket i's inclusive upper
  // bound (-1 = the saturated last bucket, le="+Inf" in Prometheus).
  for (std::size_t i = 0; i < obs::LatencyHistogram::kBuckets; ++i) {
    if (i > 0) os << ",";
    if (i + 1 == obs::LatencyHistogram::kBuckets) {
      os << -1;
    } else {
      os << obs::LatencyHistogram::bucket_upper_us(i);
    }
  }
  os << "],\"buckets\":[";
  for (std::size_t i = 0; i < obs::LatencyHistogram::kBuckets; ++i) {
    if (i > 0) os << ",";
    os << h.buckets[i];
  }
  os << "]}";
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
  s.events_ingested = events_ingested.load(kRelaxed);
  s.events_processed = events_processed.load(kRelaxed);
  s.events_dropped = events_dropped.load(kRelaxed);
  s.events_rejected = events_rejected.load(kRelaxed);
  s.events_quarantined = events_quarantined.load(kRelaxed);
  s.events_failed = events_failed.load(kRelaxed);
  s.events_shed = events_shed.load(kRelaxed);
  s.windows_scored = windows_scored.load(kRelaxed);
  s.verdicts_benign = verdicts_benign.load(kRelaxed);
  s.verdicts_malicious = verdicts_malicious.load(kRelaxed);
  s.batches_drained = batches_drained.load(kRelaxed);
  s.sessions_opened = sessions_opened.load(kRelaxed);
  s.sessions_closed = sessions_closed.load(kRelaxed);
  s.sessions_quarantined = sessions_quarantined.load(kRelaxed);
  s.sessions_evicted = sessions_evicted.load(kRelaxed);
  s.registry_retries = registry_retries.load(kRelaxed);
  s.shed_activations = shed_activations.load(kRelaxed);
  s.queue_high_water = queue_high_water_.load(kRelaxed);
  s.queue_wait = queue_wait.snapshot();
  s.classify = classify.snapshot();
  s.decision_values = decision_values.snapshot();
  return s;
}

std::string MetricsSnapshot::to_text() const {
  std::ostringstream os;
  os << "serve metrics:\n"
     << "  events: ingested=" << events_ingested
     << " processed=" << events_processed << " dropped=" << events_dropped
     << " rejected=" << events_rejected
     << " quarantined=" << events_quarantined
     << " failed=" << events_failed << " shed=" << events_shed << "\n"
     << "  windows: scored=" << windows_scored
     << " benign=" << verdicts_benign << " malicious=" << verdicts_malicious
     << "\n"
     << "  sessions: opened=" << sessions_opened
     << " closed=" << sessions_closed
     << " quarantined=" << sessions_quarantined
     << " evicted=" << sessions_evicted << "\n"
     << "  queues: high-water=" << queue_high_water
     << " batches=" << batches_drained
     << " shed-activations=" << shed_activations
     << " registry-retries=" << registry_retries << "\n";
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

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\"events\":{\"ingested\":" << events_ingested
     << ",\"processed\":" << events_processed
     << ",\"dropped\":" << events_dropped
     << ",\"rejected\":" << events_rejected
     << ",\"quarantined\":" << events_quarantined
     << ",\"failed\":" << events_failed
     << ",\"shed\":" << events_shed << "}"
     << ",\"windows\":{\"scored\":" << windows_scored
     << ",\"benign\":" << verdicts_benign
     << ",\"malicious\":" << verdicts_malicious << "}"
     << ",\"sessions\":{\"opened\":" << sessions_opened
     << ",\"closed\":" << sessions_closed
     << ",\"quarantined\":" << sessions_quarantined
     << ",\"evicted\":" << sessions_evicted << "}"
     << ",\"queues\":{\"high_water\":" << queue_high_water
     << ",\"batches\":" << batches_drained
     << ",\"shed_activations\":" << shed_activations
     << ",\"registry_retries\":" << registry_retries << "},";
  histogram_json(os, "queue_wait", queue_wait);
  os << ",";
  histogram_json(os, "classify", classify);
  char dv[256];
  std::snprintf(dv, sizeof dv,
                ",\"decision_value\":{\"count\":%llu,\"sum\":%.9g,"
                "\"min\":%.9g,\"max\":%.9g,\"q50\":%.9g,\"q90\":%.9g,"
                "\"q99\":%.9g}",
                static_cast<unsigned long long>(decision_values.count),
                decision_values.sum, decision_values.min,
                decision_values.max, decision_values.q50,
                decision_values.q90, decision_values.q99);
  os << dv << "}";
  return os.str();
}

obs::MetricRegistry::Registration ServerMetrics::register_with(
    obs::MetricRegistry& registry) const {
  return registry.register_collector([this](
                                         std::vector<obs::MetricSample>& out) {
    const auto counter = [&out](const char* name, const char* help,
                                std::uint64_t value) {
      obs::MetricSample s;
      s.name = name;
      s.help = help;
      s.type = obs::MetricType::kCounter;
      s.counter_value = value;
      out.push_back(std::move(s));
    };
    const MetricsSnapshot snap = snapshot();
    counter("leaps_serve_events_ingested_total", "events accepted by submit",
            snap.events_ingested);
    counter("leaps_serve_events_processed_total", "events classified",
            snap.events_processed);
    counter("leaps_serve_events_dropped_total",
            "events evicted from a queue before feed", snap.events_dropped);
    counter("leaps_serve_events_rejected_total",
            "submits refused (unknown session / stopped server)",
            snap.events_rejected);
    counter("leaps_serve_events_quarantined_total",
            "events failed or skipped in feed_run", snap.events_quarantined);
    counter("leaps_serve_events_failed_total",
            "events that threw during classification", snap.events_failed);
    counter("leaps_serve_events_shed_total",
            "events dropped while shedding engaged", snap.events_shed);
    counter("leaps_serve_windows_scored_total", "windows classified",
            snap.windows_scored);
    counter("leaps_serve_verdicts_benign_total", "benign window verdicts",
            snap.verdicts_benign);
    counter("leaps_serve_verdicts_malicious_total",
            "malicious window verdicts", snap.verdicts_malicious);
    counter("leaps_serve_batches_drained_total", "worker batch drains",
            snap.batches_drained);
    counter("leaps_serve_sessions_opened_total", "sessions opened",
            snap.sessions_opened);
    counter("leaps_serve_sessions_closed_total", "sessions closed",
            snap.sessions_closed);
    counter("leaps_serve_sessions_quarantined_total",
            "circuit-breaker trips", snap.sessions_quarantined);
    counter("leaps_serve_sessions_evicted_total",
            "sessions removed by the idle sweep", snap.sessions_evicted);
    counter("leaps_serve_registry_retries_total",
            "open_session registry re-lookups", snap.registry_retries);
    counter("leaps_serve_shed_activations_total",
            "times a shard entered shedding", snap.shed_activations);

    obs::MetricSample hw;
    hw.name = "leaps_serve_queue_high_water";
    hw.help = "deepest any shard queue got (events)";
    hw.type = obs::MetricType::kGauge;
    hw.gauge_value = static_cast<std::int64_t>(snap.queue_high_water);
    out.push_back(std::move(hw));

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
