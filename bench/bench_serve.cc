// bench_serve — serving-layer throughput: aggregate events/sec through the
// DetectionServer as the worker pool grows, over many concurrent replayed
// sessions.
//
// Sessions are sharded across workers, so scaling comes from session
// parallelism; with ≥ 8 sessions the pool should scale near-linearly until
// it runs out of hardware threads (the binary prints the machine's
// concurrency so a 1-core CI box's flat curve reads as what it is).
//
// Each producer hands its session's events to the server as spans (the
// replay's contiguous runs), the same hand-off leaps-serve uses.
//
// Each worker count runs one warm-up pass and then a fixed number of
// measured passes (5, or 3 under LEAPS_FAST); the table and the JSON
// report the median with the min and max beside it, and the speedup
// column divides medians.
//
// Knobs: LEAPS_SERVE_SESSIONS (default 8), LEAPS_SERVE_EVENTS per session
// (default 6000), LEAPS_EVENTS (training-log size), LEAPS_FAST=1.
// LEAPS_BENCH_JSON=<path> additionally writes the measurements as a JSON
// snapshot (the format of the checked-in BENCH_serve.json baseline).
// LEAPS_BENCH_BASELINE=<path> compares this box's core count against the
// checked-in snapshot before writing: mismatches are annotated in the
// JSON, or refused outright with LEAPS_BENCH_STRICT=1 (speedup columns are
// incomparable across core counts). Under LEAPS_BENCH_STRICT=1 a probe
// whose measurement is unavailable (warm restart, drift) also exits 1
// before any JSON is written.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "durable/store.h"
#include "ml/svm.h"
#include "online/manager.h"
#include "serve/server.h"
#include "sim/scenario.h"
#include "trace/parser.h"
#include "trace/partition.h"
#include "util/env.h"

namespace {

using namespace leaps;

trace::PartitionedLog partition_raw(const trace::RawLog& raw) {
  const trace::ParsedTrace t = trace::RawLogParser().parse_raw(raw);
  return trace::StackPartitioner(t.log.process_name).partition(t.log);
}

struct Workload {
  std::shared_ptr<const core::Detector> detector;
  trace::PartitionedLog replay;  // the event source every session loops over
};

Workload build_workload(std::size_t train_events) {
  sim::SimConfig cfg;
  cfg.benign_events = train_events;
  cfg.mixed_events = train_events * 3 / 4;
  cfg.malicious_events = train_events / 2;
  const sim::ScenarioLogs logs = sim::generate_scenario(
      sim::find_scenario("vim_reverse_tcp_online"), cfg);

  Workload w;
  const trace::PartitionedLog benign = partition_raw(logs.benign);
  const trace::PartitionedLog mixed = partition_raw(logs.mixed);
  const core::TrainingData td = core::LeapsPipeline().prepare(benign, mixed);
  ml::Dataset train = td.benign;
  train.append(td.mixed);
  ml::MinMaxScaler scaler;
  scaler.fit(train.X);
  scaler.transform_in_place(train);
  const ml::SvmModel model = ml::SvmTrainer({}).train(train);
  w.detector = std::make_shared<const core::Detector>(td.preprocessor,
                                                      scaler, model);
  w.replay = mixed;
  return w;
}

/// Measured passes per worker count (after one warm-up pass). One pass
/// under LEAPS_FAST lasts ~10 ms, too short for a single pass to stand
/// for the worker count; the median is reported with its min and max.
constexpr std::size_t kPasses = 5;
constexpr std::size_t kFastPasses = 3;

/// One worker count's throughput over its measured passes (events/sec).
struct Rate {
  std::size_t workers;
  double median;
  double min;
  double max;
};

double run_once(const Workload& w, std::size_t workers,
                std::size_t sessions, std::size_t events_per_session) {
  serve::ServerOptions options;
  options.workers = workers;
  options.queue_capacity = 4096;
  options.batch_size = 128;
  serve::DetectionServer server(options);
  server.registry().add("bench", w.detector);

  std::vector<std::shared_ptr<serve::Session>> handles;
  for (std::size_t s = 0; s < sessions; ++s) {
    handles.push_back(server.open_session(
        {"bench" + std::to_string(s), static_cast<std::uint32_t>(s)},
        "bench"));
  }
  server.start();

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  producers.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    producers.emplace_back([&, s] {
      // events_per_session events cycling over the replay, one span per
      // contiguous run.
      const std::span<const trace::PartitionedEvent> events(w.replay.events);
      for (std::size_t sent = 0; sent < events_per_session;) {
        const std::size_t pos = sent % events.size();
        const std::size_t n =
            std::min(events.size() - pos, events_per_session - sent);
        server.submit(handles[s], events.subspan(pos, n));
        sent += n;
      }
    });
  }
  for (auto& p : producers) p.join();
  server.drain();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  server.stop();
  return static_cast<double>(sessions * events_per_session) /
         elapsed.count();
}

/// Warm-restart latency: from "process came back up" (durable recover)
/// through registry + online-state restore to the first verdict served.
struct RestartLatency {
  bool ok = false;
  double recover_ms = 0.0;        // snapshot + journal replay
  double first_verdict_ms = 0.0;  // recover + restore + serve to verdict 1
};

RestartLatency measure_warm_restart(const Workload& w) {
  RestartLatency out;
  char tmpl[] = "/tmp/bench_serve_durable_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  if (dir == nullptr) return out;
  const std::string snapshot = std::string(dir) + "/snapshot.leaps";
  const std::string journal = std::string(dir) + "/journal.wal";

  // Seed the directory with the shape a clean shutdown leaves behind: one
  // checkpoint holding the incumbent and a batch of pending windows.
  const std::size_t window = w.detector->preprocessor().window();
  {
    durable::DurableOptions dopts;
    dopts.dir = dir;
    durable::DurableStore store(dopts);
    if (!store.open().ok()) return out;
    durable::CheckpointState state;
    state.detector = w.detector;
    for (std::size_t i = 0;
         i + window <= w.replay.events.size() && i < 32 * window;
         i += window) {
      state.pending_windows.push_back(durable::DurableWindow{
          {w.replay.events.begin() + static_cast<std::ptrdiff_t>(i),
           w.replay.events.begin() + static_cast<std::ptrdiff_t>(i + window)}});
    }
    if (!store.checkpoint(state).ok()) return out;
  }

  const auto start = std::chrono::steady_clock::now();
  durable::DurableOptions dopts;
  dopts.dir = dir;
  durable::DurableStore store(dopts);
  const auto recovered = store.recover();
  const auto recovered_at = std::chrono::steady_clock::now();
  if (!recovered.ok() || recovered->detector == nullptr) return out;
  if (!store.open().ok()) return out;

  serve::ServerOptions options;
  options.workers = 2;
  serve::DetectionServer server(options);
  server.registry().add("default", recovered->detector);
  online::OnlineOptions oopts;
  oopts.durable = &store;
  online::OnlineManager manager(&server, oopts);
  manager.install();
  manager.restore(*recovered);

  std::mutex mu;
  std::condition_variable cv;
  bool got = false;
  std::chrono::steady_clock::time_point first;
  server.set_verdict_sink([&](const serve::VerdictRecord&) {
    const std::lock_guard<std::mutex> lock(mu);
    if (!got) {
      got = true;
      first = std::chrono::steady_clock::now();
      cv.notify_all();
    }
  });
  server.start();
  const auto session = server.open_session({"restart", 1}, "default");
  for (std::size_t i = 0; i < 4 * window && i < w.replay.events.size(); ++i) {
    server.submit(session, w.replay.events[i]);
  }
  server.drain();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return got; });
  }
  server.stop();
  manager.stop();
  if (got) {
    out.ok = true;
    out.recover_ms =
        std::chrono::duration<double, std::milli>(recovered_at - start)
            .count();
    out.first_verdict_ms =
        std::chrono::duration<double, std::milli>(first - start).count();
  }
  ::unlink(snapshot.c_str());
  ::unlink(journal.c_str());
  ::rmdir(dir);
  return out;
}

/// Drift-detection latency at the default window sizes (reference 256,
/// live 128): the per-verdict observe() cost the tap pays, and the KS
/// evaluate-to-trigger cost the manager poll pays.
struct DriftLatency {
  bool ok = false;
  double observe_ns = 0.0;   // per observed decision value
  double evaluate_us = 0.0;  // per full-window KS evaluation
  int fired = 0;             // triggers over kDriftRounds evaluations
};

constexpr int kDriftRounds = 100;
constexpr std::size_t kDriftValues = 512;

DriftLatency measure_drift_trigger(const Workload& w) {
  DriftLatency out;
  // Real decision values from a real replay seed the reference; the live
  // window gets the same values shifted — a guaranteed, repeatable drift.
  // One pass over the replay yields fewer windows than the probe needs,
  // so the stream cycles over it; a window completes every `window`
  // events, which bounds the loop.
  std::vector<double> values;
  core::Detector::Stream stream = w.detector->stream();
  const auto& events = w.replay.events;
  const std::size_t limit =
      events.empty() ? 0
                     : 2 * kDriftValues * w.detector->preprocessor().window();
  for (std::size_t i = 0; i < limit && values.size() < kDriftValues; ++i) {
    if (stream.push(events[i % events.size()]).has_value()) {
      values.push_back(stream.last_decision_value());
    }
  }
  online::DriftOptions dopts;
  dopts.enabled = true;
  if (values.size() < dopts.reference_target + dopts.min_live) return out;
  online::DriftMonitor monitor(dopts);

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < values.size(); ++i) {
    const bool live = i >= dopts.reference_target;
    monitor.observe(values[i] + (live ? 1.0 : 0.0), 1);
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.observe_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      static_cast<double>(values.size());

  double total_us = 0.0;
  for (int r = 0; r < kDriftRounds; ++r) {
    const auto e0 = std::chrono::steady_clock::now();
    const bool fired = monitor.evaluate();
    const auto e1 = std::chrono::steady_clock::now();
    total_us += std::chrono::duration<double, std::micro>(e1 - e0).count();
    if (fired) ++out.fired;
    monitor.consume_trigger();  // clears the live window (cooldown)
    for (std::size_t i = dopts.reference_target; i < values.size(); ++i) {
      monitor.observe(values[i] + 1.0, 1);
    }
  }
  out.evaluate_us = total_us / kDriftRounds;
  out.ok = true;
  return out;
}

}  // namespace

int main() {
  const bool fast = util::env_flag("LEAPS_FAST");
  const auto sessions = static_cast<std::size_t>(
      util::env_int("LEAPS_SERVE_SESSIONS", 8));
  const auto events_per_session = static_cast<std::size_t>(
      util::env_int("LEAPS_SERVE_EVENTS", fast ? 1500 : 6000));
  const auto train_events =
      static_cast<std::size_t>(util::env_int("LEAPS_EVENTS", 3000));
  const bool strict = util::env_flag("LEAPS_BENCH_STRICT");

  std::printf("LEAPS reproduction — serving throughput (bench_serve)\n");
  std::printf(
      "config: sessions=%zu events/session=%zu train_events=%zu "
      "hardware_concurrency=%u\n\n",
      sessions, events_per_session, train_events,
      std::thread::hardware_concurrency());

  const Workload w = build_workload(train_events);
  const std::size_t passes = fast ? kFastPasses : kPasses;
  std::printf("%zu measured passes per worker count; events/sec median "
              "[min, max], speedup of the medians\n",
              passes);
  std::printf("%-8s %14s %25s %10s\n", "workers", "events/sec", "[min, max]",
              "speedup");
  std::vector<Rate> rows;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    // Warm-up pass, then the measured passes.
    run_once(w, workers, sessions, events_per_session / 4 + 1);
    std::vector<double> rates;
    for (std::size_t p = 0; p < passes; ++p) {
      rates.push_back(run_once(w, workers, sessions, events_per_session));
    }
    std::sort(rates.begin(), rates.end());
    rows.push_back({workers, rates[rates.size() / 2], rates.front(),
                    rates.back()});
    const Rate& r = rows.back();
    std::printf("%-8zu %14.0f   [%10.0f, %10.0f] %9.2fx\n", workers,
                r.median, r.min, r.max, r.median / rows.front().median);
  }
  const double at4 = rows[2].median / rows.front().median;  // 4 workers
  std::printf(
      "\n1 → 4 workers: %.2fx aggregate scaling over %zu sessions%s\n",
      at4, sessions,
      std::thread::hardware_concurrency() < 4
          ? " (machine has fewer than 4 hardware threads; expect ~1x here)"
          : "");

  const RestartLatency restart = measure_warm_restart(w);
  if (restart.ok) {
    std::printf(
        "warm restart: recover %.2f ms, first verdict %.2f ms "
        "(checkpoint -> recover -> restore -> serve)\n",
        restart.recover_ms, restart.first_verdict_ms);
  } else {
    std::printf("warm restart: measurement unavailable\n");
  }

  const DriftLatency drift = measure_drift_trigger(w);
  if (drift.ok) {
    std::printf(
        "drift monitor: observe %.0f ns/value, KS evaluate %.1f us "
        "(ref=256 live=128), trigger fired %d/%d rounds\n",
        drift.observe_ns, drift.evaluate_us, drift.fired, kDriftRounds);
  } else {
    std::printf("drift monitor: measurement unavailable\n");
  }
  if (strict && !(restart.ok && drift.ok)) {
    std::fprintf(stderr,
                 "bench_serve: a probe could not measure "
                 "(LEAPS_BENCH_STRICT=1)\n");
    return 1;
  }

  const std::string json_path = util::env_string("LEAPS_BENCH_JSON", "");
  if (!json_path.empty()) {
    const bench::BaselineGuard guard = bench::check_bench_baseline();
    std::ofstream os(json_path, std::ios::trunc);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    os << "{\n  \"benchmark\": \"bench_serve\",\n"
       << "  \"config\": {\"sessions\": " << sessions
       << ", \"events_per_session\": " << events_per_session
       << ", \"train_events\": " << train_events
       << ", \"passes\": " << passes
       << ", \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << guard.annotation
       << "},\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      char line[192];
      std::snprintf(line, sizeof line,
                    "    {\"workers\": %zu, \"events_per_sec\": %.0f, "
                    "\"min\": %.0f, \"max\": %.0f, \"speedup\": %.2f}%s\n",
                    rows[i].workers, rows[i].median, rows[i].min,
                    rows[i].max, rows[i].median / rows.front().median,
                    i + 1 < rows.size() ? "," : "");
      os << line;
    }
    os << "  ]";
    if (restart.ok) {
      char line[160];
      std::snprintf(line, sizeof line,
                    ",\n  \"warm_restart\": {\"recover_ms\": %.2f, "
                    "\"first_verdict_ms\": %.2f}",
                    restart.recover_ms, restart.first_verdict_ms);
      os << line;
    }
    if (drift.ok) {
      char line[160];
      std::snprintf(line, sizeof line,
                    ",\n  \"drift\": {\"observe_ns\": %.0f, "
                    "\"evaluate_us\": %.2f, \"fired\": %d}",
                    drift.observe_ns, drift.evaluate_us, drift.fired);
      os << line;
    }
    os << "\n}\n";
    std::printf("(JSON -> %s)\n", json_path.c_str());
  }
  return 0;
}
