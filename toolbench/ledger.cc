// toolbench-ledger — the leaps tools' work, done in-process and timed
// layer by layer from outside.
//
//   toolbench-ledger scan  <detector> <log> [--trace]
//   toolbench-ledger train <benign.log> <mixed.log> <detector-out> [--trace]
//   toolbench-ledger serve <detector> <log>... [--detector NAME=PATH]...
//       [--sessions N] [--replays R] [--online] [--durable DIR] [--trace]
//
// Each mode repeats what leaps-scan / leaps-train / leaps-serve do, call
// for call. Without --trace only the total wall time and, for serve, each
// replay round's, drain's and poll's time are taken. With
// --trace every call into a module's public functions (read_raw_log_any,
// RawLogParser::parse_raw, StackPartitioner::partition, load_detector_file,
// Detector::scan, LeapsPipeline::prepare, tune_svm, SvmTrainer::train,
// DetectionServer::submit, OnlineManager::poll_once, ...) is timed, and
// train also times Preprocessor::fit, make_windows, jaccard_condensed,
// HierarchicalClusterer::cluster, CfgInference::infer and
// WeightAssessor::assess standalone on the same inputs.
//
// The last line of stdout is one JSON object: {"values": {...},
// "sessions": [...]} (sessions only for serve).
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cfg/inference.h"
#include "cfg/weight.h"
#include "core/persist.h"
#include "core/pipeline.h"
#include "durable/store.h"
#include "ml/cross_validation.h"
#include "ml/distance.h"
#include "ml/hcluster.h"
#include "ml/scaler.h"
#include "ml/svm.h"
#include "online/manager.h"
#include "serve/server.h"
#include "trace/binary_log.h"
#include "trace/intern.h"
#include "trace/parser.h"
#include "trace/partition.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace leaps;
using Clock = std::chrono::steady_clock;

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "toolbench-ledger: %s\n", message.c_str());
  std::exit(1);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Named values; `timed` adds a call's wall time under a name only when
/// tracing is on, so the untraced run pays nothing for the ledger.
class Ledger {
 public:
  explicit Ledger(bool on) : on_(on) {}
  bool on() const { return on_; }

  template <class F>
  decltype(auto) timed(const std::string& name, F&& f) {
    if (!on_) return f();
    return clocked(name, std::forward<F>(f));
  }

  /// Times `f` whether or not tracing is on; for calls made a handful of
  /// times per run (a replay round, a drain, a poll), where the two clock
  /// reads cost nothing measurable.
  template <class F>
  decltype(auto) clocked(const std::string& name, F&& f) {
    struct Stop {
      Ledger* ledger;
      const std::string& name;
      Clock::time_point start;
      ~Stop() { ledger->values_[name] += seconds_since(start); }
    } stop{this, name, Clock::now()};
    return f();
  }

  void set(const std::string& name, double value) { values_[name] = value; }
  void add(const std::string& name, double value) { values_[name] += value; }
  double get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

  std::string json() const {
    std::string out = "{";
    for (const auto& [name, value] : values_) {
      if (out.size() > 1) out += ",";
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", value);
      out += "\"" + name + "\":" + buf;
    }
    return out + "}";
  }

 private:
  bool on_;
  std::map<std::string, double> values_;
};

/// cli::load_partitioned_log, one call at a time.
trace::PartitionedLog load_log(const std::string& path, Ledger& ledger) {
  std::ifstream is(path, std::ios::binary);
  if (!is) die("cannot open " + path);
  util::StatusOr<trace::RawLog> raw = ledger.timed(
      "trace.decode_s", [&] { return trace::read_raw_log_any(is); });
  if (!raw.ok()) die(path + ": " + raw.status().to_string());
  const trace::ParsedTrace parsed = ledger.timed(
      "trace.symbolize_s", [&] { return trace::RawLogParser().parse_raw(*raw); });
  return ledger.timed("trace.partition_s", [&] {
    return trace::StackPartitioner(parsed.log.process_name)
        .partition(parsed.log);
  });
}

core::Detector load_detector(const std::string& path, Ledger& ledger) {
  return ledger.timed("core.load_detector_s",
                      [&] { return core::load_detector_file(path); });
}

// --- scan: leaps-scan -------------------------------------------------------

int run_scan(const std::vector<std::string>& pos, Ledger& ledger) {
  if (pos.size() != 2) die("scan wants <detector> <log>");
  const auto start = Clock::now();
  const core::Detector detector = load_detector(pos[0], ledger);
  const trace::PartitionedLog log = load_log(pos[1], ledger);
  const core::Detector::ScanResult result =
      ledger.timed("core.scan_s", [&] { return detector.scan(log); });
  ledger.set("wall_s", seconds_since(start));
  ledger.set("windows", static_cast<double>(result.window_labels.size()));
  ledger.set("benign", static_cast<double>(result.benign_windows));
  ledger.set("malicious", static_cast<double>(result.malicious_windows));
  ledger.set("ml.support_vectors",
             static_cast<double>(detector.model().support_vectors().size()));
  std::printf("{\"values\":%s}\n", ledger.json().c_str());
  return 0;
}

// --- train: leaps-train -----------------------------------------------------

/// One pass of the stages LeapsPipeline::prepare is made of, each timed on
/// its own over the same inputs.
void prepare_stages_once(const trace::PartitionedLog& benign,
                         const trace::PartitionedLog& mixed,
                         const core::PipelineOptions& options,
                         Ledger& ledger) {
  core::Preprocessor pre(options.preprocess);
  ledger.timed("core.preprocess_fit_s", [&] { pre.fit({&benign, &mixed}); });
  ledger.timed("core.make_windows_s", [&] {
    const core::WindowedData b = pre.make_windows(benign);
    const core::WindowedData m = pre.make_windows(mixed);
    return b.X.size() + m.X.size();
  });
  for (const core::SetClusterer* c :
       {&pre.lib_clusterer(), &pre.func_clusterer()}) {
    ml::CondensedMatrix dm = ledger.timed(
        "ml.jaccard_s", [&] { return ml::jaccard_condensed(c->unique_sets()); });
    const ml::HierarchicalClusterer clusterer(c->options());
    ledger.timed("ml.upgma_s",
                 [&] { return clusterer.cluster(std::move(dm)).cluster_count; });
  }
  const cfg::CfgInference inference(options.inference);
  const cfg::InferredCfg benign_cfg =
      ledger.timed("cfg.infer_s", [&] { return inference.infer(benign); });
  const cfg::InferredCfg mixed_cfg =
      ledger.timed("cfg.infer_s", [&] { return inference.infer(mixed); });
  const cfg::WeightAssessor assessor(benign_cfg.graph);
  ledger.timed("cfg.assess_s",
               [&] { return assessor.assess(mixed_cfg).size(); });
}

/// The prepare stages timed standalone: the median of three passes each.
void standalone_prepare_stages(const trace::PartitionedLog& benign,
                               const trace::PartitionedLog& mixed,
                               const core::PipelineOptions& options,
                               Ledger& ledger) {
  constexpr const char* kStages[] = {"core.preprocess_fit_s",
                                     "core.make_windows_s", "ml.jaccard_s",
                                     "ml.upgma_s", "cfg.infer_s",
                                     "cfg.assess_s"};
  std::map<std::string, std::vector<double>> passes;
  for (int pass = 0; pass < 3; ++pass) {
    Ledger once(true);
    prepare_stages_once(benign, mixed, options, once);
    for (const char* stage : kStages) passes[stage].push_back(once.get(stage));
  }
  for (auto& [stage, times] : passes) {
    std::sort(times.begin(), times.end());
    ledger.set(stage, times[1]);
  }
}

int run_train(const std::vector<std::string>& pos, Ledger& ledger) {
  if (pos.size() != 3) die("train wants <benign.log> <mixed.log> <out>");
  const auto start = Clock::now();
  const trace::PartitionedLog benign = load_log(pos[0], ledger);
  const trace::PartitionedLog mixed = load_log(pos[1], ledger);

  const core::PipelineOptions options;
  const core::LeapsPipeline pipeline(options);
  const core::TrainingData td = ledger.timed(
      "core.prepare_s", [&] { return pipeline.prepare(benign, mixed); });

  ml::Dataset train = td.benign;
  train.append(td.mixed);
  ml::MinMaxScaler scaler;
  ledger.timed("core.scale_s", [&] {
    scaler.fit(train.X);
    scaler.transform_in_place(train);
  });

  ml::CrossValidationOptions cv;
  cv.folds = 10;
  cv.weighted_validation = true;
  util::Rng rng(7);
  const ml::GridSearchResult grid =
      ledger.timed("ml.tune_s", [&] { return ml::tune_svm(train, {}, cv, rng); });
  ml::TrainStats stats;
  const ml::SvmModel model = ledger.timed(
      "ml.train_s", [&] { return ml::SvmTrainer(grid.best).train(train, &stats); });

  core::Detector detector(td.preprocessor, scaler, model);
  core::ContinualState continual;
  continual.benign_cfg = td.benign_cfg.graph;
  continual.train = train;
  continual.alpha = stats.alpha;
  detector.set_continual(std::move(continual));
  ledger.timed("core.save_detector_s",
               [&] { core::save_detector_file(detector, pos[2]); });
  ledger.set("wall_s", seconds_since(start));
  ledger.set("ml.smo_iterations", static_cast<double>(stats.iterations));
  ledger.set("ml.support_vectors", static_cast<double>(stats.support_vectors));

  if (ledger.on()) standalone_prepare_stages(benign, mixed, options, ledger);
  std::printf("{\"values\":%s}\n", ledger.json().c_str());
  return 0;
}

// --- serve: leaps-serve -----------------------------------------------------

struct ServeArgs {
  std::vector<std::string> extra_detectors;
  std::size_t sessions = 0;
  std::size_t replays = 1;
  bool online = false;
  std::string durable_dir;
};

/// Per-session window timestamps for the verdict latency: when submit()
/// returned for a window's last event, and when its verdict reached the
/// sink. Slots are written by one thread each and read after drain().
struct WindowClock {
  std::vector<std::int64_t> submitted_ns;
  std::vector<std::int64_t> verdict_ns;
};

int run_serve(const std::vector<std::string>& pos, const ServeArgs& args,
              Ledger& ledger) {
  if (pos.size() < 2) die("serve wants <detector> <log>...");
  const bool traced = ledger.on();
  const auto start = Clock::now();
  // Declared before the server: its verdict sink writes here until stop().
  std::vector<WindowClock> clocks;
  serve::DetectionServer server(serve::ServerOptions{});

  std::unique_ptr<durable::DurableStore> store;
  std::optional<durable::RecoveredState> recovered;
  if (!args.durable_dir.empty()) {
    durable::DurableOptions dopts;
    dopts.dir = args.durable_dir;
    store = std::make_unique<durable::DurableStore>(dopts);
    const util::Status opened = store->open();
    if (!opened.ok()) die("durable open: " + opened.to_string());
    util::StatusOr<durable::RecoveredState> rec = store->recover();
    if (!rec.ok()) die("durable recover: " + rec.status().to_string());
    recovered = *std::move(rec);
  }
  const auto register_file = [&](const std::string& profile,
                                 const std::string& path) {
    server.registry().add(profile, std::make_shared<const core::Detector>(
                                       load_detector(path, ledger)));
  };
  if (recovered.has_value() && recovered->detector != nullptr) {
    server.registry().add("default", recovered->detector);
  } else {
    register_file("default", pos[0]);
  }
  for (const std::string& spec : args.extra_detectors) {
    const auto eq = spec.find('=');
    if (eq == std::string::npos || eq == 0) die("bad --detector " + spec);
    register_file(spec.substr(0, eq), spec.substr(eq + 1));
  }

  std::map<std::string, std::shared_ptr<const trace::PartitionedLog>> logs;
  for (std::size_t i = 1; i < pos.size(); ++i) {
    if (logs.count(pos[i]) == 0) {
      logs[pos[i]] =
          std::make_shared<const trace::PartitionedLog>(load_log(pos[i], ledger));
    }
  }
  const std::size_t log_count = pos.size() - 1;
  const std::size_t sessions = args.sessions == 0 ? log_count : args.sessions;
  const std::size_t rounds = std::max<std::size_t>(1, args.replays);

  struct Replay {
    serve::SessionKey key;
    std::shared_ptr<const trace::PartitionedLog> log;
    std::shared_ptr<serve::Session> session;
    std::string profile;
    std::size_t window = 0;
  };
  std::vector<Replay> replays(sessions);
  clocks.resize(sessions);

  std::unique_ptr<online::OnlineManager> manager;
  if (args.online) {
    online::OnlineOptions oopts;
    oopts.profile = "default";
    oopts.durable = store.get();
    // Gates open, as leaps-serve runs with --shadow-max-disagree 1
    // --shadow-max-latency 1e9: every retrain cycle promotes.
    oopts.gates.max_disagreement = 1.0;
    oopts.gates.max_latency_ratio = 1e9;
    manager = std::make_unique<online::OnlineManager>(&server, oopts);
    manager->install();
    if (recovered.has_value()) manager->restore(*recovered);
  }
  if (traced) {
    server.set_verdict_sink([&clocks](const serve::VerdictRecord& v) {
      const std::size_t s = v.key.pid - 1000;
      if (s < clocks.size() && v.window_index < clocks[s].verdict_ns.size()) {
        clocks[s].verdict_ns[v.window_index] = now_ns();
      }
    });
  }
  server.start();

  for (std::size_t s = 0; s < sessions; ++s) {
    Replay& r = replays[s];
    r.log = logs.at(pos[1 + s % log_count]);
    r.key = serve::SessionKey{"replay-" + std::to_string(s),
                              static_cast<std::uint32_t>(1000 + s)};
    r.profile = server.registry().contains(r.log->process_name)
                    ? r.log->process_name
                    : "default";
    r.window = server.registry().find(r.profile)->preprocessor().window();
    r.session = server.open_session(r.key, r.profile);
    const std::size_t windows = rounds * r.log->events.size() / r.window;
    clocks[s].submitted_ns.assign(windows, -1);
    clocks[s].verdict_ns.assign(windows, -1);
  }

  std::vector<double> submit_s(sessions, 0.0);
  std::vector<double> producer_cpu_s(sessions, 0.0);
  std::vector<std::size_t> submitted(sessions, 0);
  double process_cpu_s = 0.0;
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto round_start = Clock::now();
    const double cpu_start = traced ? cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) : 0.0;
    std::vector<std::thread> producers;
    producers.reserve(sessions);
    for (std::size_t s = 0; s < sessions; ++s) {
      producers.emplace_back([&, s] {
        const Replay& r = replays[s];
        if (!traced) {
          for (const trace::PartitionedEvent& event : r.log->events) {
            server.submit(r.session, event);
          }
          return;
        }
        const double cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
        std::int64_t inside_ns = 0;
        std::size_t g = submitted[s];
        WindowClock& wc = clocks[s];
        for (const trace::PartitionedEvent& event : r.log->events) {
          const std::int64_t t0 = now_ns();
          server.submit(r.session, event);
          const std::int64_t t1 = now_ns();
          inside_ns += t1 - t0;
          ++g;
          if (g % r.window == 0 && g / r.window <= wc.submitted_ns.size()) {
            wc.submitted_ns[g / r.window - 1] = t1;
          }
        }
        submitted[s] = g;
        submit_s[s] += 1e-9 * static_cast<double>(inside_ns);
        producer_cpu_s[s] += cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
      });
    }
    for (std::thread& p : producers) p.join();
    ledger.clocked("serve.drain_s", [&] { server.drain(); });
    ledger.add("serve.replay_s", seconds_since(round_start));
    if (traced) {
      process_cpu_s += cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu_start;
    }
    if (manager != nullptr) {
      ledger.clocked("online.poll_s", [&] { manager->poll_once(); });
    }
  }

  std::string sessions_json;
  for (const Replay& r : replays) {
    const auto report = server.close_session(r.key);
    if (!report.has_value()) die("session vanished: " + r.key.to_string());
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s{\"events\":%zu,\"windows\":%zu,\"malicious\":%zu}",
                  sessions_json.empty() ? "" : ",", report->events_seen,
                  report->windows, report->malicious_windows);
    sessions_json += buf;
  }
  if (manager != nullptr) {
    manager->stop();
    const online::OnlineReport orep = manager->report();
    ledger.set("online.cycles", static_cast<double>(orep.retrain_cycles));
    ledger.set("online.failures", static_cast<double>(orep.retrain_failures));
    ledger.set("online.promotions", static_cast<double>(orep.promotions));
    ledger.set("online.rollbacks", static_cast<double>(orep.rollbacks));
  }
  // Support vectors of the detectors scoring at the end (after any
  // promotion), one per profile in use.
  std::map<std::string, std::size_t> svs;
  for (const Replay& r : replays) {
    svs[r.profile] =
        server.registry().find(r.profile)->model().support_vectors().size();
  }
  double sv_total = 0.0;
  for (const auto& [profile, n] : svs) sv_total += static_cast<double>(n);
  ledger.set("ml.support_vectors", sv_total);

  const serve::MetricsSnapshot m = server.metrics().snapshot();
  server.stop();
  ledger.set("wall_s", seconds_since(start));
  ledger.set("ingested", static_cast<double>(m.events_ingested));
  ledger.set("processed", static_cast<double>(m.events_processed));
  ledger.set("dropped", static_cast<double>(m.events_dropped));
  ledger.set("quarantined", static_cast<double>(m.events_quarantined));

  if (traced) {
    double events = 0.0, inside = 0.0, producer_cpu = 0.0;
    for (std::size_t s = 0; s < sessions; ++s) {
      events += static_cast<double>(submitted[s]);
      inside += submit_s[s];
      producer_cpu += producer_cpu_s[s];
    }
    const double per_event = events > 0.0 ? 1e9 / events : 0.0;
    ledger.set("serve.submit_ns_per_event", inside * per_event);
    ledger.set("serve.producer_cpu_ns_per_event", producer_cpu * per_event);
    ledger.set("serve.worker_cpu_ns_per_event",
               (process_cpu_s - producer_cpu) * per_event);

    std::vector<double> latency_us;
    for (const WindowClock& wc : clocks) {
      for (std::size_t w = 0; w < wc.verdict_ns.size(); ++w) {
        if (wc.submitted_ns[w] < 0 || wc.verdict_ns[w] < 0) continue;
        latency_us.push_back(
            1e-3 * static_cast<double>(
                       std::max<std::int64_t>(0, wc.verdict_ns[w] -
                                                     wc.submitted_ns[w])));
      }
    }
    std::sort(latency_us.begin(), latency_us.end());
    const auto rank = [&](double q) {
      return latency_us[static_cast<std::size_t>(
          q * static_cast<double>(latency_us.size() - 1))];
    };
    ledger.set("serve.verdict_latency_samples",
               static_cast<double>(latency_us.size()));
    if (!latency_us.empty()) {
      ledger.set("serve.verdict_latency_p50_us", rank(0.50));
      ledger.set("serve.verdict_latency_p99_us", rank(0.99));
    }
    const trace::TokenTable::Stats ts = trace::TokenTable::global().stats();
    ledger.set("trace.token_hits", static_cast<double>(ts.hits));
    ledger.set("trace.token_interned", static_cast<double>(ts.interned));
    ledger.set("trace.token_bytes_retained",
               static_cast<double>(ts.bytes_retained));
  }
  std::printf("{\"values\":%s,\"sessions\":[%s]}\n", ledger.json().c_str(),
              sessions_json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) die("usage: toolbench-ledger scan|train|serve ... [--trace]");
  const std::string mode = argv[1];
  bool trace_on = false;
  ServeArgs serve_args;
  std::vector<std::string> pos;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) die(a + " needs a value");
      return argv[++i];
    };
    if (a == "--trace") {
      trace_on = true;
    } else if (a == "--detector") {
      serve_args.extra_detectors.push_back(value());
    } else if (a == "--sessions") {
      serve_args.sessions = std::stoul(value());
    } else if (a == "--replays") {
      serve_args.replays = std::stoul(value());
    } else if (a == "--online") {
      serve_args.online = true;
    } else if (a == "--durable") {
      serve_args.durable_dir = value();
    } else if (a.rfind("--", 0) == 0) {
      die("unknown option " + a);
    } else {
      pos.push_back(a);
    }
  }
  util::Parallel::set_threads(0);  // as the tools: all hardware threads
  Ledger ledger(trace_on);
  try {
    if (mode == "scan") return run_scan(pos, ledger);
    if (mode == "train") return run_train(pos, ledger);
    if (mode == "serve") return run_serve(pos, serve_args, ledger);
  } catch (const std::exception& e) {
    die(e.what());
  }
  die("unknown mode " + mode);
}
