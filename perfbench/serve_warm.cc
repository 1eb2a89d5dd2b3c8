// serve_warm: one op is one request in a closed loop against an in-process
// SummarizeServer on loopback. Clients (each waits for its reply) send
// `summarize` over a fixed key space of dataset x k x algorithm x mode;
// about a fifth of requests are `discover` with query paths from the
// dataset's workload. Every key is requested once before timing, so only
// the wire, the summary memo and query discovery run while timed: a wire
// change shows here, and a core change must leave it flat.

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "common/random.h"
#include "core/summary_io.h"
#include "datasets/registry.h"
#include "datasets/scenario.h"
#include "harness.h"
#include "query/discovery.h"
#include "serve/client.h"
#include "serve/server.h"

namespace perfbench {

using namespace ssum;

namespace {

constexpr double kDiscoverShare = 0.2;
constexpr double kDatasetScale = 0.05;  // ServeServerOptions default
constexpr size_t kSizes[] = {5, 10};
constexpr Algorithm kAlgorithms[] = {Algorithm::kMaxImportance,
                                     Algorithm::kMaxCoverage,
                                     Algorithm::kBalanceSummary};
constexpr SummaryMode kModes[] = {SummaryMode::kExact, SummaryMode::kApprox};
/// Discover requests summarize at this key.
constexpr size_t kDiscoverK = 10;
constexpr const char* kScenarioFile = "serve.scn";
/// Untimed load after warm-up, before timing (the first seconds of a fresh
/// server run slower).
constexpr double kSettleSeconds = 0.5;
/// Throughput and tail are medians over windows of this length: a stall of
/// the host then costs one window instead of shifting the whole run.
constexpr double kWindowSeconds = 1.0;

ScenarioSpec ServeScenario() {
  ScenarioSpec spec;
  spec.name = "serve";
  spec.seed = 7;
  spec.schema_elements = 300;
  spec.instance_units = 2000;
  spec.queries = 30;
  return spec;
}

struct Key {
  ServeRequest request;
  std::string reference;  ///< expected payload bytes
  // Discover keys only: the costs, and the time the discovery itself took
  // when the reference was built (the probe of the query layer).
  double cost_without = 0, cost_with = 0, discover_ms = 0;
};

struct KeySpace {
  std::vector<Key> summarize;
  std::vector<Key> discover;
};

/// Builds every key and its reference response in-process with the library
/// pipeline the server runs, and checks the selections against the pins.
bool BuildKeys(const std::string& scenario_path, Expected& expected,
               KeySpace* keys, Report* report) {
  const std::vector<std::string> names = {"xmark", "tpch", "mimi",
                                          std::string("scenario:") +
                                              kScenarioFile};
  for (const std::string& name : names) {
    Result<DatasetBundle> bundle =
        name == "xmark"  ? LoadDataset(DatasetKind::kXMark, kDatasetScale)
        : name == "tpch" ? LoadDataset(DatasetKind::kTpch, kDatasetScale)
        : name == "mimi" ? LoadDataset(DatasetKind::kMimi, kDatasetScale)
                         : LoadScenarioFile(scenario_path);
    if (!bundle.ok()) {
      report->Fail(name + ": " + bundle.status().ToString());
      return false;
    }
    std::optional<SchemaSummary> discover_summary;
    for (SummaryMode mode : kModes) {
      SummarizeOptions options;
      options.mode = mode;
      auto context =
          SummarizerContext::Make(bundle->schema, bundle->annotations, options);
      if (!context.ok()) return false;
      for (size_t k : kSizes) {
        for (Algorithm algorithm : kAlgorithms) {
          auto summary = Summarize(*context, k, algorithm);
          if (!summary.ok()) return false;
          const std::string pin = "serve/" + name + "/" +
                                  AlgorithmName(algorithm) + "/" +
                                  SummaryModeName(mode) + "/k=" +
                                  std::to_string(k);
          if (!expected.Check(pin, summary->abstract_elements)) {
            report->Fail(pin + ": selection differs from the pinned one");
            return false;
          }
          Key key;
          key.request.verb = ServeVerb::kSummarize;
          key.request.dataset = name;
          key.request.k = k;
          key.request.algorithm = algorithm;
          key.request.mode = mode;
          key.reference = SerializeSummary(*summary);
          keys->summarize.push_back(std::move(key));
          if (mode == SummaryMode::kExact && k == kDiscoverK &&
              algorithm == Algorithm::kBalanceSummary) {
            discover_summary = std::move(*summary);
          }
        }
      }
    }
    for (const QueryIntention& query : bundle->workload.queries) {
      Key key;
      key.request.verb = ServeVerb::kDiscover;
      key.request.dataset = name;
      key.request.k = kDiscoverK;
      key.request.algorithm = Algorithm::kBalanceSummary;
      for (ElementId e : query.elements) {
        key.request.paths.push_back(bundle->schema.PathOf(e));
      }
      // Per request the server builds the oracle and runs both discoveries.
      const auto t0 = Clock::now();
      const DiscoveryOracle oracle(bundle->schema);
      const DiscoveryResult without =
          Discover(oracle, query, TraversalStrategy::kBestFirst);
      const DiscoveryResult with =
          DiscoverWithSummary(oracle, *discover_summary, query);
      key.discover_ms = MsSince(t0);
      key.cost_without = static_cast<double>(without.cost);
      key.cost_with = static_cast<double>(with.cost);
      key.reference = "cost_without_summary\t" + std::to_string(without.cost) +
                      "\ncost_with_summary\t" + std::to_string(with.cost) +
                      "\ncomplete\t" + (with.complete ? "1" : "0") + "\n";
      keys->discover.push_back(std::move(key));
    }
  }
  return true;
}

/// True when `response` is OK and byte-identical to the key's reference.
bool Matches(const Result<ServeResponse>& response, const Key& key) {
  return response.ok() && response->ok() &&
         response->payload == key.reference;
}

/// One closed-loop phase: `kServeClients` threads, each with its own
/// connection, for `seconds` of wall time.
struct Phase {
  Samples latency_ms;
  Samples window_rate;     ///< requests per second, per full window
  Samples window_tail_ms;  ///< p90 latency, per full window
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Trace> traces;
};

Phase RunPhase(const std::string& address, const KeySpace& keys, double seconds,
               uint64_t seed, bool traced) {
  Phase phase;
  std::vector<std::vector<double>> latencies(kServeClients);
  std::vector<std::vector<double>> finished_s(kServeClients);
  std::vector<uint64_t> attempted(kServeClients, 0), failed(kServeClients, 0);
  phase.traces.assign(kServeClients, Trace(traced));
  const auto start = Clock::now();
  const auto stop_at =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kServeClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = ServeClient::Connect(address);
      if (!client.ok()) {
        ++failed[c];
        ++attempted[c];
        return;
      }
      Rng rng(seed * 7919 + c);
      Trace& trace = phase.traces[c];
      while (Clock::now() < stop_at) {
        const bool discover = rng.NextDouble() < kDiscoverShare;
        const std::vector<Key>& pool = discover ? keys.discover : keys.summarize;
        const Key& key = pool[rng.NextBounded(pool.size())];
        trace.BeginOp(attempted[c]);
        const auto t0 = Clock::now();
        auto response =
            trace.Span(discover ? "serve:call.discover" : "serve:call.summarize",
                       [&] { return client->Call(key.request); });
        latencies[c].push_back(MsSince(t0));
        finished_s[c].push_back(
            std::chrono::duration<double>(Clock::now() - start).count());
        ++attempted[c];
        if (!Matches(response, key)) ++failed[c];
      }
      (void)client->Close();
    });
  }
  for (std::thread& t : threads) t.join();
  const size_t windows = static_cast<size_t>(seconds / kWindowSeconds);
  std::vector<Samples> per_window(windows);
  for (uint32_t c = 0; c < kServeClients; ++c) {
    for (size_t i = 0; i < latencies[c].size(); ++i) {
      phase.latency_ms.Add(latencies[c][i]);
      const size_t w = static_cast<size_t>(finished_s[c][i] / kWindowSeconds);
      if (w < windows) per_window[w].Add(latencies[c][i]);
    }
    phase.attempted += attempted[c];
    phase.failed += failed[c];
  }
  for (const Samples& window : per_window) {
    phase.window_rate.Add(static_cast<double>(window.size()) / kWindowSeconds);
    phase.window_tail_ms.Add(window.Percentile(kTailPercentile));
  }
  return phase;
}

/// Counter `name` from the cache-stat verb's "name\tvalue" lines.
uint64_t StatCounter(const std::string& text, const std::string& name) {
  const size_t at = text.find(name + "\t");
  return at == std::string::npos
             ? 0
             : std::stoull(text.substr(at + name.size() + 1));
}

}  // namespace

bool RunServeWarm(const Args& args, Report* report) {
  Expected expected(args.expected_dir + "/serve.txt", args.pin);
  if (!expected.Load()) {
    report->Fail("cannot read " + args.expected_dir + "/serve.txt");
    return false;
  }
  const std::string scenario_dir = args.work_dir + "/scenarios";
  std::filesystem::create_directories(scenario_dir);
  {
    std::ofstream out(scenario_dir + "/" + kScenarioFile);
    out << SerializeScenarioSpec(ServeScenario());
  }
  KeySpace keys;
  if (!BuildKeys(scenario_dir + "/" + kScenarioFile, expected, &keys, report)) {
    return false;
  }
  if (args.pin) return expected.Write();

  // Set-up: start the daemon on a fresh cache and request every key once,
  // three times; the last server is the one timed.
  CountingEnv env;
  std::unique_ptr<SummarizeServer> server;
  const std::string cache_dir = args.work_dir + "/serve-cache";
  for (int rep = 0; rep < 3; ++rep) {
    server.reset();
    std::filesystem::remove_all(cache_dir);
    const auto t0 = Clock::now();
    ServeServerOptions options;
    options.cache_dir = cache_dir;
    options.workers = kServeWorkers;
    options.queue_depth = 8;
    options.max_connections = 8;
    options.scenario_dir = scenario_dir;
    options.env = &env;
    server = std::make_unique<SummarizeServer>(std::move(options));
    if (Status s = server->Start(); !s.ok()) {
      report->Fail("server start: " + s.ToString());
      return false;
    }
    auto client = ServeClient::Connect(server->address());
    if (!client.ok()) return false;
    for (const std::vector<Key>* pool : {&keys.summarize, &keys.discover}) {
      for (const Key& key : *pool) {
        if (!Matches(client->Call(key.request), key)) {
          report->Fail(key.request.dataset +
                       ": warm-up response differs from the reference");
          return false;
        }
      }
    }
    (void)client->Close();
    report->AddSetup(t0);
  }
  report->Note("regime.summarize_keys",
               static_cast<double>(keys.summarize.size()));
  report->Note("regime.discover_keys",
               static_cast<double>(keys.discover.size()));
  report->Note("regime.loop", "closed");

  auto cache_stat = [&] {
    ServeRequest request;
    request.verb = ServeVerb::kCacheStat;
    return server->Execute(request, Deadline::Unlimited()).payload;
  };
  (void)RunPhase(server->address(), keys, kSettleSeconds, args.seed + 1,
                 false);
  report->peak_rss_mb = PeakRssMb();
  const std::string stat_before = cache_stat();
  const CountingEnv::Counters io_before = env.counters();

  auto account = [&](const Phase& phase) {
    report->attempted += phase.attempted;
    report->failed += phase.failed;
    if (phase.failed > 0) report->Fail("a timed response differed or failed");
  };
  Trace trace(args.trace);
  Phase traced;
  if (!args.trace) {
    Phase phase = RunPhase(server->address(), keys, args.seconds, args.seed,
                           false);
    account(phase);
    report->op_ms = phase.latency_ms;
    report->op_tail_ms = phase.window_tail_ms.Median();
    report->throughput_per_s = phase.window_rate.Median();
  } else {
    Phase untraced = RunPhase(server->address(), keys, args.seconds / 2,
                              args.seed, false);
    traced = RunPhase(server->address(), keys, args.seconds / 2,
                      args.seed + 2, true);
    account(untraced);
    account(traced);
    report->layer["trace_overhead"] =
        traced.latency_ms.Median() / untraced.latency_ms.Median() - 1.0;
  }

  // Warm means no summary (hence no context or matrix) was computed and
  // installed while timed.
  const CountingEnv::Counters io_after = env.counters();
  const std::string stat_after = cache_stat();
  const uint64_t timed_installs = StatCounter(stat_after, "installs") -
                                  StatCounter(stat_before, "installs");
  report->Note("regime.memo_warm", timed_installs == 0 ? "yes" : "no");
  if (timed_installs != 0) {
    report->Fail("the timed phase computed summaries: warm-up incomplete");
    ++report->failed;
  }
  if (!args.trace) {
    report->Note("requests_per_s", report->throughput_per_s);
    report->Note("request_p50_ms", report->op_ms.Median());
    report->Note("request_tail_ms", report->op_ms.Percentile(99));
    return true;
  }

  const double requests = static_cast<double>(traced.attempted);
  for (const Trace& t : traced.traces) trace.Merge(t);
  AddSpanLayers(trace, requests, report);
  auto& layer = report->layer;
  CacheCounters counters;
  counters.hits = StatCounter(stat_after, "hits") - StatCounter(stat_before, "hits");
  counters.misses =
      StatCounter(stat_after, "misses") - StatCounter(stat_before, "misses");
  counters.installs = timed_installs;
  CountingEnv::Counters io = io_after;
  io.load_ms -= io_before.load_ms;
  io.store_ms -= io_before.store_ms;
  io.bytes_read -= io_before.bytes_read;
  io.bytes_written -= io_before.bytes_written;
  AddCacheLayers(counters, io, requests, report);

  // Round trips per verb from the spans; Execute probed once per key on
  // the same server, outside the timed phase.
  double rtt_total_us = 0, execute_total_us = 0;
  const auto spans = trace.Aggregate();
  auto probe = [&](const std::vector<Key>& pool, const char* verb) {
    double execute_us = 0;
    for (const Key& key : pool) {
      const auto t0 = Clock::now();
      (void)server->Execute(key.request, Deadline::Unlimited());
      execute_us += MsSince(t0) * 1000.0;
    }
    execute_us /= static_cast<double>(pool.size());
    auto it = spans.find(std::string("serve:call.") + verb);
    const double calls = it == spans.end() ? 0 : static_cast<double>(it->second.calls);
    const double rtt_us = calls == 0 ? 0 : it->second.total_ms * 1000.0 / calls;
    layer[std::string("serve.rtt_us.") + verb] = rtt_us;
    layer[std::string("serve.execute_us.") + verb] = execute_us;
    rtt_total_us += rtt_us * calls;
    execute_total_us += execute_us * calls;
  };
  probe(keys.summarize, "summarize");
  probe(keys.discover, "discover");
  layer["serve.wire_us"] = (rtt_total_us - execute_total_us) / requests;
  layer["trace.accounted_ratio"] = execute_total_us / rtt_total_us;
  const ServeMetrics metrics = server->metrics();
  layer["serve.server_p50_us"] = static_cast<double>(metrics.p50_us);
  layer["serve.server_p99_us"] = static_cast<double>(metrics.p99_us);
  layer["serve.keepalive_ratio"] =
      static_cast<double>(metrics.keepalive_reused) /
      static_cast<double>(metrics.requests);
  layer["serve.unavailable"] = static_cast<double>(metrics.unavailable);

  double discover_ms = 0, without = 0, with = 0;
  for (const Key& key : keys.discover) {
    discover_ms += key.discover_ms;
    without += key.cost_without;
    with += key.cost_with;
  }
  const double discover_keys = static_cast<double>(keys.discover.size());
  layer["discover.ms"] = discover_ms / discover_keys;
  layer["discover.cost_without_summary"] = without / discover_keys;
  layer["discover.cost_with_summary"] = with / discover_keys;
  return true;
}

}  // namespace perfbench
