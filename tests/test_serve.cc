// Serving layer: wire codec round trips, frame IO over real loopback
// sockets, and end-to-end daemon behavior — warm-path bit identity,
// overload shedding, deadline expiry at the wire, shutdown, and
// deterministic network faults through FaultInjectingEnv.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/env.h"
#include "core/summary_io.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "store/container.h"

namespace ssum {
namespace {

std::string MakeServeDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/ssum_serve_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Wire codec

TEST(ServeWireTest, RequestRoundTrip) {
  ServeRequest request;
  request.verb = ServeVerb::kSummarize;
  request.dataset = "xmark";
  request.k = 7;
  request.algorithm = Algorithm::kBalanceSummary;
  request.mode = SummaryMode::kApprox;
  request.epsilon = 0.25;
  request.has_deadline = true;
  request.deadline_ms = 1500;
  request.stall_ms = 3;
  request.paths = {"site/people/person", "site/people/person/name"};

  auto again = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->verb, request.verb);
  EXPECT_EQ(again->dataset, request.dataset);
  EXPECT_EQ(again->k, request.k);
  EXPECT_EQ(again->algorithm, request.algorithm);
  EXPECT_EQ(again->mode, request.mode);
  EXPECT_EQ(again->epsilon, request.epsilon);
  EXPECT_TRUE(again->has_deadline);
  EXPECT_EQ(again->deadline_ms, request.deadline_ms);
  EXPECT_EQ(again->stall_ms, request.stall_ms);
  EXPECT_EQ(again->paths, request.paths);
  // Encoding is canonical: a decoded request re-encodes to the same bytes.
  EXPECT_EQ(EncodeRequest(*again), EncodeRequest(request));
}

TEST(ServeWireTest, ResponseRoundTrip) {
  ServeResponse response;
  response.status = StatusCode::kDeadlineExceeded;
  response.message = "deadline expired in queue";
  response.payload = "partial\tdata\n";

  auto again = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->status, response.status);
  EXPECT_EQ(again->message, response.message);
  EXPECT_EQ(again->payload, response.payload);
  EXPECT_FALSE(again->ok());
  EXPECT_TRUE(again->ToStatus().IsDeadlineExceeded());
  EXPECT_EQ(again->ToStatus().message(), response.message);
}

TEST(ServeWireTest, VerbNamesRoundTrip) {
  for (uint32_t v = static_cast<uint32_t>(ServeVerb::kHealth);
       v <= static_cast<uint32_t>(ServeVerb::kShutdown); ++v) {
    const ServeVerb verb = static_cast<ServeVerb>(v);
    auto parsed = ParseServeVerb(ServeVerbName(verb));
    ASSERT_TRUE(parsed.ok()) << ServeVerbName(verb);
    EXPECT_EQ(*parsed, verb);
  }
  EXPECT_TRUE(ParseServeVerb("frobnicate").status().IsInvalidArgument());
}

TEST(ServeWireTest, DecodeRejectsHostileBodies) {
  // Truncated container: the store taxonomy carries over.
  const std::string valid = EncodeRequest(ServeRequest{});
  EXPECT_TRUE(DecodeRequest(valid.substr(0, valid.size() / 2))
                  .status()
                  .IsOutOfRange());

  // A response body is not a request (and vice versa): payload kinds differ.
  const std::string response = EncodeResponse(ServeResponse{});
  EXPECT_TRUE(DecodeRequest(response).status().IsInvalidArgument());
  EXPECT_TRUE(DecodeResponse(valid).status().IsInvalidArgument());

  // Structurally perfect container, garbage verb code.
  {
    ContainerWriter writer(PayloadKind::kServeRequest);
    std::string verb_bytes(4, '\0');
    verb_bytes[0] = 99;
    writer.AddSection(kServeTagVerb, verb_bytes);
    EXPECT_TRUE(
        DecodeRequest(std::move(writer).Finish()).status().IsInvalidArgument());
  }

  // No verb at all.
  {
    ContainerWriter writer(PayloadKind::kServeRequest);
    writer.AddSection(kServeTagDataset, "xmark");
    EXPECT_TRUE(
        DecodeRequest(std::move(writer).Finish()).status().IsParseError());
  }

  // NaN epsilon must be rejected, not smuggled into the sketch config.
  {
    ServeRequest request;
    request.epsilon = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(
        DecodeRequest(EncodeRequest(request)).status().IsInvalidArgument());
  }
}

// ---------------------------------------------------------------------------
// Frame IO over a real loopback socket pair

struct LoopbackPair {
  std::unique_ptr<Listener> listener;
  std::unique_ptr<Connection> client;
  std::unique_ptr<Connection> server;
};

LoopbackPair MakeLoopbackPair() {
  LoopbackPair pair;
  auto listener = Env::Default()->NewListener("127.0.0.1:0");
  EXPECT_TRUE(listener.ok()) << listener.status().ToString();
  pair.listener = std::move(*listener);
  auto client = Env::Default()->Connect("127.0.0.1:" +
                                        std::to_string(pair.listener->port()));
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  pair.client = std::move(*client);
  auto server = pair.listener->Accept(/*timeout_ms=*/2000);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  pair.server = std::move(*server);
  return pair;
}

TEST(ServeFrameTest, RoundTripAndCleanEof) {
  LoopbackPair pair = MakeLoopbackPair();
  const std::string body = EncodeRequest(ServeRequest{});
  ASSERT_TRUE(WriteFrame(pair.client.get(), body).ok());
  auto got = ReadFrame(pair.server.get());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, body);

  // A peer closing between frames is a clean end of stream, not an error.
  ASSERT_TRUE(pair.client->Close().ok());
  EXPECT_TRUE(ReadFrame(pair.server.get()).status().IsNotFound());
}

TEST(ServeFrameTest, MidFrameCutIsOutOfRange) {
  LoopbackPair pair = MakeLoopbackPair();
  // A length prefix promising 100 bytes, then the connection dies.
  const char prefix[4] = {100, 0, 0, 0};
  ASSERT_TRUE(
      pair.client->WriteAll(std::string_view(prefix, sizeof(prefix))).ok());
  ASSERT_TRUE(pair.client->Close().ok());
  EXPECT_TRUE(ReadFrame(pair.server.get()).status().IsOutOfRange());
}

TEST(ServeFrameTest, OversizedLengthPrefixRejectedBeforeAllocation) {
  LoopbackPair pair = MakeLoopbackPair();
  const std::string huge = "\xff\xff\xff\xff";
  ASSERT_TRUE(pair.client->WriteAll(huge).ok());
  EXPECT_TRUE(ReadFrame(pair.server.get()).status().IsOutOfRange());
}

// ---------------------------------------------------------------------------
// End-to-end daemon

/// Starts a server on an ephemeral loopback port with its own cache dir.
class ServeE2ETest : public ::testing::Test {
 protected:
  void StartServer(ServeServerOptions options) {
    options.listen = "127.0.0.1:0";
    if (options.cache_dir.empty()) {
      options.cache_dir = MakeServeDir(
          ::testing::UnitTest::GetInstance()->current_test_info()->name());
    }
    server_ = std::make_unique<SummarizeServer>(std::move(options));
    ASSERT_TRUE(server_->Start().ok());
  }

  ServeClient Connect(Env* env = nullptr) {
    auto client = ServeClient::Connect(server_->address(), env);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  std::unique_ptr<SummarizeServer> server_;
};

TEST_F(ServeE2ETest, HealthSummarizeDiscoverMetrics) {
  StartServer({});
  ServeClient client = Connect();

  ServeRequest health;
  health.verb = ServeVerb::kHealth;
  auto pong = client.Call(health);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(pong->ok()) << pong->message;

  // Cold then warm summarize: byte-identical payloads, and identical to the
  // in-process reference path the bench compares against.
  ServeRequest summarize;
  summarize.verb = ServeVerb::kSummarize;
  summarize.dataset = "xmark";
  summarize.k = 3;
  auto cold = client.Call(summarize);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(cold->ok()) << cold->message;
  EXPECT_FALSE(cold->payload.empty());
  auto warm = client.Call(summarize);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(warm->ok()) << warm->message;
  EXPECT_EQ(warm->payload, cold->payload);
  ServeResponse reference = server_->Execute(summarize, Deadline::Unlimited());
  ASSERT_TRUE(reference.ok()) << reference.message;
  EXPECT_EQ(reference.payload, cold->payload);

  // Discover against the summary the server just built.
  ServeRequest discover;
  discover.verb = ServeVerb::kDiscover;
  discover.dataset = "xmark";
  discover.k = 3;
  discover.paths = {"site/people/person"};
  auto found = client.Call(discover);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  ASSERT_TRUE(found->ok()) << found->message;
  EXPECT_NE(found->payload.find("cost_without_summary"), std::string::npos);
  EXPECT_NE(found->payload.find("cost_with_summary"), std::string::npos);

  // cache-stat reflects the summarize installs above.
  ServeRequest stat;
  stat.verb = ServeVerb::kCacheStat;
  auto stats = client.Call(stat);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(stats->ok()) << stats->message;
  EXPECT_NE(stats->payload.find("installs"), std::string::npos);

  // metrics counts every request this test made so far.
  ServeRequest metrics;
  metrics.verb = ServeVerb::kMetrics;
  auto report = client.Call(metrics);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->ok()) << report->message;
  EXPECT_NE(report->payload.find("requests"), std::string::npos);

  ServeMetrics snapshot = server_->metrics();
  EXPECT_GE(snapshot.requests, 6u);
  EXPECT_GE(snapshot.ok, 6u);
  EXPECT_EQ(snapshot.unavailable, 0u);
  EXPECT_GE(snapshot.per_verb[static_cast<size_t>(ServeVerb::kSummarize)], 2u);
}

TEST_F(ServeE2ETest, ConcurrentWarmClientsGetReferenceBytes) {
  ServeServerOptions options;
  options.workers = 4;
  options.queue_depth = 64;
  StartServer(std::move(options));

  // Summarize references are the one-shot library pipeline at the server's
  // scale, serialized exactly as `ssum summarize -o` writes them.
  auto bundle =
      LoadDataset(DatasetKind::kXMark, ServeServerOptions{}.dataset_scale);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  std::vector<ServeRequest> requests;
  std::vector<std::string> references;
  for (size_t k : {5u, 10u}) {
    ServeRequest summarize;
    summarize.verb = ServeVerb::kSummarize;
    summarize.dataset = "xmark";
    summarize.k = k;
    auto summary = Summarize(bundle->schema, bundle->annotations, k);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    requests.push_back(summarize);
    references.push_back(SerializeSummary(*summary));

    ServeRequest discover = summarize;
    discover.verb = ServeVerb::kDiscover;
    discover.paths = {"site/people/person",
                      "site/open_auctions/open_auction/bidder"};
    requests.push_back(discover);
    references.emplace_back();
  }

  // Warm every key once; discover references are the server's in-process
  // answer to the same request.
  {
    ServeClient warmer = Connect();
    for (size_t i = 0; i < requests.size(); ++i) {
      auto response = warmer.Call(requests[i]);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_TRUE(response->ok()) << response->message;
      if (references[i].empty()) {
        ServeResponse reference =
            server_->Execute(requests[i], Deadline::Unlimited());
        ASSERT_TRUE(reference.ok()) << reference.message;
        references[i] = reference.payload;
      }
      EXPECT_EQ(response->payload, references[i]) << "request " << i;
    }
  }

  // Eight clients hit the warm keys at once over loopback; every payload
  // must be the reference bytes.
  constexpr int kClients = 8;
  constexpr int kRounds = 24;
  std::atomic<int> failed{0};
  std::atomic<int> mismatched{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = ServeClient::Connect(server_->address());
      if (!client.ok()) {
        failed.fetch_add(1);
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        const size_t which = static_cast<size_t>(c + round) % requests.size();
        auto response = client->Call(requests[which]);
        if (!response.ok() || !response->ok()) {
          failed.fetch_add(1);
        } else if (response->payload != references[which]) {
          mismatched.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(mismatched.load(), 0);
  EXPECT_EQ(server_->metrics().unavailable, 0u);
}

TEST_F(ServeE2ETest, UnknownDatasetIsWireErrorNotDisconnect) {
  StartServer({});
  ServeClient client = Connect();
  ServeRequest request;
  request.verb = ServeVerb::kSummarize;
  request.dataset = "no-such-dataset";
  auto response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->ToStatus().IsInvalidArgument())
      << response->ToStatus().ToString();

  // The connection survives a request-level error.
  ServeRequest health;
  health.verb = ServeVerb::kHealth;
  auto pong = client.Call(health);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(pong->ok());
}

TEST_F(ServeE2ETest, ScenarioDatasetsDisabledWithoutDirectory) {
  StartServer({});
  ServeClient client = Connect();
  ServeRequest request;
  request.verb = ServeVerb::kSummarize;
  request.dataset = "scenario:quick.scn";
  request.k = 3;
  auto response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->ToStatus().IsFailedPrecondition())
      << response->ToStatus().ToString();
}

TEST_F(ServeE2ETest, ScenarioNamesConfinedToConfiguredDirectory) {
  const std::string root = MakeServeDir("scenario_confined");
  const std::string dir = root + "/cases";
  std::filesystem::create_directories(dir);
  const char kCase[] =
      "name: serve_small\n"
      "seed: 7\n"
      "schema.elements: 40\n"
      "schema.entity_classes: 3\n"
      "instance.units: 20\n"
      "workload.queries: 5\n";
  {
    std::ofstream out(dir + "/small.scn", std::ios::trunc);
    out << kCase;
  }
  // A readable file *outside* the scenario directory, plus a symlink to it
  // from inside: both must be unreachable through "scenario:*" names.
  {
    std::ofstream out(root + "/outside.scn", std::ios::trunc);
    out << kCase;
  }
  std::filesystem::create_symlink(root + "/outside.scn", dir + "/escape.scn");

  ServeServerOptions options;
  options.scenario_dir = dir;
  StartServer(std::move(options));
  ServeClient client = Connect();

  ServeRequest request;
  request.verb = ServeVerb::kSummarize;
  request.k = 3;

  // The case file inside the directory serves; a warm repeat is identical.
  request.dataset = "scenario:small.scn";
  auto cold = client.Call(request);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(cold->ok()) << cold->message;
  EXPECT_FALSE(cold->payload.empty());
  auto warm = client.Call(request);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(warm->ok()) << warm->message;
  EXPECT_EQ(warm->payload, cold->payload);

  // Traversal, absolute paths, and symlink escapes are refused before any
  // file is opened; a missing case is a plain not-found.
  const char* hostile[] = {"scenario:sub/../small.scn", "scenario:../outside.scn",
                           "scenario:..", "scenario:/etc/passwd",
                           "scenario:escape.scn", "scenario:"};
  for (const char* name : hostile) {
    request.dataset = name;
    auto response = client.Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->ToStatus().IsInvalidArgument())
        << name << ": " << response->ToStatus().ToString();
    // Nothing about the refused file leaks into the diagnostic.
    EXPECT_EQ(response->message.find("root"), std::string::npos) << name;
  }
  request.dataset = "scenario:missing.scn";
  auto missing = client.Call(request);
  ASSERT_TRUE(missing.ok()) << missing.status().ToString();
  EXPECT_TRUE(missing->ToStatus().IsNotFound())
      << missing->ToStatus().ToString();

  // Request-level refusals leave the connection healthy.
  ServeRequest health;
  health.verb = ServeVerb::kHealth;
  auto pong = client.Call(health);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(pong->ok());
}

TEST_F(ServeE2ETest, MalformedFrameGetsDiagnosticThenClose) {
  StartServer({});
  auto conn = Env::Default()->Connect(server_->address());
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  ASSERT_TRUE(WriteFrame(conn->get(), "these bytes are not a container").ok());
  auto body = ReadFrame(conn->get());
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  auto response = DecodeResponse(*body);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->ok());
  // After the diagnostic the server closes; the next read is a clean EOF.
  EXPECT_TRUE(ReadFrame(conn->get()).status().IsNotFound());
}

TEST_F(ServeE2ETest, OverloadShedsWithUnavailable) {
  ServeServerOptions options;
  options.workers = 1;
  options.queue_depth = 0;
  StartServer(std::move(options));

  // One staller occupies the single worker deterministically.
  ServeRequest stall;
  stall.verb = ServeVerb::kHealth;
  stall.stall_ms = 600;
  ServeClient staller = Connect();
  auto stalled = std::async(std::launch::async, [&] {
    return staller.Call(stall);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // Capacity is workers + queue_depth = 1, so a probe must be shed with a
  // protocol-level kUnavailable — never a hang, never a dropped connection.
  ServeRequest probe;
  probe.verb = ServeVerb::kHealth;
  ServeClient prober = Connect();
  auto shed = prober.Call(probe);
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_TRUE(shed->ToStatus().IsUnavailable())
      << shed->ToStatus().ToString();

  auto finished = stalled.get();
  ASSERT_TRUE(finished.ok()) << finished.status().ToString();
  EXPECT_TRUE(finished->ok()) << finished->message;

  // Once the staller drains, the same connection is served again.
  auto after = prober.Call(probe);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after->ok());
  EXPECT_GE(server_->metrics().unavailable, 1u);
}

TEST_F(ServeE2ETest, ExpiredDeadlineIsWireErrorAndServerSurvives) {
  StartServer({});
  ServeClient client = Connect();

  ServeRequest doomed;
  doomed.verb = ServeVerb::kSummarize;
  doomed.dataset = "xmark";
  doomed.k = 3;
  doomed.has_deadline = true;
  doomed.deadline_ms = 0;  // already expired when decoded
  auto expired = client.Call(doomed);
  ASSERT_TRUE(expired.ok()) << expired.status().ToString();
  EXPECT_TRUE(expired->ToStatus().IsDeadlineExceeded())
      << expired->ToStatus().ToString();

  // The same request without a deadline succeeds on the same connection:
  // expiry poisons neither the connection nor the pooled contexts.
  doomed.has_deadline = false;
  auto fine = client.Call(doomed);
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
  EXPECT_TRUE(fine->ok()) << fine->message;
  EXPECT_GE(server_->metrics().deadline_expired, 1u);
}

TEST_F(ServeE2ETest, ShutdownVerbStopsTheServer) {
  StartServer({});
  ServeClient client = Connect();
  ServeRequest shutdown;
  shutdown.verb = ServeVerb::kShutdown;
  auto ack = client.Call(shutdown);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_TRUE(ack->ok());

  auto waited = std::async(std::launch::async, [&] {
    server_->WaitForShutdown();
    return true;
  });
  ASSERT_EQ(waited.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_TRUE(waited.get());
}

// ---------------------------------------------------------------------------
// Deterministic network faults

TEST_F(ServeE2ETest, ServerSurvivesTransientAcceptFault) {
  FaultInjectingEnv env(Env::Default());
  // The very first accept attempt fails with EIO (transient); the accept
  // loop logs and keeps listening.
  ASSERT_TRUE(env.LoadSchedule("accept#1=eio~").ok());
  ServeServerOptions options;
  options.env = &env;
  StartServer(std::move(options));

  ServeClient client = Connect();
  ServeRequest health;
  health.verb = ServeVerb::kHealth;
  auto pong = client.Call(health);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(pong->ok());
  EXPECT_GE(env.faults_injected(), 1u);

  // The env must outlive the server: stop (joining every server thread)
  // before `env` leaves scope, not in TearDown.
  server_->Stop();
}

TEST_F(ServeE2ETest, ClientConnectAndRecvFaultsAreStatuses) {
  StartServer({});

  FaultInjectingEnv env(Env::Default());
  ASSERT_TRUE(env.LoadSchedule("connect#1=eio~").ok());
  auto refused = ServeClient::Connect(server_->address(), &env);
  EXPECT_FALSE(refused.ok());

  // The retry connects fine; then the first recv dies under the client's
  // feet mid-call. The failure is an ordinary Status, and the server keeps
  // serving other clients.
  ASSERT_TRUE(env.LoadSchedule("recv#1=eio~").ok());
  auto flaky = ServeClient::Connect(server_->address(), &env);
  ASSERT_TRUE(flaky.ok()) << flaky.status().ToString();
  ServeRequest health;
  health.verb = ServeVerb::kHealth;
  auto dropped = flaky->Call(health);
  EXPECT_FALSE(dropped.ok());

  ServeClient healthy = Connect();
  auto pong = healthy.Call(health);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(pong->ok());
}

}  // namespace
}  // namespace ssum
