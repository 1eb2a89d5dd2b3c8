#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/env.h"
#include "common/parallel.h"
#include "common/retry.h"
#include "core/summarize.h"
#include "datasets/synthetic.h"
#include "store/container.h"

namespace ssum {
namespace {

namespace fs = std::filesystem;

std::string MakeTestDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/ssum_env_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// PosixEnv
// ---------------------------------------------------------------------------

TEST(PosixEnvTest, WriteReadRoundTrip) {
  Env* env = Env::Default();
  const std::string path = MakeTestDir("roundtrip") + "/file.bin";
  auto out = env->NewWritableFile(path);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE((*out)->Append("hello ").ok());
  EXPECT_TRUE((*out)->Append("world").ok());
  EXPECT_TRUE((*out)->Flush().ok());
  EXPECT_TRUE((*out)->Sync().ok());
  EXPECT_TRUE((*out)->Close().ok());
  EXPECT_TRUE((*out)->Close().ok());  // idempotent

  auto bytes = env->ReadFile(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(*bytes, "hello world");

  auto exists = env->FileExists(path);
  ASSERT_TRUE(exists.ok());
  EXPECT_TRUE(*exists);
}

TEST(PosixEnvTest, MissingFileIsNotFound) {
  Env* env = Env::Default();
  const std::string dir = MakeTestDir("missing");
  EXPECT_TRUE(env->ReadFile(dir + "/nope").status().IsNotFound());
  EXPECT_TRUE(env->RemoveFile(dir + "/nope").IsNotFound());
  auto exists = env->FileExists(dir + "/nope");
  ASSERT_TRUE(exists.ok());
  EXPECT_FALSE(*exists);
}

TEST(PosixEnvTest, RenameReplacesAndSyncDirWorks) {
  Env* env = Env::Default();
  const std::string dir = MakeTestDir("rename");
  ASSERT_TRUE(AtomicWriteFile(env, dir + "/a", "aaa").ok());
  ASSERT_TRUE(AtomicWriteFile(env, dir + "/b", "bbb").ok());
  ASSERT_TRUE(env->RenameFile(dir + "/a", dir + "/b").ok());
  auto bytes = env->ReadFile(dir + "/b");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "aaa");
  EXPECT_TRUE(env->SyncDir(dir).ok());
}

// ---------------------------------------------------------------------------
// FaultInjectingEnv
// ---------------------------------------------------------------------------

TEST(FaultEnvTest, NthWriteFailsPermanently) {
  FaultInjectingEnv env(Env::Default());
  const std::string dir = MakeTestDir("nth_write");
  env.ScheduleFault({FaultOp::kWrite, 2, FaultKind::kEio, 0,
                     /*transient=*/false});

  auto out = env.NewWritableFile(dir + "/f");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE((*out)->Append("first").ok());
  Status second = (*out)->Append("second");
  EXPECT_TRUE(second.IsIoError()) << second.ToString();
  // Permanent: a dead disk keeps failing writes.
  EXPECT_TRUE((*out)->Append("third").IsIoError());
  EXPECT_EQ(env.faults_injected(), 2u);
  EXPECT_EQ(env.ops(FaultOp::kWrite), 3u);
}

TEST(FaultEnvTest, TransientFaultFiresOnce) {
  FaultInjectingEnv env(Env::Default());
  const std::string dir = MakeTestDir("transient");
  env.ScheduleFault({FaultOp::kRead, 1, FaultKind::kEio, 0,
                     /*transient=*/true});
  ASSERT_TRUE(AtomicWriteFile(&env, dir + "/f", "payload").ok());
  EXPECT_TRUE(env.ReadFile(dir + "/f").status().IsIoError());
  auto again = env.ReadFile(dir + "/f");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, "payload");
}

TEST(FaultEnvTest, TornWriteKeepsPrefix) {
  FaultInjectingEnv env(Env::Default());
  const std::string dir = MakeTestDir("torn");
  env.ScheduleFault({FaultOp::kWrite, 1, FaultKind::kTorn, 4,
                     /*transient=*/true});
  auto out = env.NewWritableFile(dir + "/f");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE((*out)->Append("0123456789").IsIoError());
  ASSERT_TRUE((*out)->Close().ok());
  auto bytes = Env::Default()->ReadFile(dir + "/f");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "0123");  // exactly torn_bytes survived
}

TEST(FaultEnvTest, EnospcCarriesDistinctMessage) {
  FaultInjectingEnv env(Env::Default());
  const std::string dir = MakeTestDir("enospc");
  env.ScheduleFault({FaultOp::kSync, 1, FaultKind::kEnospc, 0, false});
  Status st = AtomicWriteFile(&env, dir + "/f", "x");
  EXPECT_TRUE(st.IsIoError());
  EXPECT_NE(st.ToString().find("no space"), std::string::npos)
      << st.ToString();
}

TEST(FaultEnvTest, GlobalOpIndexAddressingAndHistory) {
  FaultInjectingEnv probe(Env::Default());
  const std::string dir = MakeTestDir("history");
  ASSERT_TRUE(AtomicWriteFile(&probe, dir + "/f", "abc").ok());
  // The atomic install op sequence is the documented durability barrier:
  // open, write, flush, sync, rename, syncdir.
  const std::vector<FaultOp> expect = {FaultOp::kOpen,   FaultOp::kWrite,
                                       FaultOp::kFlush,  FaultOp::kSync,
                                       FaultOp::kRename, FaultOp::kSyncDir};
  EXPECT_EQ(probe.history(), expect);
  EXPECT_EQ(probe.total_ops(), expect.size());

  // Replay, failing exactly the rename (global index 4): the target must
  // keep its old content.
  ASSERT_TRUE(AtomicWriteFile(Env::Default(), dir + "/g", "old").ok());
  FaultInjectingEnv env(Env::Default());
  env.FailAtOpIndex(4, FaultKind::kEio);
  EXPECT_FALSE(AtomicWriteFile(&env, dir + "/g", "new").ok());
  auto bytes = Env::Default()->ReadFile(dir + "/g");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "old");
}

TEST(FaultEnvTest, ScheduleGrammarParses) {
  FaultInjectingEnv env(Env::Default());
  const std::string dir = MakeTestDir("grammar");
  ASSERT_TRUE(env.LoadSchedule("write#2=torn:3~;sync#1=enospc").ok());
  auto out = env.NewWritableFile(dir + "/f");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE((*out)->Append("aa").ok());
  EXPECT_TRUE((*out)->Append("bbbbb").IsIoError());  // torn after 3 bytes
  EXPECT_TRUE((*out)->Append("cc").ok());            // '~' = transient
  EXPECT_TRUE((*out)->Sync().IsIoError());           // enospc, permanent
  EXPECT_TRUE((*out)->Sync().IsIoError());
  ASSERT_TRUE((*out)->Close().ok());
  auto bytes = Env::Default()->ReadFile(dir + "/f");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "aabbbcc");
}

TEST(FaultEnvTest, ScheduleGrammarRejectsMalformedSpecs) {
  FaultInjectingEnv env(Env::Default());
  EXPECT_FALSE(env.LoadSchedule("scribble#1=eio").ok());   // unknown op
  EXPECT_FALSE(env.LoadSchedule("write#0=eio").ok());      // nth is 1-based
  EXPECT_FALSE(env.LoadSchedule("write#1=spill").ok());    // unknown kind
  EXPECT_FALSE(env.LoadSchedule("write#1=torn").ok());     // torn needs :K
  EXPECT_FALSE(env.LoadSchedule("write#1").ok());          // missing '='
}

// ---------------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------------

TEST(RetryTest, BackoffIsDeterministicBoundedAndCapped) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 8;
  policy.max_backoff_ms = 64;
  policy.multiplier = 4.0;
  for (uint32_t attempt = 1; attempt <= 5; ++attempt) {
    const uint64_t a = BackoffDelayMs(policy, attempt);
    const uint64_t b = BackoffDelayMs(policy, attempt);
    EXPECT_EQ(a, b);  // same (seed, attempt) => same delay
    const uint64_t nominal =
        std::min<uint64_t>(policy.max_backoff_ms,
                           8 * (attempt == 1 ? 1 : attempt == 2 ? 4 : 16));
    EXPECT_LE(a, nominal);
    EXPECT_GE(a, nominal / 2);
  }
  RetryPolicy other = policy;
  other.seed = 1234;
  bool any_different = false;
  for (uint32_t attempt = 1; attempt <= 5; ++attempt) {
    any_different |=
        BackoffDelayMs(policy, attempt) != BackoffDelayMs(other, attempt);
  }
  EXPECT_TRUE(any_different);  // the seed actually feeds the jitter
}

TEST(RetryTest, TransientFaultHealsUnderRetry) {
  FaultInjectingEnv env(Env::Default());
  const std::string dir = MakeTestDir("retry_heal");
  ASSERT_TRUE(env.LoadSchedule("sync#1=eio~").ok());
  RetryPolicy policy;
  std::vector<uint64_t> delays;
  policy.sleeper = [&](uint64_t ms) { delays.push_back(ms); };
  Status st = RunWithRetry(policy, "install", [&]() {
    return AtomicWriteFile(&env, dir + "/f", "payload");
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(delays.size(), 1u);  // exactly one failed attempt
  auto bytes = Env::Default()->ReadFile(dir + "/f");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "payload");
}

TEST(RetryTest, PermanentFaultExhaustsAttempts) {
  FaultInjectingEnv env(Env::Default());
  const std::string dir = MakeTestDir("retry_exhaust");
  ASSERT_TRUE(env.LoadSchedule("sync#1=eio").ok());  // dead disk
  RetryPolicy policy;
  policy.max_attempts = 3;
  std::vector<uint64_t> delays;
  policy.sleeper = [&](uint64_t ms) { delays.push_back(ms); };
  Status st = RunWithRetry(policy, "install", [&]() {
    return AtomicWriteFile(&env, dir + "/f", "payload");
  });
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
  EXPECT_NE(st.ToString().find("after 3 attempts"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(delays.size(), 2u);  // sleeps between attempts only
}

TEST(RetryTest, NonRetriableFailureReturnsImmediately) {
  RetryPolicy policy;
  int calls = 0;
  policy.sleeper = [](uint64_t) { FAIL() << "must not sleep"; };
  Status st = RunWithRetry(policy, "op", [&]() {
    ++calls;
    return Status::DataLoss("wrong bytes");
  });
  EXPECT_TRUE(st.IsDataLoss());
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(IsRetriableIo(st));
  EXPECT_TRUE(IsRetriableIo(Status::IoError("blip")));
}

// ---------------------------------------------------------------------------
// Deadline / CancelToken
// ---------------------------------------------------------------------------

TEST(DeadlineTest, DefaultIsUnlimited) {
  Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(d.Check().ok());
}

TEST(DeadlineTest, ZeroBudgetIsAlreadyExpired) {
  Deadline d = Deadline::After(0);
  EXPECT_FALSE(d.unlimited());
  EXPECT_TRUE(d.expired());
  Status st = d.Check("unit work");
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  EXPECT_NE(st.ToString().find("unit work"), std::string::npos);
}

TEST(DeadlineTest, CancelTokenTripsCheck) {
  auto token = std::make_shared<CancelToken>();
  Deadline d = Deadline::After(1000000);  // far future
  d.AttachCancel(token);
  EXPECT_TRUE(d.Check().ok());
  token->Cancel();
  EXPECT_TRUE(d.expired());
  Status st = d.Check("walk");
  EXPECT_TRUE(st.IsDeadlineExceeded());
  EXPECT_NE(st.ToString().find("cancelled"), std::string::npos);
}

TEST(DeadlineTest, ParallelForStopsOnExpiredDeadline) {
  for (uint32_t threads : {1u, 4u}) {
    ParallelOptions options;
    options.threads = threads;
    options.deadline = Deadline::After(0);
    std::atomic<int> ran{0};
    Status st = ParallelFor(
        0, 1000, /*grain=*/10, [&](size_t) { ++ran; }, options);
    EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
    EXPECT_EQ(ran.load(), 0) << "no chunk may start on an expired budget";
  }
}

TEST(DeadlineTest, CancellationMidRunStopsRemainingChunks) {
  auto token = std::make_shared<CancelToken>();
  ParallelOptions options;
  options.threads = 1;  // serial: chunk order is the claim order
  options.deadline.AttachCancel(token);
  std::atomic<int> ran{0};
  Status st = ParallelFor(
      0, 100, /*grain=*/1,
      [&](size_t i) {
        if (i == 4) token->Cancel();
        ++ran;
      },
      options);
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  EXPECT_EQ(ran.load(), 5);  // chunks 0..4 ran, the rest were refused
}

TEST(DeadlineTest, FirstFailingChunkDeterminesStatus) {
  // The error contract: the first failing chunk *in chunk order* wins, for
  // every thread count — surfaced as a Status, never a process abort.
  for (uint32_t threads : {1u, 4u}) {
    Status st = ParallelFor(
        0, 64, /*grain=*/1,
        [&](size_t i) {
          if (i >= 7) throw std::runtime_error("chunk " + std::to_string(i));
        },
        threads);
    EXPECT_EQ(st.code(), StatusCode::kInternal);
    EXPECT_NE(st.ToString().find("chunk 7"), std::string::npos)
        << st.ToString();
  }
}

TEST(DeadlineTest, ContextBuildOverManyRowBlocksStopsOnABudget) {
  // 2000 elements are 250 lane blocks per matrix, far more work than a
  // 5 ms budget covers: Make must stop with kDeadlineExceeded at a block
  // claim instead of completing. Only the status is asserted, so the test
  // does not depend on how fast the host is.
  SyntheticSchemaParams params;
  params.elements = 2000;
  const SyntheticSchema synth = BuildSyntheticSchema(params);
  SummarizeOptions options;
  options.parallel.threads = 1;
  options.parallel.deadline = Deadline::After(5);
  auto context =
      SummarizerContext::Make(synth.graph, synth.annotations, options);
  ASSERT_FALSE(context.ok());
  EXPECT_TRUE(context.status().IsDeadlineExceeded())
      << context.status().ToString();
}

}  // namespace
}  // namespace ssum
