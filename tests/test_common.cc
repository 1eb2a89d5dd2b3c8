#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/hash.h"
#include "common/logging.h"
#include "common/parse_limits.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/status_builder.h"
#include "common/string_util.h"

namespace ssum {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, WithContextPrefixes) {
  Status s = Status::NotFound("x").WithContext("loading file");
  EXPECT_EQ(s.ToString(), "NotFound: loading file: x");
  EXPECT_TRUE(Status::OK().WithContext("ignored").ok());
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

Result<int> Half(int x) {
  if (x % 2) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  int h;
  SSUM_ASSIGN_OR_RETURN(h, Half(x));
  SSUM_ASSIGN_OR_RETURN(h, Half(h));
  return h;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(SplitString("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(TrimWhitespace("  x \t\n"), "x");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace("abc"), "abc");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringUtilTest, ParseInt64) {
  EXPECT_EQ(*ParseInt64("123"), 123);
  EXPECT_EQ(*ParseInt64(" -7 "), -7);
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("999999999999999999999999").ok());
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("1.5"), 1.5);
  EXPECT_FALSE(ParseDouble("1.5.2").ok());
}

TEST(StringUtilTest, Formatting) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(FormatWithCommas(-1000), "-1,000");
  EXPECT_EQ(FormatWithCommas(12), "12");
  EXPECT_EQ(AsciiToLower("AbC-9"), "abc-9");
}

TEST(RngTest, Deterministic) {
  Rng a(1), b(1), c(2);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

// Known answers: the first draws of every primitive the dataset generators
// use. Generated instances, and every digest and pin derived from them,
// depend on these exact values.
TEST(RngTest, KnownAnswerDraws) {
  Rng rng(42);
  EXPECT_EQ(rng.Next(), 1546998764402558742u);
  EXPECT_EQ(rng.Next(), 6990951692964543102u);
  EXPECT_EQ(rng.NextDouble(), 0x1.5c2ea66473c93p-1);
  EXPECT_FALSE(rng.NextBool(0.5));
  EXPECT_FALSE(rng.NextBool(0.95));
  EXPECT_EQ(rng.NextPoisson(2.0), 6u);
  EXPECT_EQ(rng.NextPoisson(2.0), 4u);
  EXPECT_EQ(rng.NextPoisson(50.0), 49u);
  EXPECT_EQ(rng.NextPoisson(50.0), 55u);
  Rng child = rng.Fork(7);
  EXPECT_EQ(child.Next(), 18428897338498010158u);
  EXPECT_EQ(rng.Next(), 8046402334248741309u);
  Rng defaulted;
  EXPECT_EQ(defaulted.Next(), 6138619454429799919u);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(10), 10u);
    int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, PoissonMeanRoughlyRight) {
  Rng rng(4);
  for (double mean : {0.5, 3.0, 50.0}) {
    double total = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) total += static_cast<double>(rng.NextPoisson(mean));
    EXPECT_NEAR(total / n, mean, mean * 0.1 + 0.05);
  }
  EXPECT_EQ(rng.NextPoisson(0.0), 0u);
  EXPECT_EQ(rng.NextPoisson(-1.0), 0u);
}

TEST(RngTest, WeightedSampling) {
  Rng rng(5);
  std::vector<double> w{0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextWeighted(w), 1u);
  std::vector<double> zero{0.0, 0.0};
  EXPECT_EQ(rng.NextWeighted(zero), zero.size());
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(6);
  std::vector<int> v{1, 2, 3, 4, 5};
  rng.Shuffle(&v);
  std::multiset<int> s(v.begin(), v.end());
  EXPECT_EQ(s, (std::multiset<int>{1, 2, 3, 4, 5}));
}

TEST(RngTest, ForkIndependence) {
  Rng parent(7);
  Rng child1 = parent.Fork(1);
  Rng child2 = parent.Fork(2);
  EXPECT_NE(child1.Next(), child2.Next());
}

TEST(ZipfTest, SkewsTowardZero) {
  Rng rng(8);
  ZipfTable zipf(100, 1.2);
  size_t low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(&rng) < 10) ++low;
  }
  EXPECT_GT(low, static_cast<size_t>(n / 2));  // top 10% gets most mass
}

TEST(StatusBuilderTest, RendersSourceLineAndOffset) {
  Status s = StatusBuilder(StatusCode::kParseError)
                 .Source("file.xml")
                 .Line(12)
                 .ByteOffset(3456)
             << "unterminated entity '&" << "amp" << "'";
  EXPECT_TRUE(s.IsParseError());
  EXPECT_EQ(s.message(), "unterminated entity '&amp' (file.xml:12, byte 3456)");
}

TEST(StatusBuilderTest, OmitsUnsetFields) {
  Status no_location = StatusBuilder(StatusCode::kInvalidArgument) << "plain";
  EXPECT_EQ(no_location.message(), "plain");
  Status line_only = ParseErrorAt(3, 17) << "bad record";
  EXPECT_EQ(line_only.message(), "bad record (line 3, byte 17)");
}

TEST(StatusBuilderTest, ConvertsToResult) {
  Result<int> r = ParseErrorAt(1, 0) << "nope";
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

TEST(ParseLimitsTest, InputSizeCheck) {
  ParseLimits limits;
  limits.max_input_bytes = 100;
  EXPECT_TRUE(CheckInputSize(100, limits, "doc").ok());
  Status st = CheckInputSize(101, limits, "doc");
  EXPECT_TRUE(st.IsOutOfRange());
  EXPECT_NE(st.message().find("doc"), std::string::npos) << st.ToString();
  EXPECT_TRUE(CheckInputSize(1ull << 40, ParseLimits::Unbounded(), "x").ok());
}

TEST(LoggingTest, LevelGate) {
  LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SSUM_LOG(kInfo) << "suppressed";
  SetLogLevel(old);
}


// Bitwise CRC32C, one bit per step: the reference the table-driven
// implementation must agree with at every length and alignment.
uint32_t BitwiseCrc32c(const unsigned char* p, size_t n, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
    }
  }
  return ~crc;
}

TEST(Crc32cTest, KnownAnswers) {
  EXPECT_EQ(Crc32c(std::string_view("123456789")), 0xE3069283u);
  EXPECT_EQ(Crc32c(std::string_view()), 0u);
  // RFC 3720 (iSCSI) appendix B.4.
  std::string bytes(32, '\0');
  EXPECT_EQ(Crc32c(bytes), 0x8A9136AAu);
  bytes.assign(32, '\xff');
  EXPECT_EQ(Crc32c(bytes), 0x62A8AB43u);
  for (int i = 0; i < 32; ++i) bytes[i] = static_cast<char>(i);
  EXPECT_EQ(Crc32c(bytes), 0x46DD794Eu);
  for (int i = 0; i < 32; ++i) bytes[i] = static_cast<char>(31 - i);
  EXPECT_EQ(Crc32c(bytes), 0x113FDB5Cu);
}

TEST(Crc32cTest, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  std::string buffer(8 + 100, '\0');
  uint32_t x = 0x9E3779B9u;
  for (char& c : buffer) {
    x = x * 1664525u + 1013904223u;
    c = static_cast<char>(x >> 24);
  }
  const auto* base = reinterpret_cast<const unsigned char*>(buffer.data());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 100; ++len) {
      EXPECT_EQ(Crc32c(base + offset, len),
                BitwiseCrc32c(base + offset, len, 0))
          << "offset " << offset << " length " << len;
      EXPECT_EQ(Crc32c(base + offset, len, 0xDEADBEEFu),
                BitwiseCrc32c(base + offset, len, 0xDEADBEEFu))
          << "seeded, offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32cTest, ChainedSeedEqualsOneShot) {
  std::string bytes(1000, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(i * 7 + 3);
  }
  const uint32_t whole = Crc32c(bytes);
  for (size_t split : {0, 1, 7, 8, 9, 500, 993, 1000}) {
    const std::string_view v(bytes);
    EXPECT_EQ(Crc32c(v.substr(split), Crc32c(v.substr(0, split))), whole)
        << "split at " << split;
  }
}

}  // namespace
}  // namespace ssum
