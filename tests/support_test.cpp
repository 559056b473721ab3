#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "sccpipe/support/check.hpp"
#include "sccpipe/support/crc.hpp"
#include "sccpipe/support/reference.hpp"
#include "sccpipe/support/rng.hpp"
#include "sccpipe/support/stats.hpp"
#include "sccpipe/support/table.hpp"
#include "sccpipe/support/time.hpp"

namespace sccpipe {
namespace {

using namespace sccpipe::literals;

// -------------------------------------------------------------------- crc32
//
// Kept first in the file: run as one binary, the concurrent first-use test
// below is then the process's first hash, so it exercises the kernel
// choice's one-time initialisation.

/// Patterned buffer the golden values were captured on (multiplicative
/// hash of the index, top byte).
std::vector<unsigned char> patterned(std::size_t n) {
  std::vector<unsigned char> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<unsigned char>(
        (static_cast<std::uint32_t>(i) * 2654435761u) >> 24);
  }
  return b;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<unsigned char> b(n);
  for (unsigned char& c : b) c = static_cast<unsigned char>(rng.below(256));
  return b;
}

/// Oracle: CRC-32 as plain polynomial division, one bit at a time, with no
/// table and no folding.
std::uint32_t bitwise_crc32(const unsigned char* p, std::size_t n,
                            std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
    }
  }
  return ~c;
}

constexpr std::uint32_t kGolden160k = 0x1F6DAC76u;
constexpr std::uint32_t kGolden640k = 0x66624333u;

TEST(Crc32, FirstUseFromEightThreadsAgrees) {
  const std::vector<unsigned char> buf = patterned(160000);
  constexpr int kThreads = 8;
  std::vector<std::uint32_t> got(kThreads, 0);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[static_cast<std::size_t>(t)] = crc32(buf.data(), buf.size());
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::uint32_t v : got) EXPECT_EQ(v, kGolden160k);
}

TEST(Crc32, MatchesTheIeeeCheckValue) {
  const char check[] = "123456789";
  EXPECT_EQ(crc32(check, std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const char data[] = "the quick brown fox jumps over the lazy dog";
  const std::size_t n = std::strlen(data);
  const std::uint32_t whole = crc32(data, n);
  // Seed chaining.
  EXPECT_EQ(crc32(data + 10, n - 10, crc32(data, 10)), whole);
  // Streaming helper.
  Crc32 acc;
  acc.update(data, 7);
  acc.update(data + 7, n - 7);
  EXPECT_EQ(acc.value(), whole);
  // Sensitivity: a single flipped byte changes the checksum.
  char mutated[sizeof(data)];
  std::memcpy(mutated, data, sizeof(data));
  mutated[3] ^= 0x01;
  EXPECT_NE(crc32(mutated, n), whole);
}

TEST(Crc32, MatchesBitwiseOracleAtEveryLengthAndAlignment) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  lengths.push_back(160000);
  lengths.push_back(640000);
  const std::vector<unsigned char> buf = random_bytes(640000 + 16, 0xc5c32u);
  std::uint32_t seed = 0;
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (const std::size_t n : lengths) {
      const unsigned char* p = buf.data() + offset;
      const std::uint32_t want = bitwise_crc32(p, n, seed);
      ASSERT_EQ(crc32(p, n, seed), want)
          << "length " << n << ", offset " << offset << ", seed " << seed;
      seed = want;  // chain: every case starts from a different register
    }
  }
}

TEST(Crc32, StreamingSplitAtEveryOffset) {
  for (const std::size_t n : {std::size_t{130}, std::size_t{300}}) {
    const std::vector<unsigned char> buf = random_bytes(n, n);
    const std::uint32_t whole = bitwise_crc32(buf.data(), n, 0);
    for (std::size_t split = 0; split <= 130; ++split) {
      Crc32 acc;
      acc.update(buf.data(), split);
      acc.update(buf.data() + split, n - split);
      ASSERT_EQ(acc.value(), whole) << "length " << n << ", split " << split;
    }
  }
}

TEST(Crc32, GoldenValuesOfStripAndFrameSizedBuffers) {
  // Captured from the byte-at-a-time loop before the folding kernel: one
  // 400x100 RGBA strip and one 400x400 RGBA frame.
  const std::vector<unsigned char> strip = patterned(160000);
  const std::vector<unsigned char> frame = patterned(640000);
  EXPECT_EQ(crc32(strip.data(), strip.size()), kGolden160k);
  EXPECT_EQ(crc32(frame.data(), frame.size()), kGolden640k);
  EXPECT_EQ(reference::crc32(strip.data(), strip.size()), kGolden160k);
  EXPECT_EQ(reference::crc32(frame.data(), frame.size()), kGolden640k);
}

// ------------------------------------------------------------------ SimTime

TEST(SimTime, ConstructorsAndConversions) {
  EXPECT_EQ(SimTime::ns(1500).to_ns(), 1500);
  EXPECT_DOUBLE_EQ(SimTime::us(2.5).to_ns(), 2500);
  EXPECT_DOUBLE_EQ(SimTime::ms(1.0).to_us(), 1000.0);
  EXPECT_DOUBLE_EQ(SimTime::sec(2.0).to_ms(), 2000.0);
  EXPECT_EQ(SimTime::zero().to_ns(), 0);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = 10_ms;
  const SimTime b = 4_ms;
  EXPECT_EQ((a + b).to_ms(), 14.0);
  EXPECT_EQ((a - b).to_ms(), 6.0);
  EXPECT_EQ((a * 2.0).to_ms(), 20.0);
  EXPECT_EQ((a / 2.0).to_ms(), 5.0);
  EXPECT_DOUBLE_EQ(a / b, 2.5);
}

TEST(SimTime, CyclesAtFrequency) {
  // 533 MHz: one cycle is ~1.876 ns.
  const SimTime t = SimTime::cycles(533e6, 533e6);
  EXPECT_DOUBLE_EQ(t.to_sec(), 1.0);
  EXPECT_NEAR(SimTime::cycles(1.0, 533e6).to_ns(), 2, 1);
}

TEST(SimTime, Ordering) {
  EXPECT_LT(1_ms, 2_ms);
  EXPECT_EQ(1000_us, 1_ms);
  EXPECT_GT(1_sec, 999_ms);
  EXPECT_EQ(max(3_ms, 5_ms), 5_ms);
  EXPECT_EQ(min(3_ms, 5_ms), 3_ms);
}

TEST(SimTime, RoundsToNearestNanosecond) {
  EXPECT_EQ(SimTime::us(0.0016).to_ns(), 2);
  EXPECT_EQ(SimTime::us(0.0014).to_ns(), 1);
}

TEST(SimTime, ToStringPicksUnit) {
  EXPECT_EQ(SimTime::ns(12).to_string(), "12 ns");
  EXPECT_NE(SimTime::ms(1.5).to_string().find("ms"), std::string::npos);
  EXPECT_NE(SimTime::sec(2.0).to_string().find("s"), std::string::npos);
}

// -------------------------------------------------------------------- Check

TEST(Check, ThrowsWithLocation) {
  EXPECT_THROW(SCCPIPE_CHECK(1 == 2), CheckError);
  try {
    SCCPIPE_CHECK_MSG(false, "value=" << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("value=42"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(SCCPIPE_CHECK(2 + 2 == 4));
}

// ---------------------------------------------------------------------- Rng

TEST(Rng, Deterministic) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(-0.1, 0.1);
    EXPECT_GE(v, -0.1);
    EXPECT_LT(v, 0.1);
  }
}

TEST(Rng, BelowAndRange) {
  Rng rng{9};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(10), 10u);
    const auto r = rng.range(-5, 5);
    EXPECT_GE(r, -5);
    EXPECT_LE(r, 5);
  }
}

TEST(Rng, UniformCoversRangeRoughly) {
  Rng rng{11};
  OnlineStats st;
  for (int i = 0; i < 20000; ++i) st.add(rng.uniform());
  EXPECT_NEAR(st.mean(), 0.5, 0.02);
  EXPECT_LT(st.min(), 0.01);
  EXPECT_GT(st.max(), 0.99);
}

TEST(Rng, ForkIndependent) {
  Rng parent{42};
  Rng child = parent.fork();
  EXPECT_NE(parent.next(), child.next());
}

// -------------------------------------------------------------------- Stats

TEST(OnlineStats, MeanVarianceMinMax) {
  OnlineStats st;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(x);
  EXPECT_EQ(st.count(), 8u);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_NEAR(st.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
  EXPECT_DOUBLE_EQ(st.sum(), 40.0);
}

TEST(OnlineStats, EmptyAndSingle) {
  OnlineStats st;
  EXPECT_EQ(st.count(), 0u);
  EXPECT_EQ(st.variance(), 0.0);
  st.add(3.0);
  EXPECT_EQ(st.mean(), 3.0);
  EXPECT_EQ(st.variance(), 0.0);
}

TEST(Quantiles, MedianAndQuartiles) {
  const QuantileSummary s = summarize({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.q1, 2.0);
  EXPECT_DOUBLE_EQ(s.q3, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
}

TEST(Quantiles, Interpolation) {
  EXPECT_DOUBLE_EQ(quantile_sorted({1.0, 2.0}, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(quantile_sorted({0.0, 10.0}, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile_sorted({5.0}, 0.9), 5.0);
}

TEST(Quantiles, EmptySummaryIsZero) {
  const QuantileSummary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.median, 0.0);
}

TEST(SampleSet, CollectsAndSummarises) {
  SampleSet set;
  for (int i = 1; i <= 9; ++i) set.add(static_cast<double>(i));
  EXPECT_EQ(set.count(), 9u);
  EXPECT_DOUBLE_EQ(set.summary().median, 5.0);
}

// -------------------------------------------------------------------- Table

TEST(TextTable, AlignsColumns) {
  TextTable t({"config", "1 pl.", "2 pl."});
  t.row().add("alpha").add(1.5, 1).add(22.0, 1);
  t.row().add("beta-long").add(100.25, 2).add(3.0, 0);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("config"), std::string::npos);
  EXPECT_NE(s.find("beta-long"), std::string::npos);
  EXPECT_NE(s.find("100.25"), std::string::npos);
  // Header rule present.
  EXPECT_NE(s.find("------"), std::string::npos);
}

TEST(TextTable, RejectsOverflowingRow) {
  TextTable t({"a", "b"});
  t.row().add("1").add("2");
  EXPECT_THROW(t.add("3"), CheckError);
}

TEST(TextTable, RejectsCellWithoutRow) {
  TextTable t({"a"});
  EXPECT_THROW(t.add("x"), CheckError);
}

TEST(Csv, RendersRows) {
  const std::string csv = to_csv({"a", "b"}, {{"1", "2"}, {"3", "4"}});
  EXPECT_EQ(csv, "a,b\n1,2\n3,4\n");
}

TEST(FormatFixed, Precision) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
}

}  // namespace
}  // namespace sccpipe
