// Unit tests for the common substrate: status/result, bit vector, queues,
// thread pool, RNG determinism, stats, serialization, CRC-32, atomic file
// writes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/bitvector.h"
#include "common/crc32.h"
#include "common/file_io.h"
#include "common/queues.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace aiacc {
namespace {

// ---------------------------------------------------------------- Status ---

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = InvalidArgument("bad size");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "INVALID_ARGUMENT: bad size");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kDeadlineExceeded); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

// ------------------------------------------------------------- BitVector ---

TEST(BitVectorTest, SetTestClear) {
  BitVector v(130);
  EXPECT_TRUE(v.None());
  v.Set(0);
  v.Set(64);
  v.Set(129);
  EXPECT_TRUE(v.Test(0));
  EXPECT_TRUE(v.Test(64));
  EXPECT_TRUE(v.Test(129));
  EXPECT_FALSE(v.Test(1));
  EXPECT_EQ(v.Count(), 3u);
  v.Clear(64);
  EXPECT_FALSE(v.Test(64));
  EXPECT_EQ(v.Count(), 2u);
}

TEST(BitVectorTest, MinCombineIsIntersection) {
  BitVector a(10);
  BitVector b(10);
  a.Set(1); a.Set(3); a.Set(5);
  b.Set(3); b.Set(5); b.Set(7);
  a.MinCombine(b);
  EXPECT_EQ(a.SetIndices(), (std::vector<std::size_t>{3, 5}));
}

TEST(BitVectorTest, OrCombineIsUnion) {
  BitVector a(70);
  BitVector b(70);
  a.Set(1); a.Set(64);
  b.Set(1); b.Set(69);
  a.OrCombine(b);
  EXPECT_EQ(a.SetIndices(), (std::vector<std::size_t>{1, 64, 69}));
}

TEST(BitVectorTest, SetAllSetsOnlyRealBits) {
  for (std::size_t n : {1u, 63u, 64u, 65u, 130u}) {
    BitVector v(n);
    v.SetAll();
    EXPECT_TRUE(v.All()) << n;
    EXPECT_EQ(v.Count(), n);
    v.Clear(n - 1);
    EXPECT_FALSE(v.All()) << n;
  }
}

TEST(BitVectorTest, AllAndReset) {
  BitVector v(65);
  for (std::size_t i = 0; i < 65; ++i) v.Set(i);
  EXPECT_TRUE(v.All());
  v.Reset();
  EXPECT_TRUE(v.None());
  EXPECT_EQ(v.size(), 65u);
}

TEST(BitVectorTest, SetIndicesAscending) {
  BitVector v(200);
  const std::vector<std::size_t> want = {0, 63, 64, 65, 127, 128, 199};
  for (std::size_t i : want) v.Set(i);
  EXPECT_EQ(v.SetIndices(), want);
}

TEST(BitVectorTest, ToStringRendersBits) {
  BitVector v(4);
  v.Set(1);
  v.Set(3);
  EXPECT_EQ(v.ToString(), "0101");
}

// ---------------------------------------------------------------- Queues ---

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), 3);
}

TEST(BlockingQueueTest, ShutdownDrainsThenNullopt) {
  BlockingQueue<int> q;
  q.Push(7);
  q.Shutdown();
  EXPECT_EQ(q.Pop(), 7);
  EXPECT_EQ(q.Pop(), std::nullopt);
}

TEST(BlockingQueueTest, PopBlocksUntilPush) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.Push(99);
  });
  EXPECT_EQ(q.Pop(), 99);
  producer.join();
}

// ------------------------------------------------------------ ThreadPool ---

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SubmitWithResultReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.SubmitWithResult([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPoolTest, WaitIdleWithNoWorkReturns) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
}

// ------------------------------------------------------------------- RNG ---

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Normal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

// ----------------------------------------------------------------- Stats ---

TEST(StatsTest, RunningStatsBasic) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.Add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(StatsTest, GeometricMean) {
  EXPECT_DOUBLE_EQ(GeometricMean({2.0, 8.0}), 4.0);
  EXPECT_DOUBLE_EQ(GeometricMean({}), 0.0);
}

TEST(StatsTest, Percentile) {
  std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 25), 2.0);
}

TEST(StatsTest, TablePrinterAligns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"long-name", "22"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| name      | value |"), std::string::npos);
  EXPECT_NE(out.find("| long-name | 22    |"), std::string::npos);
}

TEST(StatsTest, Formatters) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatBytes(2048), "2.00 KiB");
  // 3.75 GB/s = 30 Gbps.
  EXPECT_EQ(FormatRate(30e9 / 8.0), "30.00 Gbps");
}

// ------------------------------------------------------------- Serialize ---

TEST(SerializeTest, RoundTripScalars) {
  ByteWriter w;
  w.WriteU32(7);
  w.WriteI64(-42);
  w.WriteF64(2.5);
  w.WriteString("hello");
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.ReadU32(), 7u);
  EXPECT_EQ(*r.ReadI64(), -42);
  EXPECT_EQ(*r.ReadF64(), 2.5);
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, RoundTripFloatVector) {
  ByteWriter w;
  w.WriteF32Vector({1.5f, -2.5f, 3.5f});
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.ReadF32Vector(), (std::vector<float>{1.5f, -2.5f, 3.5f}));
}

TEST(SerializeTest, TruncationReported) {
  ByteWriter w;
  w.WriteU64(1000);  // claims a long payload that is not there
  ByteReader r(w.bytes());
  auto s = r.ReadString();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kDataLoss);
}

TEST(SerializeTest, EmptyReaderReportsTruncation) {
  std::vector<std::uint8_t> empty;
  ByteReader r(empty);
  EXPECT_FALSE(r.ReadU32().ok());
}

// ----------------------------------------------------------------- CRC-32 ---

/// Bit-at-a-time reference: the definition the table-driven code must match.
std::uint32_t ReferenceCrcUpdate(std::uint32_t crc, const unsigned char* p,
                                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc;
}

std::vector<unsigned char> RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.UniformInt(0, 255));
  return bytes;
}

TEST(Crc32Test, StandardCheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(common::Crc32(check, std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(common::Crc32(nullptr, 0), 0u);
}

// Every length that exercises the 8-byte blocks and the bytewise tail, at
// every alignment of the start pointer.
TEST(Crc32Test, MatchesBytewiseReferenceAtEveryOffsetAndLength) {
  const auto bytes = RandomBytes(64 + 8, 91);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const unsigned char* p = bytes.data() + offset;
      EXPECT_EQ(common::Crc32Update(0xFFFFFFFFu, p, len),
                ReferenceCrcUpdate(0xFFFFFFFFu, p, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32Test, MatchesBytewiseReferenceOnLargeBufferAndSplits) {
  const auto bytes = RandomBytes(64 * 1024, 92);
  const std::uint32_t whole =
      common::Crc32Update(0xFFFFFFFFu, bytes.data(), bytes.size());
  EXPECT_EQ(whole, ReferenceCrcUpdate(0xFFFFFFFFu, bytes.data(), bytes.size()));
  // Chaining the raw register over pieces equals one pass over the whole.
  for (const std::size_t split : {1u, 7u, 4099u, 65535u}) {
    const std::uint32_t head =
        common::Crc32Update(0xFFFFFFFFu, bytes.data(), split);
    EXPECT_EQ(common::Crc32Update(head, bytes.data() + split,
                                  bytes.size() - split),
              whole)
        << "split " << split;
  }
}

// --------------------------------------------------------------- File I/O ---

TEST(FileIoTest, FailedRenameLeavesNoTempFile) {
  // The destination is an existing directory: the temp file opens and fills,
  // then the rename over the directory fails.
  const std::string dir = ::testing::TempDir() + "common_test_atomic_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::uint8_t bytes[] = {1, 2, 3};
  const Status st = common::WriteFileAtomic(dir, bytes);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  std::filesystem::remove(dir + ".tmp");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace aiacc
