#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <set>
#include <thread>

#include "common/file_util.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace daakg {
namespace {

// ---------------------------------------------------------------------------
// Status / StatusOr
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dim");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      NotFoundError("").code(),     AlreadyExistsError("").code(),
      OutOfRangeError("").code(),   FailedPreconditionError("").code(),
      InternalError("").code(),     IoError("").code(),
      UnimplementedError("").code()};
  EXPECT_EQ(codes.size(), 7u);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = NotFoundError("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgumentError("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  DAAKG_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::Ok();
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseHalf(3, &out).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// String utilities
// ---------------------------------------------------------------------------

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(StrSplit("a\tb\tc", '\t'),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("a\t\tc", '\t'), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("x,", ','), (std::vector<std::string>{"x", ""}));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(StrTrim("  x  "), "x");
  EXPECT_EQ(StrTrim("\t\n"), "");
  EXPECT_EQ(StrTrim("no-trim"), "no-trim");
}

TEST(StringUtilTest, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StringUtilTest, EditDistanceBasics) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
}

TEST(StringUtilTest, EditDistanceSymmetry) {
  EXPECT_EQ(EditDistance("flaw", "lawn"), EditDistance("lawn", "flaw"));
}

TEST(StringUtilTest, EditSimilarityRange) {
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "xyz"), 0.0);
}

TEST(StringUtilTest, NgramJaccardIdenticalIsOne) {
  EXPECT_DOUBLE_EQ(NgramJaccard("hello", "hello"), 1.0);
}

TEST(StringUtilTest, NgramJaccardDisjointIsZero) {
  EXPECT_DOUBLE_EQ(NgramJaccard("aaaa", "bbbb"), 0.0);
}

TEST(StringUtilTest, NgramJaccardShortStrings) {
  EXPECT_DOUBLE_EQ(NgramJaccard("a", "a"), 1.0);
  EXPECT_DOUBLE_EQ(NgramJaccard("a", "b"), 0.0);
}

// Property: Jaccard is symmetric and within [0, 1].
class NgramPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(NgramPropertyTest, SymmetricAndBounded) {
  Rng rng(GetParam());
  auto random_word = [&rng]() {
    std::string s;
    size_t len = 1 + rng.NextUint64(12);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.NextUint64(6)));
    }
    return s;
  };
  for (int i = 0; i < 20; ++i) {
    std::string a = random_word();
    std::string b = random_word();
    double ab = NgramJaccard(a, b);
    double ba = NgramJaccard(b, a);
    EXPECT_DOUBLE_EQ(ab, ba);
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NgramPropertyTest, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// File utilities
// ---------------------------------------------------------------------------

TEST(FileUtilTest, WriteReadRoundTrip) {
  std::string path = ::testing::TempDir() + "/daakg_file_test.txt";
  ASSERT_TRUE(WriteStringToFile(path, "line1\nline2\n").ok());
  EXPECT_TRUE(FileExists(path));
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "line1\nline2\n");
  auto lines = ReadLines(path);
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(*lines, (std::vector<std::string>{"line1", "line2"}));
  std::remove(path.c_str());
}

TEST(FileUtilTest, ReadLinesStripsCarriageReturns) {
  std::string path = ::testing::TempDir() + "/daakg_crlf_test.txt";
  ASSERT_TRUE(WriteStringToFile(path, "a\r\nb\r\n").ok());
  auto lines = ReadLines(path);
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(*lines, (std::vector<std::string>{"a", "b"}));
  std::remove(path.c_str());
}

TEST(FileUtilTest, MissingFileIsError) {
  EXPECT_FALSE(ReadFileToString("/nonexistent/daakg/file").ok());
  EXPECT_FALSE(FileExists("/nonexistent/daakg/file"));
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextUint64() == b.NextUint64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedUniformStaysInRange) {
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(7), 7u);
  }
}

TEST(RngTest, BoundedUniformCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.NextUint64(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(12);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(RngTest, ZipfFavorsSmallIndexes) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[rng.NextZipf(10, 1.0)];
  EXPECT_GT(counts[0], counts[5]);
  EXPECT_GT(counts[0], counts[9]);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(14);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(15);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleAllReturnsEverything) {
  Rng rng(16);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(17);
  Rng b = a.Fork();
  // The fork and the parent should not emit identical sequences.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextUint64() == b.NextUint64());
  EXPECT_LT(same, 2);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversAllIndexes) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(257, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, ParallelForShardsPartitionIsContiguous) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> ranges;
  pool.ParallelForShards(100, [&](size_t, size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    ranges.emplace_back(begin, end);
  });
  std::sort(ranges.begin(), ranges.end());
  size_t expect_begin = 0;
  for (const auto& [b, e] : ranges) {
    EXPECT_EQ(b, expect_begin);
    EXPECT_LE(b, e);
    expect_begin = e;
  }
  EXPECT_EQ(expect_begin, 100u);
}

// Regression: before the per-call completion group, a ParallelFor issued
// from inside a pool task waited on the global in-flight counter, which
// never reached zero while the outer tasks themselves were still running —
// a deadlock whenever nesting exceeded the worker count.
TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  const size_t outer = 2 * pool.num_threads() + 1;
  const size_t inner = 50;
  std::atomic<size_t> total{0};
  pool.ParallelFor(outer, [&](size_t) {
    pool.ParallelFor(inner, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), outer * inner);
}

TEST(ThreadPoolTest, NestedParallelForShardsCoverAllIndexes) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(40 * 17);
  pool.ParallelForShards(40, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      pool.ParallelForShards(17, [&](size_t, size_t b2, size_t e2) {
        for (size_t j = b2; j < e2; ++j) hits[i * 17 + j].fetch_add(1);
      });
    }
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// A ParallelFor must return as soon as its own shards finish, even while
// a concurrent caller's slow shards still occupy the pool (no over-wait on
// work that is not its own).
TEST(ThreadPoolTest, ParallelForReturnsWhileUnrelatedWorkPending) {
  ThreadPool pool(2);
  std::atomic<int> slow_started{0};
  std::atomic<bool> release{false};
  std::atomic<int> slow_done{0};
  // Two shards of two indexes: one on the slow caller's thread, one on a
  // worker, each parked on its first index until the release.
  std::thread slow_caller([&] {
    pool.ParallelFor(4, [&](size_t) {
      slow_started.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      slow_done.fetch_add(1);
    });
  });
  // Both slow shards running: none is left in the queue for the fast call
  // to help-drain, and one worker is still free.
  while (slow_started.load() < 2) std::this_thread::yield();
  std::atomic<int> fast_done{0};
  pool.ParallelFor(8, [&](size_t) { fast_done.fetch_add(1); });
  // The fast call's own work is complete once it returns, while the slow
  // call's shards cannot finish before the release below.
  EXPECT_EQ(fast_done.load(), 8);
  EXPECT_EQ(slow_done.load(), 0);
  release.store(true);
  slow_caller.join();
  EXPECT_EQ(slow_done.load(), 4);
}

TEST(ThreadPoolTest, ParseThreadCountAcceptsOnlyPositiveIntegers) {
  EXPECT_EQ(ParseThreadCount("1"), 1u);
  EXPECT_EQ(ParseThreadCount("8"), 8u);
  EXPECT_EQ(ParseThreadCount("256"), kMaxPoolThreads);
  for (const char* bad : {"", "0", "-2", "+3", " 4", "4 ", "4x", "two", "257",
                          "99999999999999999999999"}) {
    EXPECT_EQ(ParseThreadCount(bad), 0u) << "'" << bad << "'";
  }
  EXPECT_EQ(ParseThreadCount(nullptr), 0u);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsNestedWorkInline) {
  ThreadPool pool(1);
  std::atomic<int> total{0};
  pool.ParallelFor(5, [&](size_t) {
    pool.ParallelFor(5, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 25);
}

}  // namespace
}  // namespace daakg
