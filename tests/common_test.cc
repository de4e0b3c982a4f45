/**
 * @file
 * Unit tests for the common library: the always-on check, Status/StatusOr, RNG
 * distributions, the virtual clock, binary serialization and the
 * statistics accumulators.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "common/clock.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "common/status.h"

namespace medusa {
namespace {

// ---------------------------------------------------------- MEDUSA_CHECK

TEST(CheckDeathTest, FailingCheckAbortsWithConditionAndMessage)
{
    const int params = 16;
    EXPECT_DEATH(MEDUSA_CHECK(params <= 15,
                              "more than " << 15 << " launch params, got "
                                           << params),
                 "\\[PANIC\\] .*common_test\\.cc:[0-9]+: check failed: "
                 "params <= 15: more than 15 launch params, got 16");
}

TEST(CheckDeathTest, PassingCheckNeverFormatsItsMessage)
{
    int formatted = 0;
    for (int i = 0; i < 3; ++i) {
        MEDUSA_CHECK(i < 3, "formatted " << ++formatted);
    }
    EXPECT_EQ(formatted, 0);
}

// ---------------------------------------------------------------- Status

TEST(StatusTest, OkByDefault)
{
    Status st;
    EXPECT_TRUE(st.isOk());
    EXPECT_EQ(st.code(), StatusCode::kOk);
    EXPECT_EQ(st.toString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage)
{
    Status st = notFound("missing thing");
    EXPECT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), StatusCode::kNotFound);
    EXPECT_EQ(st.message(), "missing thing");
    EXPECT_EQ(st.toString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes)
{
    EXPECT_EQ(invalidArgument("").code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(alreadyExists("").code(), StatusCode::kAlreadyExists);
    EXPECT_EQ(outOfMemory("").code(), StatusCode::kOutOfMemory);
    EXPECT_EQ(failedPrecondition("").code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(captureViolation("").code(), StatusCode::kCaptureViolation);
    EXPECT_EQ(validationFailure("").code(),
              StatusCode::kValidationFailure);
    EXPECT_EQ(internalError("").code(), StatusCode::kInternal);
    EXPECT_EQ(unimplemented("").code(), StatusCode::kUnimplemented);
}

TEST(StatusOrTest, HoldsValue)
{
    StatusOr<int> v(42);
    ASSERT_TRUE(v.isOk());
    EXPECT_EQ(*v, 42);
    EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError)
{
    StatusOr<int> v(invalidArgument("nope"));
    EXPECT_FALSE(v.isOk());
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

StatusOr<int>
halve(int x)
{
    if (x % 2 != 0) {
        return invalidArgument("odd");
    }
    return x / 2;
}

Status
useHalve(int x, int *out)
{
    MEDUSA_ASSIGN_OR_RETURN(*out, halve(x));
    return Status::ok();
}

TEST(StatusOrTest, AssignOrReturnPropagates)
{
    int out = 0;
    EXPECT_TRUE(useHalve(8, &out).isOk());
    EXPECT_EQ(out, 4);
    EXPECT_EQ(useHalve(7, &out).code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.nextU64(), b.nextU64());
    }
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.nextU64() == b.nextU64()) {
            ++same;
        }
    }
    EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBounded(17), 17u);
    }
}

TEST(RngTest, IntInRangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const i64 v = rng.nextIntIn(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMeanApproximatesInverse)
{
    Rng rng(11);
    f64 sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        sum += rng.nextExponential(2.0);
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, LogNormalMeanMatchesFormula)
{
    Rng rng(13);
    const f64 mu = std::log(161.0) - 0.9 * 0.9 / 2.0;
    f64 sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        sum += rng.nextLogNormal(mu, 0.9);
    }
    EXPECT_NEAR(sum / n, 161.0, 8.0);
}

TEST(RngTest, ForkProducesIndependentStream)
{
    Rng a(5);
    Rng b = a.fork();
    EXPECT_NE(a.nextU64(), b.nextU64());
}

TEST(BatchRngTest, ProducesExactlyTheRngStream)
{
    // The documented contract: BatchRng(seed) is a block-buffered view
    // of Rng(seed)'s u64 stream, bit-for-bit — crossing block refills
    // (kBlock = 1024) must not perturb it.
    Rng plain(20250808);
    BatchRng batched(20250808);
    for (int i = 0; i < 5000; ++i) {
        ASSERT_EQ(batched.nextU64(), plain.nextU64()) << "draw " << i;
    }
}

TEST(BatchRngTest, DerivedDrawsMatchRng)
{
    Rng plain(42);
    BatchRng batched(42);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(batched.nextDouble(), plain.nextDouble());
    }
    Rng plain2(43);
    BatchRng batched2(43);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(batched2.nextExponential(2.0),
                  plain2.nextExponential(2.0));
        EXPECT_EQ(batched2.nextLogNormal(1.0, 0.5),
                  plain2.nextLogNormal(1.0, 0.5));
    }
}

TEST(BatchRngTest, ParetoIsHeavyTailedAndBounded)
{
    BatchRng rng(7);
    f64 max_seen = 0;
    for (int i = 0; i < 20000; ++i) {
        const f64 v = rng.nextPareto(100.0, 1.5);
        EXPECT_GE(v, 100.0); // scale is the distribution's floor
        max_seen = std::max(max_seen, v);
    }
    EXPECT_GT(max_seen, 2000.0); // the tail actually reaches far out
}

// ----------------------------------------------------------------- Clock

TEST(ClockTest, StartsAtZeroAndAdvances)
{
    SimClock clock;
    EXPECT_EQ(clock.now(), 0);
    clock.advance(units::msToNs(1.5));
    EXPECT_EQ(clock.now(), 1'500'000);
    EXPECT_DOUBLE_EQ(clock.nowSec(), 0.0015);
}

TEST(ClockTest, AdvanceToAbsolute)
{
    SimClock clock;
    clock.advanceTo(units::secToNs(2));
    EXPECT_DOUBLE_EQ(clock.nowSec(), 2.0);
    clock.reset();
    EXPECT_EQ(clock.now(), 0);
}

TEST(ClockTest, ScopedTimerAccumulates)
{
    SimClock clock;
    SimTimeNs total = 0;
    {
        ScopedTimer timer(clock, total);
        clock.advance(100);
    }
    EXPECT_EQ(total, 100);
    {
        ScopedTimer timer(clock, total);
        clock.advance(50);
        timer.stop();
        clock.advance(999); // after stop: not counted
    }
    EXPECT_EQ(total, 150);
}

// ------------------------------------------------------------- Serialize

TEST(SerializeTest, PrimitivesRoundTrip)
{
    BinaryWriter w;
    w.writeU8(7);
    w.writeU32(0xdeadbeef);
    w.writeU64(0x0123456789abcdefull);
    w.writeString("medusa");

    const std::vector<u8> bytes = w.takeBytes();
    BinaryReader r{std::span<const u8>(bytes)};
    EXPECT_EQ(*r.readU8(), 7);
    EXPECT_EQ(*r.readU32(), 0xdeadbeefu);
    EXPECT_EQ(*r.readU64(), 0x0123456789abcdefull);
    EXPECT_EQ(*r.readString(), "medusa");
    EXPECT_TRUE(r.atEnd());
}

TEST(SerializeTest, VectorRoundTrip)
{
    BinaryWriter w;
    std::vector<u32> values = {1, 2, 3, 5, 8};
    w.writeVector(values,
                  [](BinaryWriter &w2, u32 v) { w2.writeU32(v); });
    const std::vector<u8> bytes = w.takeBytes();
    BinaryReader r{std::span<const u8>(bytes)};
    auto out = r.readVector<u32>(
        sizeof(u32), [](BinaryReader &r2) { return r2.readU32(); });
    ASSERT_TRUE(out.isOk());
    EXPECT_EQ(*out, values);
}

TEST(SerializeTest, TruncationIsAnError)
{
    BinaryWriter w;
    w.writeU64(1);
    const std::vector<u8> bytes = w.takeBytes();
    BinaryReader r(std::span<const u8>(bytes).first(bytes.size() - 1));
    EXPECT_FALSE(r.readU64().isOk());
}

TEST(SerializeTest, TruncatedStringIsAnError)
{
    BinaryWriter w;
    w.writeU64(100); // claims 100 bytes follow
    const std::vector<u8> bytes = w.takeBytes();
    BinaryReader r{std::span<const u8>(bytes)};
    EXPECT_FALSE(r.readString().isOk());
}

TEST(SerializeTest, FileRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "/medusa_serialize_test.bin";
    std::vector<u8> bytes = {9, 8, 7, 6};
    ASSERT_TRUE(writeFile(path, bytes).isOk());
    auto read = readFile(path);
    ASSERT_TRUE(read.isOk());
    EXPECT_EQ(*read, bytes);
    EXPECT_FALSE(readFile(path + ".does-not-exist").isOk());
}

// ----------------------------------------------------------------- Stats

TEST(StatsTest, PercentileNearestRank)
{
    PercentileTracker t;
    for (int i = 1; i <= 100; ++i) {
        t.add(i);
    }
    EXPECT_DOUBLE_EQ(t.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(t.p50(), 50.0);
    EXPECT_DOUBLE_EQ(t.p99(), 99.0);
    EXPECT_DOUBLE_EQ(t.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(t.mean(), 50.5);
}

TEST(StatsTest, PercentileSingleSample)
{
    PercentileTracker t;
    t.add(7.5);
    EXPECT_DOUBLE_EQ(t.p50(), 7.5);
    EXPECT_DOUBLE_EQ(t.p99(), 7.5);
}

TEST(StatsTest, FormatHelpers)
{
    EXPECT_EQ(formatBytes(512), "512B");
    EXPECT_EQ(formatBytes(2048), "2.0KiB");
    EXPECT_EQ(formatBytes(7ull * units::GiB + units::GiB / 2), "7.5GiB");
    EXPECT_EQ(formatSeconds(units::secToNs(1.5)), "1.500s");
}

} // namespace
} // namespace medusa
