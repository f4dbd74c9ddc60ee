// Unit tests for the support layer: vec3, Morton keys, FLOP counters, RNG,
// aligned storage, CRC-32, and the SIMD pack abstraction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#ifdef __linux__
#include <unistd.h>
#endif

#include "simd/pack.hpp"
#include "support/aligned.hpp"
#include "support/buffer_recycler.hpp"
#include "support/crc32.hpp"
#include "support/flops.hpp"
#include "support/morton.hpp"
#include "support/rng.hpp"
#include "support/vec3.hpp"

namespace {

using octo::dvec3;
using octo::ivec3;

TEST(Vec3, Arithmetic) {
    dvec3 a{1, 2, 3}, b{4, 5, 6};
    EXPECT_EQ(a + b, (dvec3{5, 7, 9}));
    EXPECT_EQ(b - a, (dvec3{3, 3, 3}));
    EXPECT_EQ(a * 2.0, (dvec3{2, 4, 6}));
    EXPECT_EQ(2.0 * a, (dvec3{2, 4, 6}));
    EXPECT_EQ(a / 2.0, (dvec3{0.5, 1, 1.5}));
    EXPECT_EQ(-a, (dvec3{-1, -2, -3}));
}

TEST(Vec3, DotCrossNorm) {
    dvec3 a{1, 0, 0}, b{0, 1, 0};
    EXPECT_DOUBLE_EQ(dot(a, b), 0.0);
    EXPECT_EQ(cross(a, b), (dvec3{0, 0, 1}));
    EXPECT_DOUBLE_EQ(norm(dvec3{3, 4, 0}), 5.0);
    EXPECT_DOUBLE_EQ(norm2(dvec3{3, 4, 0}), 25.0);
}

TEST(Vec3, CrossAntisymmetry) {
    octo::xoshiro256 rng(7);
    for (int i = 0; i < 100; ++i) {
        dvec3 a{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
        dvec3 b{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
        EXPECT_EQ(cross(a, b), -cross(b, a));
        EXPECT_NEAR(dot(cross(a, b), a), 0.0, 1e-15);
    }
}

TEST(Vec3, Indexing) {
    dvec3 v{7, 8, 9};
    EXPECT_DOUBLE_EQ(v[0], 7);
    EXPECT_DOUBLE_EQ(v[1], 8);
    EXPECT_DOUBLE_EQ(v[2], 9);
    v[1] = 42;
    EXPECT_DOUBLE_EQ(v.y, 42);
}

TEST(Morton, RoundTripExhaustiveSmall) {
    for (std::uint32_t x = 0; x < 16; ++x)
        for (std::uint32_t y = 0; y < 16; ++y)
            for (std::uint32_t z = 0; z < 16; ++z) {
                const auto key = octo::morton_encode(x, y, z);
                const auto d = octo::morton_decode(key);
                EXPECT_EQ(d.x, x);
                EXPECT_EQ(d.y, y);
                EXPECT_EQ(d.z, z);
            }
}

TEST(Morton, RoundTripLargeCoordinates) {
    octo::xoshiro256 rng(3);
    for (int i = 0; i < 1000; ++i) {
        const auto x = static_cast<std::uint32_t>(rng.below(1u << 21));
        const auto y = static_cast<std::uint32_t>(rng.below(1u << 21));
        const auto z = static_cast<std::uint32_t>(rng.below(1u << 21));
        const auto d = octo::morton_decode(octo::morton_encode(x, y, z));
        EXPECT_EQ(d, (octo::vec3<std::uint32_t>{x, y, z}));
    }
}

TEST(Morton, IsInjectiveOnGrid) {
    std::set<std::uint64_t> keys;
    for (std::uint32_t x = 0; x < 8; ++x)
        for (std::uint32_t y = 0; y < 8; ++y)
            for (std::uint32_t z = 0; z < 8; ++z) keys.insert(octo::morton_encode(x, y, z));
    EXPECT_EQ(keys.size(), 512u);
    // Keys of an 8^3 grid fill exactly [0, 512).
    EXPECT_EQ(*keys.rbegin(), 511u);
}

TEST(Morton, PreservesOctantNesting) {
    // The top 3 bits of a depth-d Morton key identify the child octant —
    // the property the SFC partitioner relies on.
    const auto parent = octo::morton_encode(2, 3, 1);
    for (std::uint32_t cx = 0; cx < 2; ++cx)
        for (std::uint32_t cy = 0; cy < 2; ++cy)
            for (std::uint32_t cz = 0; cz < 2; ++cz) {
                const auto child = octo::morton_encode(4 + cx, 6 + cy, 2 + cz);
                EXPECT_EQ(child >> 3, parent);
            }
}

TEST(Flops, CountsPerSite) {
    octo::flop_reset();
    octo::count_flops(octo::kernel_class::fmm_multipole, octo::exec_site::cpu, 455);
    octo::count_flops(octo::kernel_class::fmm_multipole, octo::exec_site::gpu, 910);
    octo::count_launch(octo::kernel_class::fmm_multipole, octo::exec_site::cpu);
    octo::count_launch(octo::kernel_class::fmm_multipole, octo::exec_site::gpu);
    octo::count_launch(octo::kernel_class::fmm_multipole, octo::exec_site::gpu);
    const auto s = octo::flop_snapshot(octo::kernel_class::fmm_multipole);
    EXPECT_EQ(s.cpu_flops, 455u);
    EXPECT_EQ(s.gpu_flops, 910u);
    EXPECT_EQ(s.flops(), 1365u);
    EXPECT_EQ(s.cpu_launches, 1u);
    EXPECT_EQ(s.gpu_launches, 2u);
    EXPECT_NEAR(s.gpu_launch_fraction(), 2.0 / 3.0, 1e-15);
}

TEST(Flops, AggregatesAcrossThreads) {
    octo::flop_reset();
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < 1000; ++i) {
                octo::count_flops(octo::kernel_class::fmm_monopole, octo::exec_site::cpu, 12);
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(octo::flop_snapshot(octo::kernel_class::fmm_monopole).cpu_flops, 48000u);
    octo::flop_reset();
    EXPECT_EQ(octo::flop_snapshot(octo::kernel_class::fmm_monopole).cpu_flops, 0u);
}

TEST(Rng, DeterministicAndRoughlyUniform) {
    octo::xoshiro256 a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
    octo::xoshiro256 r(1);
    double mean = 0;
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        mean += u;
    }
    EXPECT_NEAR(mean / n, 0.5, 0.01);
}

TEST(Aligned, VectorIsAligned) {
    octo::aligned_vector<double> v(100, 1.0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % octo::simd_alignment, 0u);
    EXPECT_DOUBLE_EQ(v[99], 1.0);
}

// ---- buffer recycler ---------------------------------------------------------
//
// The recycler is a process-wide singleton shared with every aligned_vector,
// so the tests work on stat deltas and use distinctive request sizes that no
// other allocation in this binary produces.

TEST(BufferRecycler, SecondAllocationOfSameSizeIsAHit) {
    auto& r = octo::buffer_recycler::instance();
    constexpr std::size_t bytes = 12'347; // odd size: private bucket
    const auto s0 = r.stats();

    void* p = r.allocate(bytes, 64);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
    r.deallocate(p, bytes, 64);

    void* q = r.allocate(bytes, 64);
    EXPECT_EQ(q, p); // the parked buffer comes back
    r.deallocate(q, bytes, 64);

    const auto s1 = r.stats();
    EXPECT_EQ(s1.misses - s0.misses, 1u);
    EXPECT_EQ(s1.hits - s0.hits, 1u);
    EXPECT_EQ(s1.returns - s0.returns, 2u);
}

TEST(BufferRecycler, BucketsAreKeyedOnSizeAndAlignment) {
    auto& r = octo::buffer_recycler::instance();
    constexpr std::size_t bytes = 23'459;
    const auto s0 = r.stats();

    void* a = r.allocate(bytes, 64);
    r.deallocate(a, bytes, 64);
    // Different size and different alignment both miss the parked buffer.
    void* b = r.allocate(bytes + 8, 64);
    void* c = r.allocate(bytes, 32);
    r.deallocate(b, bytes + 8, 64);
    r.deallocate(c, bytes, 32);

    const auto s1 = r.stats();
    EXPECT_EQ(s1.hits - s0.hits, 0u);
    EXPECT_EQ(s1.misses - s0.misses, 3u);
}

TEST(BufferRecycler, ClearDropsParkedBuffers) {
    auto& r = octo::buffer_recycler::instance();
    constexpr std::size_t bytes = 34'567;
    void* p = r.allocate(bytes, 64);
    r.deallocate(p, bytes, 64);
    EXPECT_GT(r.stats().pooled_bytes, 0u);

    r.clear();
    EXPECT_EQ(r.stats().pooled_bytes, 0u);

    const auto s0 = r.stats();
    void* q = r.allocate(bytes, 64);
    r.deallocate(q, bytes, 64);
    EXPECT_EQ(r.stats().misses - s0.misses, 1u); // pool really was emptied
    r.clear();
}

TEST(BufferRecycler, ReleasePagesKeepsBuffersParked) {
    auto& r = octo::buffer_recycler::instance();
    constexpr std::size_t bytes = 45'679 * 8; // several pages of any size
    auto* p = static_cast<unsigned char*>(r.allocate(bytes, 64));
    std::fill(p, p + bytes, static_cast<unsigned char>(0xab));
    r.deallocate(p, bytes, 64);
    const auto s0 = r.stats();

    r.release_pages();
    const auto s1 = r.stats();
    EXPECT_EQ(s1.pooled_bytes, s0.pooled_bytes);
    EXPECT_EQ(s1.misses, s0.misses);

    auto* q = static_cast<unsigned char*>(r.allocate(bytes, 64));
    EXPECT_EQ(q, p); // still parked, handed out as a hit
    EXPECT_EQ(r.stats().hits - s1.hits, 1u);
#ifdef __linux__
    // The whole pages inside the buffer came back as fresh zero pages.
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const auto b = reinterpret_cast<std::uintptr_t>(q);
    const std::size_t lo = ((b + page - 1) & ~(page - 1)) - b;
    EXPECT_EQ(q[lo], 0u);
    EXPECT_EQ(q[lo + page], 0u);
#endif
    r.deallocate(q, bytes, 64);
}

TEST(BufferRecycler, AlignedVectorRoundTripsThroughPool) {
    auto& r = octo::buffer_recycler::instance();
    constexpr std::size_t n = 7'001; // distinctive element count
    { octo::aligned_vector<double> v(n, 1.0); }
    const auto s0 = r.stats();
    { octo::aligned_vector<double> v(n, 2.0); }
    const auto s1 = r.stats();
    EXPECT_EQ(s1.hits - s0.hits, 1u);
    EXPECT_EQ(s1.misses - s0.misses, 0u);
}

// ---- SIMD pack -------------------------------------------------------------

using octo::simd::dpack;

TEST(Simd, BroadcastAndLanes) {
    dpack p(3.5);
    for (std::size_t i = 0; i < dpack::size(); ++i) EXPECT_DOUBLE_EQ(p[i], 3.5);
}

TEST(Simd, LoadStoreRoundTrip) {
    alignas(64) double in[dpack::size()];
    alignas(64) double out[dpack::size()];
    for (std::size_t i = 0; i < dpack::size(); ++i) in[i] = static_cast<double>(i) + 0.25;
    dpack::load(in).store(out);
    for (std::size_t i = 0; i < dpack::size(); ++i) EXPECT_DOUBLE_EQ(out[i], in[i]);
}

TEST(Simd, Arithmetic) {
    dpack a(2.0), b(0.5);
    EXPECT_DOUBLE_EQ((a + b)[0], 2.5);
    EXPECT_DOUBLE_EQ((a - b)[1], 1.5);
    EXPECT_DOUBLE_EQ((a * b)[2], 1.0);
    EXPECT_DOUBLE_EQ((a / b)[3], 4.0);
    EXPECT_DOUBLE_EQ((-a)[0], -2.0);
}

TEST(Simd, HorizontalSum) {
    alignas(64) double in[dpack::size()];
    double expect = 0;
    for (std::size_t i = 0; i < dpack::size(); ++i) {
        in[i] = static_cast<double>(i + 1);
        expect += in[i];
    }
    EXPECT_DOUBLE_EQ(dpack::load(in).hsum(), expect);
    EXPECT_DOUBLE_EQ(octo::simd::hsum(dpack::load(in)), expect);
}

/// Inputs for the packed-sqrt checks: seeded random magnitudes plus the edge
/// cases 0, -0, the smallest subnormal, a mid subnormal, 1e300 and +inf.
std::vector<double> sqrt_inputs() {
    std::vector<double> v = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             1e-310,
                             1e300,
                             std::numeric_limits<double>::infinity()};
    octo::xoshiro256 rng(9);
    for (int i = 0; i < 250; ++i) v.push_back(std::pow(10.0, rng.uniform(-300, 300)));
    while (v.size() % 8 != 0) v.push_back(rng.uniform(0.1, 100.0));
    return v;
}

std::uint64_t bits(double d) {
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

/// simd::sqrt (or simd::rsqrt) at width W must equal the scalar function
/// bit for bit: packed IEEE sqrt and division are correctly rounded, like
/// the scalar ones.
template <std::size_t W>
void expect_packed_sqrt_bitwise(bool reciprocal) {
    using P = octo::simd::pack<double, W>;
    const auto in = sqrt_inputs();
    for (std::size_t base = 0; base < in.size(); base += W) {
        const P x = P::load(in.data() + base);
        const P r = reciprocal ? octo::simd::rsqrt(x) : octo::simd::sqrt(x);
        for (std::size_t l = 0; l < W; ++l) {
            const double a = in[base + l];
            const double want = reciprocal ? octo::simd::rsqrt(a) : std::sqrt(a);
            EXPECT_EQ(bits(r[l]), bits(want)) << "W=" << W << " x=" << a;
        }
    }
}

TEST(Simd, RsqrtMatchesScalar) {
    expect_packed_sqrt_bitwise<2>(true);
    expect_packed_sqrt_bitwise<4>(true);
    expect_packed_sqrt_bitwise<8>(true);
}

TEST(Simd, SqrtLaneWise) {
    expect_packed_sqrt_bitwise<2>(false);
    expect_packed_sqrt_bitwise<4>(false);
    expect_packed_sqrt_bitwise<8>(false);
}

TEST(Simd, MinMax) {
    dpack a(1.0), b(2.0);
    EXPECT_DOUBLE_EQ(octo::simd::max(a, b)[0], 2.0);
    EXPECT_DOUBLE_EQ(octo::simd::min(a, b)[0], 1.0);
}

// ---- CRC-32 -----------------------------------------------------------------

/// The bytewise table loop slice-by-8 replaced, kept here as the reference.
std::uint32_t crc32_bytewise(const void* data, std::size_t n,
                             std::uint32_t seed = 0) {
    std::uint32_t table[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
        }
        table[i] = c;
    }
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t c = seed ^ 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
        c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    }
    return c ^ 0xffffffffu;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
    octo::xoshiro256 rng(seed);
    std::vector<unsigned char> v(n);
    for (auto& b : v) b = static_cast<unsigned char>(rng() >> 56);
    return v;
}

TEST(Crc32, KnownAnswer) {
    const char* check = "123456789";
    EXPECT_EQ(octo::crc32(check, 9), 0xCBF43926u);
    octo::crc32_accumulator acc;
    acc.update(check, 9);
    EXPECT_EQ(acc.value(), 0xCBF43926u);
    EXPECT_EQ(octo::crc32(check, 0), 0u);
}

TEST(Crc32, SliceBy8MatchesBytewiseAtEveryLengthAndAlignment) {
    const auto buf = random_bytes(257 + 8, 11);
    for (std::size_t off = 0; off < 8; ++off) {
        for (std::size_t n = 0; n <= 257; ++n) {
            const unsigned char* p = buf.data() + off;
            ASSERT_EQ(octo::crc32(p, n), crc32_bytewise(p, n))
                << "offset " << off << " length " << n;
            // Chained seeds: continue from the CRC of a prefix.
            const std::uint32_t seed = crc32_bytewise(buf.data(), off);
            ASSERT_EQ(octo::crc32(p, n, seed), crc32_bytewise(p, n, seed))
                << "seeded, offset " << off << " length " << n;
        }
    }
}

TEST(Crc32, AccumulatorChunkingDoesNotMatter) {
    const auto buf = random_bytes(4099, 12);
    const std::uint32_t whole = crc32_bytewise(buf.data(), buf.size());
    octo::xoshiro256 rng(13);
    for (int trial = 0; trial < 50; ++trial) {
        octo::crc32_accumulator acc;
        std::size_t pos = 0;
        while (pos < buf.size()) {
            const std::size_t n = std::min<std::size_t>(
                buf.size() - pos, static_cast<std::size_t>(rng.below(97)));
            acc.update(buf.data() + pos, n);
            pos += n;
        }
        ASSERT_EQ(acc.value(), whole) << "trial " << trial;
    }
}

TEST(Crc32, CombineEqualsTheCrcOfTheConcatenation) {
    // 73 728 bytes is one checkpoint leaf image (18 fields x 8^3 doubles).
    const auto buf = random_bytes(300 + 73728, 14);
    for (const std::size_t len_a : {0u, 1u, 7u, 300u}) {
        for (const std::size_t len_b : {0u, 1u, 4u, 8u, 13u, 256u, 73728u}) {
            const unsigned char* a = buf.data();
            const unsigned char* b = buf.data() + len_a;
            const std::uint32_t crc_a = octo::crc32(a, len_a);
            const std::uint32_t crc_b = octo::crc32(b, len_b);
            const std::uint32_t joined = crc32_bytewise(a, len_a + len_b);
            ASSERT_EQ(octo::crc32_combine(crc_a, crc_b, len_b), joined)
                << "|a| " << len_a << " |b| " << len_b;
            ASSERT_EQ(octo::crc32_combine_op(crc_a, crc_b,
                                             octo::crc32_combine_gen(len_b)),
                      joined);
            octo::crc32_accumulator acc;
            acc.update(a, len_a);
            acc.combine(crc_b, octo::crc32_combine_gen(len_b));
            ASSERT_EQ(acc.value(), joined);
        }
    }
}

// The kernel-template trick from paper §5.1: the same function template must
// work for scalar and pack types.
template <class T>
T inv_distance(T dx, T dy, T dz) {
    return octo::simd::rsqrt(dx * dx + dy * dy + dz * dz);
}

TEST(Simd, SameTemplateScalarAndVector) {
    const double s = inv_distance(3.0, 4.0, 0.0);
    EXPECT_DOUBLE_EQ(s, 0.2);
    const auto v = inv_distance(dpack(3.0), dpack(4.0), dpack(0.0));
    for (std::size_t i = 0; i < dpack::size(); ++i) EXPECT_DOUBLE_EQ(v[i], 0.2);
}

} // namespace
