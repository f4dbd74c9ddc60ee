#pragma once
// CRC-32 (IEEE 802.3 polynomial, reflected) used for parcel payload
// checksums (src/dist reliable delivery) and checkpoint checksums (src/io):
// every byte of a checkpoint image goes through it, so it runs at memory
// speed — slice-by-8, eight bytes per step through eight 256-entry tables.
// crc32_combine derives the CRC of a concatenation from the CRCs of its
// parts, so a checkpoint section CRC comes from the per-leaf digests
// without a second pass over the leaf bytes.

#include <array>
#include <cstddef>
#include <cstdint>

namespace octo {

namespace detail {

inline constexpr std::uint32_t crc32_poly = 0xedb88320u;

/// tables[0] is the classic bytewise table; tables[s][b] is the CRC of
/// byte b followed by s zero bytes.
inline constexpr std::array<std::array<std::uint32_t, 256>, 8> crc32_tables =
    [] {
        std::array<std::array<std::uint32_t, 256>, 8> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k) {
                c = (c & 1u) ? (crc32_poly ^ (c >> 1)) : (c >> 1);
            }
            t[0][i] = c;
        }
        for (std::size_t s = 1; s < 8; ++s) {
            for (std::uint32_t i = 0; i < 256; ++i) {
                t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xffu];
            }
        }
        return t;
    }();

/// Little-endian 32-bit word at p, on any host byte order (compilers turn
/// this into a single load on little-endian targets).
inline std::uint32_t crc32_load_le(const unsigned char* p) {
    return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
           std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

/// Advance the raw (pre-inversion) CRC state `c` over n bytes.
inline std::uint32_t crc32_step(std::uint32_t c, const unsigned char* p,
                                std::size_t n) {
    const auto& t = crc32_tables;
    for (; n >= 8; n -= 8, p += 8) {
        const std::uint32_t lo = crc32_load_le(p) ^ c;
        const std::uint32_t hi = crc32_load_le(p + 4);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
            t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
    return c;
}

/// a(x)·b(x) modulo the CRC polynomial, in the reflected bit order.
constexpr std::uint32_t crc32_multmodp(std::uint32_t a, std::uint32_t b) {
    std::uint32_t m = 1u << 31;
    std::uint32_t p = 0;
    for (;;) {
        if ((a & m) != 0) {
            p ^= b;
            if ((a & (m - 1)) == 0) break;
        }
        m >>= 1;
        b = (b & 1u) ? (b >> 1) ^ crc32_poly : b >> 1;
    }
    return p;
}

/// x^(2^k) modulo the CRC polynomial, k = 0..31.
inline constexpr std::array<std::uint32_t, 32> crc32_x2n = [] {
    std::array<std::uint32_t, 32> t{};
    std::uint32_t p = 1u << 30; // x^1
    t[0] = p;
    for (std::size_t k = 1; k < 32; ++k) t[k] = p = crc32_multmodp(p, p);
    return t;
}();

} // namespace detail

/// One-shot CRC of a buffer. `seed` chains calls: crc32(b, n, crc32(a, m))
/// equals the CRC of a||b, which is how multi-part messages (header +
/// payload) are covered by a single checksum.
inline std::uint32_t crc32(const void* data, std::size_t n,
                           std::uint32_t seed = 0) {
    return detail::crc32_step(seed ^ 0xffffffffu,
                              static_cast<const unsigned char*>(data), n) ^
           0xffffffffu;
}

/// The operator crc32_combine_op applies for a second part of `len_b`
/// bytes: x^(8·len_b) modulo the CRC polynomial. Compute it once when many
/// parts share one length.
constexpr std::uint32_t crc32_combine_gen(std::uint64_t len_b) {
    std::uint32_t p = 1u << 31; // x^0
    unsigned k = 3;             // 8·len_b = len_b·2^3
    for (; len_b != 0; len_b >>= 1, ++k) {
        if ((len_b & 1u) != 0) {
            p = detail::crc32_multmodp(detail::crc32_x2n[k & 31u], p);
        }
    }
    return p;
}

/// crc32(a||b) from crc32(a), crc32(b) and op = crc32_combine_gen(|b|).
constexpr std::uint32_t crc32_combine_op(std::uint32_t crc_a,
                                         std::uint32_t crc_b,
                                         std::uint32_t op) {
    return detail::crc32_multmodp(op, crc_a) ^ crc_b;
}

/// crc32(a||b) from crc32(a), crc32(b) and |b| (zlib's crc32_combine).
constexpr std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                                      std::uint64_t len_b) {
    return crc32_combine_op(crc_a, crc_b, crc32_combine_gen(len_b));
}

/// Incremental accumulator for streamed writes (checkpoint sections).
class crc32_accumulator {
  public:
    void update(const void* data, std::size_t n) {
        state_ = detail::crc32_step(state_,
                                    static_cast<const unsigned char*>(data), n);
    }
    /// Extend the CRC over a part known only by its CRC, as if update() had
    /// been called on its bytes; op = crc32_combine_gen(part length).
    void combine(std::uint32_t crc_part, std::uint32_t op) {
        state_ = crc32_combine_op(value(), crc_part, op) ^ 0xffffffffu;
    }
    std::uint32_t value() const { return state_ ^ 0xffffffffu; }
    void reset() { state_ = 0xffffffffu; }

  private:
    std::uint32_t state_ = 0xffffffffu;
};

} // namespace octo
