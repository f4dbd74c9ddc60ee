#include "io/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "runtime/apex.hpp"
#include "runtime/thread_pool.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"

namespace octo::io {

using namespace octo::amr;

namespace {

constexpr std::uint64_t magic_v1 = 0x4f43544f53494d31ULL; // "OCTOSIM1"
constexpr std::uint64_t magic_v2 = 0x4f43544f53494d32ULL; // "OCTOSIM2"
constexpr std::uint64_t magic_v3 = 0x4f43544f53494d33ULL; // "OCTOSIM3"
constexpr std::uint64_t magic_dlt = 0x4f43544f444c5433ULL; // "OCTODLT3"
constexpr std::uint32_t version_v2 = 2;
constexpr std::uint32_t version_v3 = 3;
/// 64-bit Morton keys hold at most 21 levels; anything deeper is garbage.
constexpr int max_key_level = 20;
/// Transient write failures (real or injected) are retried this many times.
constexpr int max_write_attempts = 5;

constexpr std::size_t row_bytes = std::size_t{INX} * sizeof(double);
constexpr std::size_t image_bytes =
    std::size_t{n_fields} * INX3 * sizeof(double);
/// Extends a section CRC past one leaf image known by its digest.
constexpr std::uint32_t image_crc_shift = crc32_combine_gen(image_bytes);
/// The writers' stream buffer: records reach the file in writes this size.
constexpr std::size_t staging_bytes = std::size_t{1} << 20;

[[noreturn]] void crc_failure(const std::string& what) {
    rt::apex_count("io.checkpoint_crc_failures");
    throw error("checkpoint: " + what);
}

// ---- leaf images -------------------------------------------------------------
// A leaf's serialized image is its interior, field by field, in (i, j, k)
// order with k fastest: n_fields * INX * INX rows of INX contiguous doubles.

/// Calls fn(f, offset) for each interior row, in image order; the row is
/// INX doubles starting at field_data(f) + offset.
template <class F>
void for_each_row(F&& fn) {
    for (int f = 0; f < n_fields; ++f)
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                fn(f, subgrid::interior_index(i, j, 0));
}

/// CRC32 of one leaf's image, read in place — the per-leaf digest a v3
/// full image records and the delta writer diffs against.
// lint: allow(serialization-coverage): digests the archived fields only; geom is rebuilt from the node key at read time, never serialized
std::uint32_t leaf_image_crc(const subgrid& g) {
    crc32_accumulator crc;
    for_each_row(
        [&](int f, int r) { crc.update(g.field_data(f) + r, row_bytes); });
    return crc.value();
}

void put_image(std::ofstream& out, const subgrid& g) {
    for_each_row([&](int f, int r) {
        out.write(reinterpret_cast<const char*>(g.field_data(f) + r),
                  row_bytes);
    });
}

void unpack_image(const unsigned char* src, subgrid& g) {
    for_each_row([&](int f, int r) {
        std::memcpy(g.field_data(f) + r, src, row_bytes);
        src += row_bytes;
    });
}

/// Refined keys (children are implied) and the leaves that carry data, in
/// the level order both writers serialize them in.
struct tree_layout {
    std::vector<node_key> refined;
    std::vector<node_key> leaves;
};

tree_layout layout_of(const tree& t) {
    tree_layout l;
    for (const auto& level : t.levels()) {
        for (const node_key k : level) {
            if (t.node(k).refined) {
                l.refined.push_back(k);
            } else if (t.node(k).fields != nullptr) {
                l.leaves.push_back(k);
            }
        }
    }
    return l;
}

/// The digests of `leaves`, in order: one pass over each leaf's rows, in
/// chunks on the pool. Each digest depends only on its own leaf, so the
/// result is the same for any pool size.
std::vector<std::uint32_t> digest_leaves(const tree& t,
                                         const std::vector<node_key>& leaves,
                                         rt::thread_pool* pool) {
    rt::thread_pool& p = pool != nullptr ? *pool : rt::thread_pool::global();
    std::vector<std::uint32_t> digests(leaves.size());
    rt::for_chunks(p, leaves.size(), [&t, &leaves, &digests](std::size_t lo, std::size_t hi) {
        for (std::size_t n = lo; n < hi; ++n) {
            digests[n] = leaf_image_crc(*t.node(leaves[n]).fields);
        }
    });
    return digests;
}

leaf_digest_map digest_map(const std::vector<node_key>& leaves,
                           const std::vector<std::uint32_t>& digests) {
    leaf_digest_map m;
    for (std::size_t n = 0; n < leaves.size(); ++n) {
        m.emplace(leaves[n], digests[n]);
    }
    return m;
}

// ---- raw stream helpers ------------------------------------------------------

template <class T>
void put(std::ofstream& out, const T& v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <class T>
void put_crc(std::ofstream& out, crc32_accumulator& crc, const T& v) {
    crc.update(&v, sizeof(T));
    put(out, v);
}

template <class T>
T get(std::ifstream& in) {
    T v{};
    in.read(reinterpret_cast<char*>(&v), sizeof(T));
    if (!in) throw error("checkpoint: truncated file");
    return v;
}

template <class T>
T get_crc(std::ifstream& in, crc32_accumulator& crc) {
    T v = get<T>(in);
    crc.update(&v, sizeof(T));
    return v;
}

/// Reads one leaf image into `buf` and returns its digest.
std::uint32_t get_image(std::ifstream& in, std::vector<unsigned char>& buf) {
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(image_bytes));
    if (!in) throw error("checkpoint: truncated file");
    return crc32(buf.data(), image_bytes);
}

// ---- key validation ----------------------------------------------------------
// A corrupted or adversarial file must not drive the tree (refine /
// ensure_fields OCTO_ASSERT on misuse and would abort the process): reject
// malformed keys with a clear error instead.

bool key_shape_ok(node_key k) {
    if (k == invalid_key) return false;
    const int significant = 64 - std::countl_zero(k); // 1 + 3*level
    if ((significant - 1) % 3 != 0) return false;
    return (significant - 1) / 3 <= max_key_level;
}

void validate_refined_key(const tree& t, node_key k) {
    if (!key_shape_ok(k)) {
        throw error("checkpoint: malformed refined node key");
    }
    // Keys were written level-by-level, so a valid file always names an
    // existing (parent-created) node, exactly once.
    if (!t.contains(k)) {
        throw error("checkpoint: refined key outside the tree");
    }
    if (t.node(k).refined) {
        throw error("checkpoint: duplicate refined key");
    }
}

void validate_data_key(const tree& t, node_key k) {
    if (!key_shape_ok(k)) {
        throw error("checkpoint: malformed leaf node key");
    }
    if (!t.contains(k)) {
        throw error("checkpoint: leaf data key outside the tree");
    }
    if (t.node(k).refined) {
        throw error("checkpoint: leaf data key names a refined node");
    }
}

// ---- section readers ---------------------------------------------------------
// Shared by full images and deltas; `what` prefixes the CRC failure.

void get_refined(std::ifstream& in, tree& t, std::uint64_t n,
                 const std::string& what) {
    crc32_accumulator crc;
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto k = get_crc<node_key>(in, crc);
        validate_refined_key(t, k);
        t.refine(k);
    }
    if (get<std::uint32_t>(in) != crc.value()) {
        crc_failure(what + "refined-keys section checksum mismatch");
    }
}

/// The leaf-data section, the file's last: each image is CRC'd once, and
/// the section CRC is extended past it by combine. v3 and delta records
/// end with the image digest, verified per leaf. A repeated data key is
/// rejected. Returns the digests.
leaf_digest_map get_records(std::ifstream& in, tree& t, std::uint64_t n,
                            bool with_digest, const std::string& what) {
    leaf_digest_map digests;
    crc32_accumulator crc;
    std::vector<unsigned char> buf(image_bytes);
    for (std::uint64_t d = 0; d < n; ++d) {
        const auto k = get_crc<node_key>(in, crc);
        validate_data_key(t, k);
        const std::uint32_t digest = get_image(in, buf);
        crc.combine(digest, image_crc_shift);
        if (with_digest && get_crc<std::uint32_t>(in, crc) != digest) {
            crc_failure(what + "leaf image digest mismatch");
        }
        // A writer emits each leaf once; a repeated key would let the later
        // record silently overwrite the earlier one.
        if (!digests.emplace(k, digest).second) {
            throw error("checkpoint: duplicate leaf data key");
        }
        unpack_image(buf.data(), t.ensure_fields(k));
    }
    if (get<std::uint32_t>(in) != crc.value()) {
        crc_failure(what + "leaf-data section checksum mismatch");
    }
    // Nothing may follow the last checksum: appended bytes mean the file is
    // not the image the writer produced.
    if (in.peek() != std::ifstream::traits_type::eof()) {
        throw error("checkpoint: trailing bytes after final checksum");
    }
    return digests;
}

// ---- write -----------------------------------------------------------------

/// One write attempt of a full image or a delta: magic, version, a CRC'd
/// header (`put_header`), the refined keys (children are implied) and the
/// leaf records, each section ending with its CRC32. Returns the file size.
template <class PutHeader>
std::uint64_t write_file(const std::string& path, std::uint64_t magic,
                         PutHeader&& put_header, const tree& t,
                         const tree_layout& l,
                         const std::vector<std::uint32_t>& digests) {
    auto* inj = support::io_faults();
    // The stream fills this buffer row by row and writes it out in large
    // blocks: no whole image is ever held in memory.
    std::vector<char> staging(staging_bytes);
    std::ofstream out;
    out.rdbuf()->pubsetbuf(staging.data(),
                           static_cast<std::streamsize>(staging.size()));
    out.open(path, std::ios::binary | std::ios::trunc);
    if (!out) throw error("cannot open " + path);
    if (inj != nullptr && inj->io_fail()) {
        throw error("checkpoint: transient I/O failure (injected) opening " +
                    path);
    }
    put(out, magic);
    put(out, version_v3);
    crc32_accumulator crc;
    put_header(out, crc);
    put(out, crc.value());

    crc.reset();
    for (const node_key k : l.refined) put_crc(out, crc, k);
    put(out, crc.value());

    // Leaf records: key, image, and the CRC32 of the image — the content
    // digest dirty tracking diffs against, and a way to localize corruption
    // to one subgrid. The images were read once, by the digest pass; the
    // section CRC is extended past each one by combine.
    crc.reset();
    for (std::size_t n = 0; n < l.leaves.size(); ++n) {
        put_crc(out, crc, l.leaves[n]);
        put_image(out, *t.node(l.leaves[n]).fields);
        crc.combine(digests[n], image_crc_shift);
        put_crc(out, crc, digests[n]);
    }
    put(out, crc.value());

    if (inj != nullptr && inj->io_fail()) {
        throw error("checkpoint: transient I/O failure (injected) writing " +
                    path);
    }
    out.flush();
    if (!out) throw error("checkpoint: write failed for " + path);
    return static_cast<std::uint64_t>(out.tellp());
}

/// Write-to-temp + atomic rename: the destination either keeps its old
/// content or atomically becomes the complete new image — never a torn
/// half-written file. Transient failures retry with a fresh temp file.
template <class WriteAttempt>
void write_atomically(const std::string& path, WriteAttempt&& write) {
    const std::string tmp = path + ".tmp";
    for (int attempt = 1;; ++attempt) {
        try {
            write(tmp);
            break;
        } catch (const error&) {
            std::remove(tmp.c_str());
            rt::apex_count("io.transient_write_faults");
            if (attempt >= max_write_attempts) throw;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw error("checkpoint: atomic rename to " + path + " failed");
    }
}

// ---- read --------------------------------------------------------------------

/// A restored full image and the verified digests of its leaves.
struct restored_image {
    checkpoint_data data;
    leaf_digest_map digests;
};

// v1 legacy read: no checksums, same key validation.
restored_image read_v1_body(std::ifstream& in) {
    box_geometry root;
    root.origin.x = get<double>(in);
    root.origin.y = get<double>(in);
    root.origin.z = get<double>(in);
    root.dx = get<double>(in);
    tree t(root);

    const auto nrefined = get<std::uint64_t>(in);
    for (std::uint64_t i = 0; i < nrefined; ++i) {
        const auto k = get<node_key>(in);
        validate_refined_key(t, k);
        t.refine(k);
    }
    const auto ndata = get<std::uint64_t>(in);
    leaf_digest_map digests;
    std::vector<unsigned char> buf(image_bytes);
    for (std::uint64_t d = 0; d < ndata; ++d) {
        const auto k = get<node_key>(in);
        validate_data_key(t, k);
        digests[k] = get_image(in, buf);
        unpack_image(buf.data(), t.ensure_fields(k));
    }
    return {{std::move(t), {}}, std::move(digests)};
}

// v2 / v3: identical section layout; v3 leaf records additionally end with
// the leaf's own image digest, verified per leaf.
restored_image read_v23_body(std::ifstream& in, std::uint64_t file_size,
                             std::uint32_t expected_version) {
    const auto version = get<std::uint32_t>(in);
    if (version != expected_version) {
        throw error("checkpoint: unsupported format version " +
                    std::to_string(version));
    }
    const bool v3 = version == version_v3;

    // Header section.
    crc32_accumulator crc;
    box_geometry root;
    checkpoint_meta meta;
    root.origin.x = get_crc<double>(in, crc);
    root.origin.y = get_crc<double>(in, crc);
    root.origin.z = get_crc<double>(in, crc);
    root.dx = get_crc<double>(in, crc);
    meta.time = get_crc<double>(in, crc);
    meta.steps = static_cast<long>(get_crc<std::int64_t>(in, crc));
    const auto nrefined = get_crc<std::uint64_t>(in, crc);
    const auto ndata = get_crc<std::uint64_t>(in, crc);
    if (get<std::uint32_t>(in) != crc.value()) {
        crc_failure("header checksum mismatch");
    }

    // The header CRC vouches for the counts; still bound them by what the
    // file could physically hold before allocating anything.
    const std::uint64_t record_bytes = 8 + image_bytes + (v3 ? 4 : 0);
    if (nrefined > file_size / sizeof(node_key) ||
        ndata > file_size / record_bytes) {
        throw error("checkpoint: section counts exceed file size");
    }

    tree t(root);
    get_refined(in, t, nrefined, "");
    leaf_digest_map digests = get_records(in, t, ndata, v3, "");
    return {{std::move(t), meta}, std::move(digests)};
}

restored_image read_any(const std::string& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) throw error("cannot open " + path);
    const auto file_size = static_cast<std::uint64_t>(in.tellg());
    in.seekg(0);
    const auto magic = get<std::uint64_t>(in);
    if (magic == magic_v3) return read_v23_body(in, file_size, version_v3);
    if (magic == magic_v2) return read_v23_body(in, file_size, version_v2);
    if (magic == magic_v1) return read_v1_body(in);
    if (magic == magic_dlt) {
        throw error("checkpoint: delta file given where a full image is "
                    "expected (use read_checkpoint_chain)");
    }
    throw error("checkpoint: bad magic");
}

// ---- delta read / apply ------------------------------------------------------

delta_header get_delta_header(std::ifstream& in, crc32_accumulator& crc) {
    delta_header h;
    h.time = get_crc<double>(in, crc);
    h.steps = get_crc<std::int64_t>(in, crc);
    h.base_crc = get_crc<std::uint32_t>(in, crc);
    h.nrefined = get_crc<std::uint64_t>(in, crc);
    h.ndirty = get_crc<std::uint64_t>(in, crc);
    return h;
}

checkpoint_data apply_delta(const checkpoint_data& base,
                            const leaf_digest_map& base_digests,
                            const std::string& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) throw error("cannot open " + path);
    const auto file_size = static_cast<std::uint64_t>(in.tellg());
    in.seekg(0);
    if (get<std::uint64_t>(in) != magic_dlt) {
        throw error("checkpoint: not a delta file: " + path);
    }
    if (get<std::uint32_t>(in) != version_v3) {
        throw error("checkpoint: unsupported delta version");
    }

    crc32_accumulator crc;
    const delta_header h = get_delta_header(in, crc);
    if (get<std::uint32_t>(in) != crc.value()) {
        crc_failure("delta header checksum mismatch");
    }
    if (h.base_crc != digest_map_crc(base_digests)) {
        crc_failure("delta does not match the loaded base image");
    }
    const std::uint64_t record_bytes = 8 + image_bytes + 4;
    if (h.nrefined > file_size / sizeof(node_key) ||
        h.ndirty > file_size / record_bytes) {
        throw error("checkpoint: delta section counts exceed file size");
    }

    tree t(base.t.root_geometry());
    get_refined(in, t, h.nrefined, "delta ");
    // Dirty records go straight into the rebuilt tree's leaves: `t` is
    // local, so any rejection drops it with them.
    get_records(in, t, h.ndirty, true, "delta ");

    // Clean leaves (no data yet) come from the base.
    for (const node_key k : t.leaves_sfc()) {
        if (t.node(k).fields != nullptr) continue; // dirty: from the delta
        if (!base.t.contains(k) || base.t.node(k).refined) {
            throw error("checkpoint: delta marks leaf clean but the base "
                        "image cannot supply it");
        }
        if (base.t.node(k).fields == nullptr) continue; // data-less leaf
        const auto& src = *base.t.node(k).fields;
        auto& dst = t.ensure_fields(k);
        for_each_row([&](int f, int r) {
            std::memcpy(dst.field_data(f) + r, src.field_data(f) + r,
                        row_bytes);
        });
    }
    // The delta's own CRC'd header supersedes base.meta.
    checkpoint_meta meta;
    meta.time = h.time;
    meta.steps = static_cast<long>(h.steps);
    return {std::move(t), meta};
}

} // namespace

leaf_digest_map write_checkpoint(const tree& t, const std::string& path,
                                 checkpoint_meta meta, rt::thread_pool* pool) {
    const tree_layout l = layout_of(t);
    const std::vector<std::uint32_t> digests = digest_leaves(t, l.leaves, pool);
    // Header section: geometry + simulation meta + section counts, CRC'd so
    // a flipped count can never send the reader off the rails.
    const auto put_header = [&](std::ofstream& out, crc32_accumulator& crc) {
        const auto& root = t.root_geometry();
        put_crc(out, crc, root.origin.x);
        put_crc(out, crc, root.origin.y);
        put_crc(out, crc, root.origin.z);
        put_crc(out, crc, root.dx);
        put_crc(out, crc, meta.time);
        put_crc(out, crc, static_cast<std::int64_t>(meta.steps));
        put_crc(out, crc, static_cast<std::uint64_t>(l.refined.size()));
        put_crc(out, crc, static_cast<std::uint64_t>(l.leaves.size()));
    };
    write_atomically(path, [&](const std::string& tmp) {
        write_file(tmp, magic_v3, put_header, t, l, digests);
    });
    return digest_map(l.leaves, digests);
}

tree read_checkpoint(const std::string& path) {
    return std::move(read_any(path).data.t);
}

leaf_digest_map leaf_digests(const tree& t) {
    const std::vector<node_key> leaves = layout_of(t).leaves;
    return digest_map(leaves, digest_leaves(t, leaves, nullptr));
}

std::uint32_t digest_map_crc(const leaf_digest_map& digests) {
    crc32_accumulator crc;
    for (const auto& [k, d] : digests) {
        crc.update(&k, sizeof(k));
        crc.update(&d, sizeof(d));
    }
    return crc.value();
}

delta_stats write_checkpoint_delta(const tree& t, const std::string& path,
                                   const leaf_digest_map& base,
                                   checkpoint_meta meta, rt::thread_pool* pool) {
    // Full structure snapshot (regrids between base and delta are handled by
    // rebuilding the tree from scratch) + only the leaves whose content
    // digest moved away from the base image, in the full image's record
    // layout, so one reader path handles both.
    const tree_layout l = layout_of(t);
    const std::vector<std::uint32_t> digests = digest_leaves(t, l.leaves, pool);
    tree_layout dirty{l.refined, {}};
    std::vector<std::uint32_t> dirty_digests;
    for (std::size_t n = 0; n < l.leaves.size(); ++n) {
        const auto it = base.find(l.leaves[n]);
        if (it == base.end() || it->second != digests[n]) {
            dirty.leaves.push_back(l.leaves[n]);
            dirty_digests.push_back(digests[n]);
        }
    }
    const delta_header h{.time = meta.time,
                         .steps = static_cast<std::int64_t>(meta.steps),
                         .base_crc = digest_map_crc(base),
                         .nrefined = dirty.refined.size(),
                         .ndirty = dirty.leaves.size()};
    const auto put_header = [&](std::ofstream& out, crc32_accumulator& crc) {
        put_crc(out, crc, h.time);
        put_crc(out, crc, h.steps);
        put_crc(out, crc, h.base_crc);
        put_crc(out, crc, h.nrefined);
        put_crc(out, crc, h.ndirty);
    };
    delta_stats stats{.dirty_leaves = dirty.leaves.size(),
                      .total_leaves = l.leaves.size()};
    write_atomically(path, [&](const std::string& tmp) {
        stats.bytes =
            write_file(tmp, magic_dlt, put_header, t, dirty, dirty_digests);
    });
    rt::apex_count("io.delta_checkpoint_bytes", stats.bytes);
    return stats;
}

checkpoint_data read_checkpoint_chain(const std::vector<std::string>& chain) {
    if (chain.empty()) throw error("checkpoint: empty restore chain");
    restored_image base = read_any(chain.front());
    if (chain.size() == 1) return std::move(base.data);
    // Deltas are base-relative: each one is validated, the last one wins.
    // The base reader verified its digests; they identify it to the deltas.
    checkpoint_data out = apply_delta(base.data, base.digests, chain[1]);
    for (std::size_t i = 2; i < chain.size(); ++i) {
        out = apply_delta(base.data, base.digests, chain[i]);
    }
    return out;
}

} // namespace octo::io
