#pragma once
// Binary checkpoint / restart. The paper's scaling methodology is built on
// restart files: "A level 13 restart file ... was used as the basis for all
// runs. For all levels the restart file for level 13 was read and refined to
// higher levels of resolution through conservative interpolation of the
// evolved variables" (§6.2). write/read here plus simulation::regrid
// reproduce exactly that workflow.
//
// Format v2 (ISSUE 5) hardens the 5400-node-run workflow against an
// imperfect machine:
//   * write-to-temp + atomic rename — a crash or transient I/O failure mid-
//     write never clobbers the previous checkpoint,
//   * bounded retry over injected/transient write failures,
//   * versioned header and per-section CRC32 (header / refined keys / leaf
//     data) — any bit flip or truncation is detected, never silently loaded,
//   * bounds-validated node keys on read — a corrupted or adversarial file
//     cannot drive the tree with garbage keys,
//   * simulation metadata (time, step count) so a restart resumes mid-run
//     bit-identically.
// v1 files (no checksums) are still readable, with the same key validation.
//
// Format v3 (ISSUE 10) adds what elastic recovery needs:
//   * full images additionally carry a per-leaf CRC32 of each leaf's field
//     image — the content digests that drive incremental dirty tracking
//     (and localize corruption to one subgrid instead of "somewhere in the
//     leaf-data section"),
//   * a companion *delta* file format: a CRC'd header, the full refined-key
//     snapshot (so regrids between base and delta are handled), and only
//     the leaves whose digest changed since the base image. Every delta is
//     bound to its base by a digest-map checksum, so a delta can never be
//     silently applied to the wrong (or a stale) base.
// v2 and v1 files are still readable; per-section CRCs are preserved.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "amr/tree.hpp"

namespace octo::rt {
class thread_pool;
}

namespace octo::io {

/// Simulation state carried alongside the tree so a restart continues
/// exactly where the writer stopped.
struct checkpoint_meta {
    double time = 0;
    long steps = 0;
};

struct checkpoint_data {
    amr::tree t;
    checkpoint_meta meta;
};

/// Per-leaf content digests: leaf key -> CRC32 of its serialized field
/// image (exactly the per-leaf CRCs a v3 full image records). This is the
/// dirty-tracking state a writer holds between a full checkpoint and its
/// deltas: a leaf whose digest changed is dirty.
using leaf_digest_map = std::map<amr::node_key, std::uint32_t>;

/// Serialize the tree structure (keys) and every leaf's interior field data
/// (format v3: checksummed sections, atomic rename into place). Retries
/// transient write failures (including injected ones — support/fault.hpp) a
/// bounded number of times before throwing; the destination file is only
/// ever replaced by a fully written, checksummed image. Returns the
/// leaf_digests(t) it computed on `pool` (the global pool when null).
leaf_digest_map write_checkpoint(const amr::tree& t, const std::string& path,
                                 checkpoint_meta meta = {},
                                 rt::thread_pool* pool = nullptr);

/// Rebuild a tree from a checkpoint. The root geometry is restored from the
/// file; field storage is allocated for every node that had data. Throws
/// octo::error on any checksum mismatch, truncation, trailing garbage or
/// out-of-bounds key (APEX counter: io.checkpoint_crc_failures).
amr::tree read_checkpoint(const std::string& path);

// ---- incremental checkpoint deltas (ISSUE 10) -------------------------------

/// Compute the digests a v3 full image of `t` would carry, in parallel on
/// the global pool.
leaf_digest_map leaf_digests(const amr::tree& t);

/// Identity of a base image: CRC32 over its sorted (key, digest) pairs.
std::uint32_t digest_map_crc(const leaf_digest_map& digests);

/// Everything the delta reader must trust before it touches the sections;
/// written CRC'd, in this member order, by the delta writer.
struct delta_header {
    double time = 0;              ///< checkpoint_meta::time at the delta
    std::int64_t steps = 0;       ///< checkpoint_meta::steps at the delta
    std::uint32_t base_crc = 0;   ///< digest_map_crc of the required base
    std::uint64_t nrefined = 0;   ///< full refined-key snapshot length
    std::uint64_t ndirty = 0;     ///< leaves whose digest changed
};

struct delta_stats {
    std::size_t dirty_leaves = 0;
    std::size_t total_leaves = 0;
    std::uint64_t bytes = 0; ///< delta file size (APEX: io.delta_checkpoint_bytes)
};

/// Write an incremental checkpoint: only leaves of `t` whose image digest
/// differs from `base` (plus the full tree structure, so regrids are
/// handled). Same durability contract as write_checkpoint: temp file,
/// bounded retry, atomic rename, per-section CRC32; one digest pass on
/// `pool` finds the dirty leaves.
delta_stats write_checkpoint_delta(const amr::tree& t, const std::string& path,
                                   const leaf_digest_map& base,
                                   checkpoint_meta meta = {},
                                   rt::thread_pool* pool = nullptr);

/// Restore from a chain: chain[0] is a full image (any readable version),
/// every later entry a delta bound to that base (later deltas supersede
/// earlier ones — each is base-relative). Throws octo::error on any CRC
/// mismatch, a delta whose base_crc does not match the loaded base, or a
/// clean leaf the base cannot supply. A one-entry chain reads one full
/// image with its simulation metadata (v1 files report zeros — they predate
/// the meta header).
checkpoint_data read_checkpoint_chain(const std::vector<std::string>& chain);

} // namespace octo::io
