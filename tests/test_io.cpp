// Tests for the I/O layer: CSV writers, nearest-cell sampling and the
// checkpoint/restart round trip (the paper's level-13-restart workflow).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "amr/tree.hpp"
#include "io/checkpoint.hpp"
#include "io/writers.hpp"
#include "runtime/apex.hpp"
#include "runtime/thread_pool.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

namespace {

using namespace octo;
using namespace octo::amr;

box_geometry unit_root() {
    box_geometry g;
    g.origin = {0, 0, 0};
    g.dx = 1.0 / INX;
    return g;
}

tree make_test_tree() {
    tree t(unit_root());
    t.refine(root_key);
    t.refine(key_child(root_key, 3));
    t.balance21();
    xoshiro256 rng(99);
    for (const auto k : t.leaves_sfc()) {
        auto& g = t.ensure_fields(k);
        for (int f = 0; f < n_fields; ++f)
            for (int i = 0; i < INX; ++i)
                for (int j = 0; j < INX; ++j)
                    for (int kk = 0; kk < INX; ++kk) {
                        g.interior(f, i, j, kk) = rng.uniform(0.0, 2.0);
                    }
    }
    return t;
}

TEST(Sample, NearestCellLookup) {
    tree t(unit_root());
    auto& g = t.ensure_fields(root_key);
    g.interior(f_rho, 0, 0, 0) = 7.0;
    g.interior(f_rho, 7, 7, 7) = 9.0;
    EXPECT_DOUBLE_EQ(io::sample(t, f_rho, {0.01, 0.01, 0.01}), 7.0);
    EXPECT_DOUBLE_EQ(io::sample(t, f_rho, {0.99, 0.99, 0.99}), 9.0);
    // Outside the domain: 0.
    EXPECT_DOUBLE_EQ(io::sample(t, f_rho, {-1.0, 0.5, 0.5}), 0.0);
}

TEST(Sample, DescendsIntoRefinedRegions) {
    tree t = make_test_tree();
    // A point inside child 3's region must read the level-2 leaf value.
    const node_key fine = key_child(key_child(root_key, 3), 0);
    const auto& g = *t.node(fine).fields;
    const dvec3 p = g.geom.cell_center(2, 2, 2);
    EXPECT_DOUBLE_EQ(io::sample(t, f_rho, p), g.interior(f_rho, 2, 2, 2));
}

TEST(CsvWriters, ProduceWellFormedFiles) {
    tree t = make_test_tree();
    const std::string cells = "/tmp/octo_cells_test.csv";
    io::write_cells_csv(t, cells);
    std::ifstream in(cells);
    ASSERT_TRUE(in.good());
    std::string header;
    std::getline(in, header);
    EXPECT_NE(header.find("x,y,z,level,dx,rho"), std::string::npos);
    std::size_t rows = 0;
    std::string line;
    while (std::getline(in, line)) ++rows;
    EXPECT_EQ(rows, t.leaf_count() * INX3);
    std::remove(cells.c_str());

    const std::string slice = "/tmp/octo_slice_test.csv";
    io::write_slice_csv(t, f_rho, 0.5, 16, slice);
    std::ifstream sin(slice);
    ASSERT_TRUE(sin.good());
    rows = 0;
    while (std::getline(sin, line)) {
        ++rows;
        EXPECT_EQ(std::count(line.begin(), line.end(), ','), 15);
    }
    EXPECT_EQ(rows, 16u);
    std::remove(slice.c_str());
}

TEST(Checkpoint, RoundTripPreservesEverything) {
    tree t = make_test_tree();
    const std::string path = "/tmp/octo_checkpoint_test.bin";
    io::write_checkpoint(t, path);
    tree r = io::read_checkpoint(path);
    std::remove(path.c_str());

    EXPECT_EQ(r.size(), t.size());
    EXPECT_EQ(r.leaf_count(), t.leaf_count());
    EXPECT_DOUBLE_EQ(r.root_geometry().dx, t.root_geometry().dx);
    for (const auto k : t.leaves_sfc()) {
        ASSERT_TRUE(r.contains(k));
        ASSERT_NE(r.node(k).fields, nullptr);
        const auto& a = *t.node(k).fields;
        const auto& b = *r.node(k).fields;
        for (int f = 0; f < n_fields; ++f)
            for (int i = 0; i < INX; ++i)
                for (int j = 0; j < INX; ++j)
                    for (int kk = 0; kk < INX; ++kk) {
                        ASSERT_EQ(a.interior(f, i, j, kk), b.interior(f, i, j, kk));
                    }
    }
}

TEST(Checkpoint, PreservesAmrHierarchy) {
    // A mixed-depth tree (the paper's restart files are AMR snapshots).
    tree t = make_test_tree();
    const auto leaves_before = t.leaves_sfc();
    const std::string path = "/tmp/octo_checkpoint_amr.bin";
    io::write_checkpoint(t, path);
    tree r = io::read_checkpoint(path);
    std::remove(path.c_str());
    const auto leaves_after = r.leaves_sfc();
    ASSERT_EQ(leaves_after.size(), leaves_before.size());
    for (std::size_t i = 0; i < leaves_before.size(); ++i) {
        EXPECT_EQ(leaves_after[i], leaves_before[i]); // same SFC order
        EXPECT_EQ(key_level(leaves_after[i]), key_level(leaves_before[i]));
    }
    EXPECT_TRUE(r.is_balanced21());
}

TEST(Sample, EveryFieldAddressable) {
    tree t(unit_root());
    auto& g = t.ensure_fields(root_key);
    for (int f = 0; f < n_fields; ++f) g.interior(f, 1, 2, 3) = 100.0 + f;
    const dvec3 p = g.geom.cell_center(1, 2, 3);
    for (int f = 0; f < n_fields; ++f) {
        EXPECT_DOUBLE_EQ(io::sample(t, f, p), 100.0 + f) << field_name(f);
    }
}

TEST(CsvWriters, SliceSelectsRequestedField) {
    tree t(unit_root());
    auto& g = t.ensure_fields(root_key);
    for (int i = 0; i < INX; ++i)
        for (int j = 0; j < INX; ++j)
            for (int kk = 0; kk < INX; ++kk) {
                g.interior(f_egas, i, j, kk) = 42.0;
                g.interior(f_rho, i, j, kk) = 1.0;
            }
    const std::string path = "/tmp/octo_slice_field.csv";
    io::write_slice_csv(t, f_egas, 0.5, 4, path);
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_NE(line.find("42"), std::string::npos);
    EXPECT_EQ(line.find("1,1"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Checkpoint, RejectsCorruptFiles) {
    const std::string path = "/tmp/octo_checkpoint_bad.bin";
    {
        std::ofstream out(path, std::ios::binary);
        out << "not a checkpoint";
    }
    EXPECT_THROW(io::read_checkpoint(path), octo::error);
    std::remove(path.c_str());
    EXPECT_THROW(io::read_checkpoint("/nonexistent/path.bin"), octo::error);
}

// ---- format v2 hardening (ISSUE 5) ------------------------------------------

TEST(Checkpoint, MetaSurvivesTheRoundTrip) {
    tree t = make_test_tree();
    const std::string path = "/tmp/octo_checkpoint_meta.bin";
    io::write_checkpoint(t, path, {.time = 3.25, .steps = 17});
    const auto ck = io::read_checkpoint_chain({path});
    std::remove(path.c_str());
    EXPECT_DOUBLE_EQ(ck.meta.time, 3.25);
    EXPECT_EQ(ck.meta.steps, 17);
    EXPECT_EQ(ck.t.leaf_count(), t.leaf_count());
}

std::vector<char> slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A single-leaf checkpoint keeps the fixture sweep cheap; every byte of the
/// v2 format is load-bearing (magic, version, CRC'd sections or the CRCs
/// themselves), so each flip must be detected.
std::string write_single_leaf_checkpoint() {
    tree t(unit_root());
    auto& g = t.ensure_fields(root_key);
    xoshiro256 rng(7);
    for (int f = 0; f < n_fields; ++f)
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    g.interior(f, i, j, kk) = rng.uniform(-1.0, 1.0);
                }
    const std::string path = "/tmp/octo_checkpoint_fixtures.bin";
    io::write_checkpoint(t, path);
    return path;
}

TEST(Checkpoint, EverySampledBitFlipIsDetected) {
    const std::string path = write_single_leaf_checkpoint();
    const auto pristine = slurp(path);
    ASSERT_GT(pristine.size(), 100u);
    io::read_checkpoint(path); // sanity: the pristine file loads

    std::size_t fixtures = 0;
    auto probe = [&](std::size_t offset) {
        auto bytes = pristine;
        bytes[offset] ^= static_cast<char>(1 << (offset % 8));
        spit(path, bytes);
        EXPECT_THROW(io::read_checkpoint(path), octo::error)
            << "flip at byte " << offset << " loaded silently";
        ++fixtures;
    };
    // Dense sweep over the header region, sampled sweep over the data body,
    // and the final checksum bytes.
    for (std::size_t off = 0; off < 100; ++off) probe(off);
    for (std::size_t off = 100; off < pristine.size(); off += 509) probe(off);
    for (std::size_t off = pristine.size() - 4; off < pristine.size(); ++off) {
        probe(off);
    }
    EXPECT_GT(fixtures, 120u);
    std::remove(path.c_str());
}

TEST(Checkpoint, EverySampledTruncationIsDetected) {
    const std::string path = write_single_leaf_checkpoint();
    const auto pristine = slurp(path);
    for (std::size_t len :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, pristine.size() / 4,
          pristine.size() / 2, pristine.size() - 5, pristine.size() - 1}) {
        spit(path, {pristine.begin(),
                    pristine.begin() + static_cast<std::ptrdiff_t>(len)});
        EXPECT_THROW(io::read_checkpoint(path), octo::error)
            << "truncation to " << len << " bytes loaded silently";
    }
    // Appended trailing garbage is just as corrupt as missing bytes.
    auto grown = pristine;
    grown.push_back(0);
    spit(path, grown);
    EXPECT_THROW(io::read_checkpoint(path), octo::error);
    std::remove(path.c_str());
}

TEST(Checkpoint, CrcFailuresAreCountedInApex) {
    const std::string path = write_single_leaf_checkpoint();
    auto bytes = slurp(path);
    bytes[bytes.size() / 2] ^= 0x10; // a field double, caught by section CRC
    spit(path, bytes);
    const auto before =
        rt::apex_registry::instance().counter("io.checkpoint_crc_failures");
    EXPECT_THROW(io::read_checkpoint(path), octo::error);
    EXPECT_EQ(
        rt::apex_registry::instance().counter("io.checkpoint_crc_failures"),
        before + 1);
    std::remove(path.c_str());
}

TEST(Checkpoint, GarbageKeysAreRejectedNotAsserted) {
    // Hand-craft v1 files (no checksums, so garbage keys reach the key
    // validator): a malformed Morton key and a well-formed key naming a node
    // outside the tree must both produce a clean error — not drive
    // tree::refine into an assert/abort.
    const std::string path = "/tmp/octo_checkpoint_badkey.bin";
    auto craft = [&](std::uint64_t refined_key) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        const std::uint64_t magic_v1 = 0x4f43544f53494d31ULL; // "OCTOSIM1"
        const double geom[4] = {0.0, 0.0, 0.0, 1.0 / INX};
        const std::uint64_t nrefined = 1;
        out.write(reinterpret_cast<const char*>(&magic_v1), 8);
        out.write(reinterpret_cast<const char*>(geom), sizeof(geom));
        out.write(reinterpret_cast<const char*>(&nrefined), 8);
        out.write(reinterpret_cast<const char*>(&refined_key), 8);
    };
    craft(0xffffffffffffffffULL); // not a valid Morton shape (level > 20)
    EXPECT_THROW(io::read_checkpoint(path), octo::error);
    craft(0x2); // bit count not 1+3*level: no Morton key looks like this
    EXPECT_THROW(io::read_checkpoint(path), octo::error);
    craft(key_child(key_child(root_key, 0), 0)); // valid shape, absent parent
    EXPECT_THROW(io::read_checkpoint(path), octo::error);
    std::remove(path.c_str());
}

TEST(Checkpoint, TransientWriteFaultsRetryAndNeverTearTheOldFile) {
    const std::string path = "/tmp/octo_checkpoint_transient.bin";
    tree a = make_test_tree();
    io::write_checkpoint(a, path);
    const auto old_bytes = slurp(path);

    // A permanently failing device: the write throws after its bounded
    // retries, the previous checkpoint is untouched, no temp file remains.
    tree b(unit_root());
    b.ensure_fields(root_key);
    {
        support::fault_config cfg;
        cfg.seed = 21;
        cfg.io_fail_prob = 1.0;
        support::fault_injector inj(cfg);
        support::scoped_io_faults guard(inj);
        EXPECT_THROW(io::write_checkpoint(b, path), octo::error);
        EXPECT_GT(inj.stats().io_failures, 0u);
    }
    EXPECT_EQ(slurp(path), old_bytes);
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());

    // A flaky device: retries absorb the transient failures and the new
    // image lands atomically.
    {
        support::fault_config cfg;
        cfg.seed = 21;
        cfg.io_fail_prob = 0.4;
        support::fault_injector inj(cfg);
        support::scoped_io_faults guard(inj);
        bool wrote = false;
        for (int i = 0;
             i < 200 && (!wrote || inj.stats().io_failures == 0); ++i) {
            try {
                io::write_checkpoint(b, path);
                wrote = true;
            } catch (const octo::error&) {
            }
        }
        EXPECT_TRUE(wrote);
        EXPECT_GT(inj.stats().io_failures, 0u);
    }
    const tree r = io::read_checkpoint(path);
    EXPECT_EQ(r.leaf_count(), 1u);
    std::remove(path.c_str());
}

// ---- incremental delta checkpoints (format v3, ISSUE 10) --------------------

void expect_trees_equal(const tree& a, const tree& b) {
    ASSERT_EQ(a.leaf_count(), b.leaf_count());
    const auto la = a.leaves_sfc();
    const auto lb = b.leaves_sfc();
    ASSERT_EQ(la, lb);
    for (const node_key k : la) {
        const auto& ga = *a.node(k).fields;
        const auto& gb = *b.node(k).fields;
        for (int f = 0; f < n_fields; ++f)
            for (int i = 0; i < INX; ++i)
                for (int j = 0; j < INX; ++j)
                    for (int kk = 0; kk < INX; ++kk) {
                        ASSERT_EQ(ga.interior(f, i, j, kk),
                                  gb.interior(f, i, j, kk));
                    }
    }
}

TEST(DeltaCheckpoint, WritesOnlyDirtyLeavesAndChainRestoresBitIdentical) {
    tree t = make_test_tree();
    const std::string full = "/tmp/octo_delta_full.bin";
    const std::string delta = "/tmp/octo_delta_inc.bin";
    io::write_checkpoint(t, full, {.time = 1.0, .steps = 10});
    const auto base = io::leaf_digests(t);
    EXPECT_EQ(base.size(), t.leaf_count());

    // Touch exactly two leaves; everything else stays clean.
    const auto leaves = t.leaves_sfc();
    ASSERT_GE(leaves.size(), 3u);
    t.ensure_fields(leaves[0]).interior(f_rho, 1, 1, 1) += 0.5;
    t.ensure_fields(leaves[2]).interior(f_egas, 2, 3, 4) *= 2.0;
    const auto st =
        io::write_checkpoint_delta(t, delta, base, {.time = 2.0, .steps = 20});
    EXPECT_EQ(st.dirty_leaves, 2u);
    EXPECT_EQ(st.total_leaves, leaves.size());
    // Incremental really is incremental: far smaller than the full image.
    EXPECT_LT(st.bytes, slurp(full).size() / 2);
    EXPECT_EQ(st.bytes, slurp(delta).size());

    const auto ck = io::read_checkpoint_chain({full, delta});
    EXPECT_DOUBLE_EQ(ck.meta.time, 2.0);
    EXPECT_EQ(ck.meta.steps, 20);
    expect_trees_equal(ck.t, t);

    // A later delta against the SAME base supersedes the earlier one.
    const std::string delta2 = "/tmp/octo_delta_inc2.bin";
    t.ensure_fields(leaves[1]).interior(f_rho, 0, 0, 0) += 1.0;
    io::write_checkpoint_delta(t, delta2, base, {.time = 3.0, .steps = 30});
    const auto ck2 = io::read_checkpoint_chain({full, delta, delta2});
    EXPECT_EQ(ck2.meta.steps, 30);
    expect_trees_equal(ck2.t, t);

    // A one-element chain is just the full image.
    const auto ck0 = io::read_checkpoint_chain({full});
    EXPECT_EQ(ck0.meta.steps, 10);

    for (const auto* p : {&full, &delta, &delta2}) std::remove(p->c_str());
}

TEST(DeltaCheckpoint, SurvivesARegridBetweenBaseAndDelta) {
    // The delta snapshots the full refined-key set, so structure changes
    // after the base are restored too; leaves that exist in both and kept
    // their content come from the base.
    tree t = make_test_tree();
    const std::string full = "/tmp/octo_delta_regrid_full.bin";
    const std::string delta = "/tmp/octo_delta_regrid_inc.bin";
    io::write_checkpoint(t, full);
    const auto base = io::leaf_digests(t);

    const auto leaves = t.leaves_sfc();
    t.refine(leaves.back()); // new children: dirty (absent from the base)
    t.balance21();
    xoshiro256 rng(3);
    for (const node_key k : t.leaves_sfc()) {
        if (base.count(k) != 0) continue; // pre-existing leaf stays clean
        auto& g = t.ensure_fields(k);
        for (int f = 0; f < n_fields; ++f)
            for (int i = 0; i < INX; ++i)
                for (int j = 0; j < INX; ++j)
                    for (int kk = 0; kk < INX; ++kk) {
                        g.interior(f, i, j, kk) = rng.uniform(0.0, 1.0);
                    }
    }
    const auto st = io::write_checkpoint_delta(t, delta, base);
    EXPECT_GT(st.dirty_leaves, 0u);
    EXPECT_LT(st.dirty_leaves, st.total_leaves);

    const auto ck = io::read_checkpoint_chain({full, delta});
    expect_trees_equal(ck.t, t);
    for (const auto* p : {&full, &delta}) std::remove(p->c_str());
}

TEST(DeltaCheckpoint, EveryBitFlipInTheDeltaIsDetected) {
    // The delta format carries the same obligation as the full format: every
    // byte is load-bearing (magic, version, CRC'd header / refined / dirty
    // sections, per-leaf digests), so every flip must be rejected.
    tree t = make_test_tree();
    const std::string full = "/tmp/octo_delta_flip_full.bin";
    const std::string delta = "/tmp/octo_delta_flip_inc.bin";
    io::write_checkpoint(t, full);
    const auto base = io::leaf_digests(t);
    t.ensure_fields(t.leaves_sfc()[0]).interior(f_rho, 0, 0, 0) += 1.0;
    io::write_checkpoint_delta(t, delta, base);

    const auto pristine = slurp(delta);
    ASSERT_GT(pristine.size(), 100u);
    io::read_checkpoint_chain({full, delta}); // sanity: pristine loads
    auto probe = [&](std::size_t off) {
        auto bytes = pristine;
        bytes[off] ^= static_cast<char>(1 << (off % 8));
        spit(delta, bytes);
        EXPECT_THROW(io::read_checkpoint_chain({full, delta}), octo::error)
            << "flip at delta byte " << off << " loaded silently";
    };
    // Dense sweep over the header/refined-keys region, sampled sweep over
    // the dirty-record body, and the final checksum bytes.
    for (std::size_t off = 0; off < 100; ++off) probe(off);
    for (std::size_t off = 100; off < pristine.size(); off += 509) probe(off);
    for (std::size_t off = pristine.size() - 4; off < pristine.size(); ++off) {
        probe(off);
    }
    // Truncation and growth are corrupt too.
    spit(delta, {pristine.begin(), pristine.end() - 1});
    EXPECT_THROW(io::read_checkpoint_chain({full, delta}), octo::error);
    auto grown = pristine;
    grown.push_back(0);
    spit(delta, grown);
    EXPECT_THROW(io::read_checkpoint_chain({full, delta}), octo::error);
    for (const auto* p : {&full, &delta}) std::remove(p->c_str());
}

TEST(DeltaCheckpoint, RejectsAMismatchedBase) {
    // A delta is bound to ITS base by the digest-map CRC in its header:
    // restoring it against any other image must fail loudly, never splice
    // two unrelated checkpoints together.
    tree t = make_test_tree();
    const std::string full_a = "/tmp/octo_delta_base_a.bin";
    const std::string full_b = "/tmp/octo_delta_base_b.bin";
    const std::string delta = "/tmp/octo_delta_base_inc.bin";
    io::write_checkpoint(t, full_a);
    const auto base = io::leaf_digests(t);

    tree other = make_test_tree();
    other.ensure_fields(other.leaves_sfc()[1]).interior(f_rho, 4, 4, 4) += 9.0;
    io::write_checkpoint(other, full_b);

    t.ensure_fields(t.leaves_sfc()[0]).interior(f_rho, 0, 0, 0) += 1.0;
    io::write_checkpoint_delta(t, delta, base);

    EXPECT_NO_THROW(io::read_checkpoint_chain({full_a, delta}));
    EXPECT_THROW(io::read_checkpoint_chain({full_b, delta}), octo::error);
    // And the CRC-failure counter saw it.
    const auto before =
        rt::apex_registry::instance().counter("io.checkpoint_crc_failures");
    EXPECT_THROW(io::read_checkpoint_chain({full_b, delta}), octo::error);
    EXPECT_EQ(
        rt::apex_registry::instance().counter("io.checkpoint_crc_failures"),
        before + 1);
    for (const auto* p : {&full_a, &full_b, &delta}) std::remove(p->c_str());
}

TEST(DeltaCheckpoint, DeltaFileIsRejectedWhereAFullImageIsExpected) {
    tree t = make_test_tree();
    const std::string full = "/tmp/octo_delta_misuse_full.bin";
    const std::string delta = "/tmp/octo_delta_misuse_inc.bin";
    io::write_checkpoint(t, full);
    io::write_checkpoint_delta(t, delta, io::leaf_digests(t));
    EXPECT_THROW(io::read_checkpoint(delta), octo::error);
    EXPECT_THROW(io::read_checkpoint_chain({delta}), octo::error);
    EXPECT_THROW(io::read_checkpoint_chain({}), octo::error);
    for (const auto* p : {&full, &delta}) std::remove(p->c_str());
}

/// `file` with its last leaf record repeated: the record count at
/// `count_at` (inside the CRC'd header that starts at byte 12 and is
/// `header_len` long) becomes 2 and every section CRC is recomputed, so
/// only the repeated key is wrong. Expects exactly one record in `file`.
std::vector<char> with_repeated_record(const std::vector<char>& file,
                                       std::size_t header_len,
                                       std::size_t nrefined_at,
                                       std::size_t count_at) {
    constexpr std::size_t header_at = 12; // magic + version
    std::uint64_t nrefined = 0;
    std::memcpy(&nrefined, file.data() + header_at + nrefined_at, 8);
    const std::size_t records_at =
        header_at + header_len + 4 + nrefined * sizeof(node_key) + 4;
    const std::size_t record_len = file.size() - 4 - records_at;
    EXPECT_EQ(record_len,
              sizeof(node_key) + std::size_t{n_fields} * INX3 * 8 + 4);
    std::vector<char> out(file.begin(), file.end() - 4);
    out.insert(out.end(), file.begin() + static_cast<long>(records_at),
               file.end() - 4);
    const std::uint64_t two = 2;
    std::memcpy(out.data() + header_at + count_at, &two, 8);
    const std::uint32_t header_crc = crc32(out.data() + header_at, header_len);
    std::memcpy(out.data() + header_at + header_len, &header_crc, 4);
    const std::uint32_t records_crc =
        crc32(out.data() + records_at, 2 * record_len);
    const auto* c = reinterpret_cast<const char*>(&records_crc);
    out.insert(out.end(), c, c + 4);
    return out;
}

/// Runs `load` and expects the duplicate-key rejection, not another one.
template <class Load>
void expect_duplicate_key_rejected(Load&& load) {
    try {
        load();
        ADD_FAILURE() << "a repeated leaf data key loaded silently";
    } catch (const octo::error& e) {
        EXPECT_NE(std::string(e.what()).find("duplicate leaf data key"),
                  std::string::npos)
            << e.what();
    }
}

TEST(DeltaCheckpoint, RejectsARepeatedDirtyLeafKey) {
    // Two records for one leaf, each with valid CRCs: neither may silently
    // win, so the whole delta is refused.
    tree t = make_test_tree();
    const std::string full = "/tmp/octo_delta_dup_full.bin";
    const std::string delta = "/tmp/octo_delta_dup_inc.bin";
    io::write_checkpoint(t, full);
    const auto base = io::leaf_digests(t);
    t.ensure_fields(t.leaves_sfc()[0]).interior(f_rho, 0, 0, 0) += 1.0;
    ASSERT_EQ(io::write_checkpoint_delta(t, delta, base).dirty_leaves, 1u);
    // Delta header: time, steps, base_crc, nrefined, ndirty.
    spit(delta, with_repeated_record(slurp(delta), 36, 20, 28));
    expect_duplicate_key_rejected(
        [&] { io::read_checkpoint_chain({full, delta}); });
    for (const auto* p : {&full, &delta}) std::remove(p->c_str());
}

TEST(Checkpoint, RejectsARepeatedLeafDataKey) {
    tree t(unit_root());
    t.refine(root_key);
    t.ensure_fields(key_child(root_key, 3)).interior(f_rho, 1, 2, 3) = 4.0;
    const std::string path = "/tmp/octo_checkpoint_dup.bin";
    io::write_checkpoint(t, path);
    // Full header: origin x/y/z, dx, time, steps, nrefined, ndata.
    spit(path, with_repeated_record(slurp(path), 64, 48, 56));
    expect_duplicate_key_rejected([&] { io::read_checkpoint(path); });
    std::remove(path.c_str());
}

// ---- byte identity against the per-double reference writer -----------------
// The writers pack rows, digest leaves on the pool and derive section CRCs
// by combine; the files must still be exactly what the straightforward
// per-double writer below (the format's reference) produces.

namespace ref {

template <class T>
void put(std::ofstream& out, const T& v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <class T>
void put_crc(std::ofstream& out, crc32_accumulator& crc, const T& v) {
    crc.update(&v, sizeof(T));
    out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

std::uint32_t leaf_image_crc(const subgrid& g) {
    crc32_accumulator crc;
    for (int f = 0; f < n_fields; ++f)
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const double v = g.interior(f, i, j, kk);
                    crc.update(&v, sizeof v);
                }
    return crc.value();
}

io::leaf_digest_map leaf_digests(const tree& t) {
    io::leaf_digest_map m;
    for (const auto& level : t.levels()) {
        for (const node_key k : level) {
            if (!t.node(k).refined && t.node(k).fields != nullptr) {
                m.emplace(k, leaf_image_crc(*t.node(k).fields));
            }
        }
    }
    return m;
}

void write_image(const tree& t, const io::checkpoint_meta& meta,
                 const std::string& path) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    put(out, std::uint64_t{0x4f43544f53494d33ULL}); // "OCTOSIM3"
    put(out, std::uint32_t{3});
    std::vector<node_key> refined;
    std::vector<node_key> with_data;
    for (const auto& level : t.levels()) {
        for (const node_key k : level) {
            if (t.node(k).refined) refined.push_back(k);
            if (!t.node(k).refined && t.node(k).fields != nullptr) {
                with_data.push_back(k);
            }
        }
    }
    const auto& root = t.root_geometry();
    crc32_accumulator crc;
    put_crc(out, crc, root.origin.x);
    put_crc(out, crc, root.origin.y);
    put_crc(out, crc, root.origin.z);
    put_crc(out, crc, root.dx);
    put_crc(out, crc, meta.time);
    put_crc(out, crc, static_cast<std::int64_t>(meta.steps));
    put_crc(out, crc, static_cast<std::uint64_t>(refined.size()));
    put_crc(out, crc, static_cast<std::uint64_t>(with_data.size()));
    put(out, crc.value());
    crc.reset();
    for (const node_key k : refined) put_crc(out, crc, k);
    put(out, crc.value());
    crc.reset();
    for (const node_key k : with_data) {
        put_crc(out, crc, k);
        const auto& g = *t.node(k).fields;
        crc32_accumulator leaf;
        for (int f = 0; f < n_fields; ++f)
            for (int i = 0; i < INX; ++i)
                for (int j = 0; j < INX; ++j)
                    for (int kk = 0; kk < INX; ++kk) {
                        const double v = g.interior(f, i, j, kk);
                        leaf.update(&v, sizeof v);
                        put_crc(out, crc, v);
                    }
        put_crc(out, crc, leaf.value());
    }
    put(out, crc.value());
}

void write_delta_image(const tree& t, const io::leaf_digest_map& base,
                       const io::checkpoint_meta& meta,
                       const std::string& path) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    std::vector<node_key> refined;
    std::vector<std::pair<node_key, std::uint32_t>> dirty;
    for (const auto& level : t.levels()) {
        for (const node_key k : level) {
            if (t.node(k).refined) {
                refined.push_back(k);
            } else if (t.node(k).fields != nullptr) {
                const std::uint32_t digest = leaf_image_crc(*t.node(k).fields);
                const auto it = base.find(k);
                if (it == base.end() || it->second != digest) {
                    dirty.emplace_back(k, digest);
                }
            }
        }
    }
    put(out, std::uint64_t{0x4f43544f444c5433ULL}); // "OCTODLT3"
    put(out, std::uint32_t{3});
    crc32_accumulator crc;
    put_crc(out, crc, meta.time);
    put_crc(out, crc, static_cast<std::int64_t>(meta.steps));
    put_crc(out, crc, io::digest_map_crc(base));
    put_crc(out, crc, static_cast<std::uint64_t>(refined.size()));
    put_crc(out, crc, static_cast<std::uint64_t>(dirty.size()));
    put(out, crc.value());
    crc.reset();
    for (const node_key k : refined) put_crc(out, crc, k);
    put(out, crc.value());
    crc.reset();
    for (const auto& [k, digest] : dirty) {
        put_crc(out, crc, k);
        const auto& g = *t.node(k).fields;
        for (int f = 0; f < n_fields; ++f)
            for (int i = 0; i < INX; ++i)
                for (int j = 0; j < INX; ++j)
                    for (int kk = 0; kk < INX; ++kk) {
                        put_crc(out, crc, g.interior(f, i, j, kk));
                    }
        put_crc(out, crc, digest);
    }
    put(out, crc.value());
}

} // namespace ref

/// Three levels, 100+ leaves: more leaves than the digest pass has chunks.
tree make_deep_tree() {
    tree t(unit_root());
    t.refine(root_key);
    for (int c = 0; c < 8; ++c) t.refine(key_child(root_key, c));
    t.refine(key_child(key_child(root_key, 5), 2));
    t.balance21();
    xoshiro256 rng(2024);
    for (const auto k : t.leaves_sfc()) {
        auto& g = t.ensure_fields(k);
        for (int f = 0; f < n_fields; ++f)
            for (int i = 0; i < INX; ++i)
                for (int j = 0; j < INX; ++j)
                    for (int kk = 0; kk < INX; ++kk) {
                        g.interior(f, i, j, kk) = rng.uniform(-1.0, 3.0);
                    }
    }
    return t;
}

TEST(Checkpoint, FilesAreByteIdenticalToThePerDoubleReference) {
    tree t = make_deep_tree();
    const std::string full = "/tmp/octo_ident_full.bin";
    const std::string full_ref = "/tmp/octo_ident_full_ref.bin";
    const std::string delta = "/tmp/octo_ident_delta.bin";
    const std::string delta_ref = "/tmp/octo_ident_delta_ref.bin";
    const io::checkpoint_meta m1{.time = 0.75, .steps = 12};
    const auto base = io::write_checkpoint(t, full, m1);
    ref::write_image(t, m1, full_ref);
    EXPECT_EQ(slurp(full), slurp(full_ref));
    EXPECT_EQ(base, ref::leaf_digests(t));

    // Regrid between base and delta: new children are dirty, one untouched
    // leaf stays clean, one edited leaf is dirty.
    const auto leaves = t.leaves_sfc();
    t.refine(leaves[leaves.size() / 2]);
    t.balance21();
    xoshiro256 rng(5);
    for (const node_key k : t.leaves_sfc()) {
        if (t.node(k).fields != nullptr) continue;
        auto& g = t.ensure_fields(k);
        for (int f = 0; f < n_fields; ++f)
            for (int i = 0; i < INX; ++i)
                for (int j = 0; j < INX; ++j)
                    for (int kk = 0; kk < INX; ++kk) {
                        g.interior(f, i, j, kk) = rng.uniform(0.0, 1.0);
                    }
    }
    t.ensure_fields(leaves[0]).interior(f_sx, 7, 0, 3) = -4.5;
    const io::checkpoint_meta m2{.time = 1.25, .steps = 13};
    const auto st = io::write_checkpoint_delta(t, delta, base, m2);
    ref::write_delta_image(t, base, m2, delta_ref);
    EXPECT_GT(st.dirty_leaves, 1u);
    EXPECT_LT(st.dirty_leaves, st.total_leaves);
    EXPECT_EQ(slurp(delta), slurp(delta_ref));

    // The restored tree (its level order may differ) writes what the
    // reference writes for it.
    const auto ck = io::read_checkpoint_chain({full, delta});
    expect_trees_equal(ck.t, t);
    io::write_checkpoint(ck.t, full, m2);
    ref::write_image(ck.t, m2, full_ref);
    EXPECT_EQ(slurp(full), slurp(full_ref));
    for (const auto* p : {&full, &full_ref, &delta, &delta_ref}) {
        std::remove(p->c_str());
    }
}

TEST(Checkpoint, ParallelDigestsMatchTheSerialReferenceOnAnyPool) {
    const tree t = make_deep_tree();
    const auto expected = ref::leaf_digests(t);
    ASSERT_GT(expected.size(), 64u);
    EXPECT_EQ(io::leaf_digests(t), expected);
    for (const unsigned workers : {1u, 2u, 4u}) {
        rt::thread_pool pool(workers);
        const std::string path = "/tmp/octo_digest_pool.bin";
        EXPECT_EQ(io::write_checkpoint(t, path, {}, &pool), expected)
            << workers << " workers";
        std::remove(path.c_str());
    }
}

TEST(Checkpoint, Version2FilesStayReadable) {
    // The v3 writer added per-leaf digests, but archived v2 restart files
    // must keep loading. Hand-craft a one-leaf v2 image (same section
    // layout, no per-leaf digest) with correct section CRCs.
    const std::string path = "/tmp/octo_checkpoint_v2.bin";
    std::vector<double> img(static_cast<std::size_t>(n_fields) * INX3);
    for (std::size_t i = 0; i < img.size(); ++i) {
        img[i] = 0.25 * static_cast<double>(i) + 1.0;
    }
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        auto put = [&](const auto& v) {
            out.write(reinterpret_cast<const char*>(&v), sizeof v);
        };
        crc32_accumulator crc;
        auto put_crc = [&](const auto& v) {
            crc.update(&v, sizeof v);
            put(v);
        };
        const std::uint64_t magic_v2 = 0x4f43544f53494d32ULL; // "OCTOSIM2"
        const std::uint32_t version = 2;
        put(magic_v2);
        put(version);
        const box_geometry root = unit_root();
        put_crc(root.origin.x);
        put_crc(root.origin.y);
        put_crc(root.origin.z);
        put_crc(root.dx);
        put_crc(double{1.5});                 // time
        put_crc(std::int64_t{42});            // steps
        put_crc(std::uint64_t{0});            // nrefined
        put_crc(std::uint64_t{1});            // ndata
        put(crc.value());
        crc.reset();
        put(crc.value()); // empty refined-keys section
        crc.reset();
        put_crc(root_key);
        for (const double v : img) put_crc(v);
        put(crc.value());
    }
    const auto ck = io::read_checkpoint_chain({path});
    EXPECT_DOUBLE_EQ(ck.meta.time, 1.5);
    EXPECT_EQ(ck.meta.steps, 42);
    ASSERT_EQ(ck.t.leaf_count(), 1u);
    const auto& g = *ck.t.node(root_key).fields;
    std::size_t idx = 0;
    for (int f = 0; f < n_fields; ++f)
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    ASSERT_EQ(g.interior(f, i, j, kk), img[idx++]);
                }
    std::remove(path.c_str());
}

TEST(Checkpoint, Version1FilesStayReadable) {
    // v1: no checksums, no meta; a one-leaf image restores field by field
    // and chains with a delta written against the restored tree.
    const std::string path = "/tmp/octo_checkpoint_v1.bin";
    const std::string delta = "/tmp/octo_checkpoint_v1_inc.bin";
    std::vector<double> img(static_cast<std::size_t>(n_fields) * INX3);
    for (std::size_t i = 0; i < img.size(); ++i) {
        img[i] = 1.0 / (static_cast<double>(i) + 3.0);
    }
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        auto put = [&](const auto& v) {
            out.write(reinterpret_cast<const char*>(&v), sizeof v);
        };
        put(std::uint64_t{0x4f43544f53494d31ULL}); // "OCTOSIM1"
        const box_geometry root = unit_root();
        put(root.origin.x);
        put(root.origin.y);
        put(root.origin.z);
        put(root.dx);
        put(std::uint64_t{0}); // nrefined
        put(std::uint64_t{1}); // ndata
        put(root_key);
        for (const double v : img) put(v);
    }
    const tree r = io::read_checkpoint(path);
    ASSERT_EQ(r.leaf_count(), 1u);
    const auto& g = *r.node(root_key).fields;
    std::size_t idx = 0;
    for (int f = 0; f < n_fields; ++f)
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    ASSERT_EQ(g.interior(f, i, j, kk), img[idx++]);
                }
    tree t = make_test_tree();
    io::write_checkpoint_delta(t, delta, io::leaf_digests(r));
    expect_trees_equal(io::read_checkpoint_chain({path, delta}).t, t);
    for (const auto* p : {&path, &delta}) std::remove(p->c_str());
}

} // namespace
