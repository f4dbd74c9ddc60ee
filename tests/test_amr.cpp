// Tests for the AMR layer: key algebra, octree refinement and 2:1 balance,
// conservative restriction/prolongation (including the angular-momentum
// bookkeeping), ghost fills across same-level / coarse-fine / physical
// boundaries, and the SFC partitioner.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "amr/config.hpp"
#include "amr/halo.hpp"
#include "amr/partition.hpp"
#include "amr/prolong.hpp"
#include "amr/subgrid.hpp"
#include "amr/tree.hpp"
#include "runtime/thread_pool.hpp"
#include "support/rng.hpp"

namespace {

using namespace octo;
using namespace octo::amr;

box_geometry unit_root() {
    box_geometry g;
    g.origin = {0, 0, 0};
    g.dx = 1.0 / INX; // root covers the unit cube
    return g;
}

// ---- key algebra -----------------------------------------------------------

TEST(Keys, RootProperties) {
    EXPECT_EQ(key_level(root_key), 0);
    EXPECT_EQ(key_coords(root_key), (ivec3{0, 0, 0}));
}

TEST(Keys, ChildParentRoundTrip) {
    for (int c = 0; c < 8; ++c) {
        const node_key ck = key_child(root_key, c);
        EXPECT_EQ(key_level(ck), 1);
        EXPECT_EQ(key_parent(ck), root_key);
        EXPECT_EQ(key_octant(ck), c);
    }
}

TEST(Keys, CoordsRoundTrip) {
    for (int level = 0; level <= 4; ++level) {
        xoshiro256 rng(static_cast<std::uint64_t>(level) + 1);
        for (int t = 0; t < 50; ++t) {
            const int e = 1 << level;
            const ivec3 c{static_cast<int>(rng.below(e)), static_cast<int>(rng.below(e)),
                          static_cast<int>(rng.below(e))};
            const node_key k = key_from_coords(level, c);
            EXPECT_EQ(key_level(k), level);
            EXPECT_EQ(key_coords(k), c);
        }
    }
}

TEST(Keys, NeighborOffsets) {
    const node_key k = key_from_coords(2, {1, 2, 3});
    EXPECT_EQ(key_coords(key_neighbor(k, {1, 0, 0})), (ivec3{2, 2, 3}));
    EXPECT_EQ(key_coords(key_neighbor(k, {-1, -1, -1})), (ivec3{0, 1, 2}));
    EXPECT_EQ(key_neighbor(k, {-2, 0, 0}), invalid_key);  // x = -1
    EXPECT_EQ(key_neighbor(k, {3, 0, 0}), invalid_key);   // x = 4 at level 2
}

TEST(Keys, SfcOrderNests) {
    // A parent's SFC position lower-bounds all its descendants.
    const node_key p = key_from_coords(1, {1, 0, 1});
    for (int c = 0; c < 8; ++c) {
        EXPECT_GE(key_sfc_order(key_child(p, c), 3), key_sfc_order(p, 3));
        EXPECT_LT(key_sfc_order(key_child(p, c), 3),
                  key_sfc_order(p, 3) + (node_key{1} << 6));
    }
}

// ---- tree ------------------------------------------------------------------

TEST(Tree, RefineCreatesChildren) {
    tree t(unit_root());
    EXPECT_EQ(t.size(), 1u);
    t.refine(root_key);
    EXPECT_EQ(t.size(), 9u);
    EXPECT_EQ(t.leaf_count(), 8u);
    EXPECT_FALSE(t.is_leaf(root_key));
    EXPECT_TRUE(t.is_leaf(key_child(root_key, 3)));
}

TEST(Tree, GeometryHalvesWithLevel) {
    tree t(unit_root());
    t.refine(root_key);
    const auto g0 = t.geometry(root_key);
    const auto g1 = t.geometry(key_child(root_key, 7));
    EXPECT_DOUBLE_EQ(g1.dx, g0.dx / 2.0);
    // Child 7 = (+x, +y, +z) octant: origin at the cube center.
    EXPECT_DOUBLE_EQ(g1.origin.x, 0.5);
    EXPECT_DOUBLE_EQ(g1.origin.y, 0.5);
    EXPECT_DOUBLE_EQ(g1.origin.z, 0.5);
}

TEST(Tree, RefineByPredicateWithBalance) {
    tree t(unit_root());
    // Refine around a corner point down to level 3.
    const dvec3 target{0.1, 0.1, 0.1};
    t.refine_by(
        [&](node_key, const box_geometry& g) {
            const double edge = g.dx * INX;
            return g.origin.x <= target.x && target.x < g.origin.x + edge &&
                   g.origin.y <= target.y && target.y < g.origin.y + edge &&
                   g.origin.z <= target.z && target.z < g.origin.z + edge;
        },
        3);
    EXPECT_TRUE(t.is_balanced21());
    EXPECT_EQ(t.max_level(), 3);
    EXPECT_GT(t.leaf_count(), 8u);
}

TEST(Tree, LeavesSfcCoversDomainOnce) {
    tree t(unit_root());
    t.refine(root_key);
    t.refine(key_child(root_key, 0));
    const auto lv = t.leaves_sfc();
    EXPECT_EQ(lv.size(), 15u); // 7 level-1 + 8 level-2
    // Volumes sum to the domain volume.
    double vol = 0;
    for (const auto k : lv) {
        const auto g = t.geometry(k);
        vol += std::pow(g.dx * INX, 3);
    }
    EXPECT_NEAR(vol, 1.0, 1e-12);
    // SFC order is strictly increasing.
    for (std::size_t i = 1; i < lv.size(); ++i) {
        EXPECT_LT(key_sfc_order(lv[i - 1], t.max_level()),
                  key_sfc_order(lv[i], t.max_level()));
    }
}

TEST(Tree, IdsAreUniquePerTree) {
    tree a(unit_root());
    tree b(unit_root());
    EXPECT_NE(a.id(), b.id());
}

TEST(Tree, RevisionBumpsOnEveryStructureChange) {
    // Caches (solver workspaces, halo plans) key on (id, revision): the
    // revision must change on refine, derefine, and field allocation — and
    // must NOT change on reads or repeated ensure_fields.
    tree t(unit_root());
    const auto r0 = t.revision();
    t.refine(root_key);
    const auto r1 = t.revision();
    EXPECT_GT(r1, r0);

    t.ensure_fields(key_child(root_key, 0)); // allocates: bumps
    const auto r2 = t.revision();
    EXPECT_GT(r2, r1);
    t.ensure_fields(key_child(root_key, 0)); // already allocated: no bump
    EXPECT_EQ(t.revision(), r2);

    (void)t.leaves_sfc(); // reads never bump
    (void)t.geometry(root_key);
    EXPECT_EQ(t.revision(), r2);

    t.derefine(root_key);
    EXPECT_GT(t.revision(), r2);
}

TEST(Tree, Balance21RepairsDeepImbalance) {
    tree t(unit_root());
    // Refine toward the domain center: the level-2 node at (1,1,1) becomes
    // refined while its +x/+y/+z level-2 neighbors (inside the other
    // level-1 octants) do not exist yet — a 2:1 violation.
    t.refine(root_key);
    t.refine(key_child(root_key, 0));
    t.refine(key_child(key_child(root_key, 0), 7));
    EXPECT_FALSE(t.is_balanced21());
    t.balance21();
    EXPECT_TRUE(t.is_balanced21());
}

// ---- subgrid ---------------------------------------------------------------

TEST(Subgrid, IndexingAndInterior) {
    subgrid g;
    EXPECT_TRUE(subgrid::is_interior(H_BW, H_BW, H_BW));
    EXPECT_FALSE(subgrid::is_interior(H_BW - 1, H_BW, H_BW));
    EXPECT_FALSE(subgrid::is_interior(H_BW + INX, H_BW, H_BW));
    g.interior(f_rho, 0, 0, 0) = 3.0;
    EXPECT_DOUBLE_EQ(g.at(f_rho, H_BW, H_BW, H_BW), 3.0);
    EXPECT_DOUBLE_EQ(g.interior_sum(f_rho), 3.0);
}

TEST(Subgrid, GeometryCellCenters) {
    subgrid g;
    g.geom.origin = {1.0, 2.0, 3.0};
    g.geom.dx = 0.5;
    const auto c = g.geom.cell_center(0, 1, 2);
    EXPECT_DOUBLE_EQ(c.x, 1.25);
    EXPECT_DOUBLE_EQ(c.y, 2.75);
    EXPECT_DOUBLE_EQ(c.z, 4.25);
    EXPECT_DOUBLE_EQ(g.geom.cell_volume(), 0.125);
}

// ---- restriction / prolongation -------------------------------------------

class ProlongRestrict : public ::testing::Test {
  protected:
    void SetUp() override {
        t_ = std::make_unique<tree>(unit_root());
        t_->refine(root_key);
        parent_ = &t_->ensure_fields(root_key);
        xoshiro256 rng(11);
        for (int c = 0; c < 8; ++c) {
            auto& ch = t_->ensure_fields(key_child(root_key, c));
            for (int f = 0; f < n_fields; ++f) {
                for (int i = 0; i < INX; ++i)
                    for (int j = 0; j < INX; ++j)
                        for (int k = 0; k < INX; ++k) {
                            ch.interior(f, i, j, k) = rng.uniform(0.1, 1.0);
                        }
            }
        }
    }

    double total_integral(int f) const {
        double s = 0;
        for (int c = 0; c < 8; ++c) {
            const auto& ch = *t_->node(key_child(root_key, c)).fields;
            s += ch.interior_sum(f) * ch.geom.cell_volume();
        }
        return s;
    }

    std::unique_ptr<tree> t_;
    subgrid* parent_ = nullptr;
};

TEST_F(ProlongRestrict, RestrictionConservesEveryField) {
    for (int c = 0; c < 8; ++c) {
        restrict_into_parent(*t_->node(key_child(root_key, c)).fields, c, *parent_);
    }
    for (int f = 0; f < n_fields; ++f) {
        if (f == f_lx || f == f_ly || f == f_lz) continue; // checked below
        EXPECT_NEAR(parent_->interior_sum(f) * parent_->geom.cell_volume(),
                    total_integral(f), 1e-12 * std::abs(total_integral(f)) + 1e-14)
            << field_name(f);
    }
}

TEST_F(ProlongRestrict, RestrictionConservesAngularMomentum) {
    dvec3 fine_L{0, 0, 0};
    for (int c = 0; c < 8; ++c) {
        fine_L += interior_angular_momentum(*t_->node(key_child(root_key, c)).fields);
    }
    for (int c = 0; c < 8; ++c) {
        restrict_into_parent(*t_->node(key_child(root_key, c)).fields, c, *parent_);
    }
    const dvec3 coarse_L = interior_angular_momentum(*parent_);
    EXPECT_NEAR(coarse_L.x, fine_L.x, 1e-13);
    EXPECT_NEAR(coarse_L.y, fine_L.y, 1e-13);
    EXPECT_NEAR(coarse_L.z, fine_L.z, 1e-13);
}

TEST_F(ProlongRestrict, ProlongationConservesEveryField) {
    // Give the parent smooth data (and filled ghosts for slopes).
    for (int f = 0; f < n_fields; ++f) {
        for (int i = 0; i < NX; ++i)
            for (int j = 0; j < NX; ++j)
                for (int k = 0; k < NX; ++k) {
                    parent_->at(f, i, j, k) =
                        1.0 + 0.01 * f + 0.05 * i + 0.03 * j - 0.02 * k;
                }
    }
    const dvec3 parent_L = interior_angular_momentum(*parent_);
    for (int c = 0; c < 8; ++c) {
        prolong_from_parent(*parent_, c, *t_->node(key_child(root_key, c)).fields,
                            /*slopes=*/true);
    }
    for (int f = 0; f < n_fields; ++f) {
        if (f == f_lx || f == f_ly || f == f_lz) continue;
        double parent_int = 0;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int k = 0; k < INX; ++k)
                    parent_int += parent_->interior(f, i, j, k);
        parent_int *= parent_->geom.cell_volume();
        EXPECT_NEAR(total_integral(f), parent_int, 1e-12 * std::abs(parent_int))
            << field_name(f);
    }
    dvec3 fine_L{0, 0, 0};
    for (int c = 0; c < 8; ++c) {
        fine_L += interior_angular_momentum(*t_->node(key_child(root_key, c)).fields);
    }
    EXPECT_NEAR(fine_L.x, parent_L.x, 1e-12);
    EXPECT_NEAR(fine_L.y, parent_L.y, 1e-12);
    EXPECT_NEAR(fine_L.z, parent_L.z, 1e-12);
}

TEST_F(ProlongRestrict, RestrictThenProlongIsIdentityForConstants) {
    for (int c = 0; c < 8; ++c) {
        auto& ch = *t_->node(key_child(root_key, c)).fields;
        for (int f = 0; f < n_fields; ++f)
            for (int i = 0; i < INX; ++i)
                for (int j = 0; j < INX; ++j)
                    for (int k = 0; k < INX; ++k) ch.interior(f, i, j, k) = 2.5;
        // Zero the spin so the orbital correction is visible only via s.
    }
    for (int c = 0; c < 8; ++c) {
        restrict_into_parent(*t_->node(key_child(root_key, c)).fields, c, *parent_);
    }
    subgrid out;
    out.geom = t_->geometry(key_child(root_key, 0));
    prolong_from_parent(*parent_, 0, out, /*slopes=*/false);
    // rho must be exactly the constant; spin picks up the (r-R) x s term,
    // which is the designed behaviour, so check a momentum-free field.
    EXPECT_DOUBLE_EQ(out.interior(f_rho, 3, 3, 3), 2.5);
    EXPECT_DOUBLE_EQ(out.interior(f_egas, 0, 7, 2), 2.5);
}

// ---- ghost fill ------------------------------------------------------------

TEST(Halo, SameLevelNeighborCopy) {
    tree t(unit_root());
    t.refine(root_key);
    for (int c = 0; c < 8; ++c) {
        auto& g = t.ensure_fields(key_child(root_key, c));
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int k = 0; k < INX; ++k) g.interior(f_rho, i, j, k) = 1.0 + c;
    }
    fill_all_ghosts(t, boundary_kind::outflow);
    // Child 0's +x ghost must read child 1's values (octant bit 0 = x).
    const auto& g0 = *t.node(key_child(root_key, 0)).fields;
    EXPECT_DOUBLE_EQ(g0.at(f_rho, H_BW + INX, H_BW, H_BW), 2.0);
    // And its -x ghost is an outflow copy of itself.
    EXPECT_DOUBLE_EQ(g0.at(f_rho, H_BW - 1, H_BW, H_BW), 1.0);
    // Corner ghost (+x, +y, +z) reads child 7.
    EXPECT_DOUBLE_EQ(g0.at(f_rho, H_BW + INX, H_BW + INX, H_BW + INX), 8.0);
}

TEST(Halo, PeriodicWrapsAround) {
    tree t(unit_root());
    t.refine(root_key);
    for (int c = 0; c < 8; ++c) {
        auto& g = t.ensure_fields(key_child(root_key, c));
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int k = 0; k < INX; ++k) g.interior(f_rho, i, j, k) = 1.0 + c;
    }
    fill_all_ghosts(t, boundary_kind::periodic);
    // Child 0's -x ghost wraps to child 1 (x-extent at level 1 is 2 subgrids).
    const auto& g0 = *t.node(key_child(root_key, 0)).fields;
    EXPECT_DOUBLE_EQ(g0.at(f_rho, H_BW - 1, H_BW, H_BW), 2.0);
}

TEST(Halo, ReflectingFlipsNormalMomentum) {
    tree t(unit_root());
    auto& g = t.ensure_fields(root_key);
    for (int i = 0; i < INX; ++i)
        for (int j = 0; j < INX; ++j)
            for (int k = 0; k < INX; ++k) {
                g.interior(f_sx, i, j, k) = 5.0;
                g.interior(f_sy, i, j, k) = 7.0;
                g.interior(f_rho, i, j, k) = 2.0;
            }
    fill_all_ghosts(t, boundary_kind::reflecting);
    // -x ghost: sx flipped, sy copied, rho copied (mirror of interior cell 0).
    EXPECT_DOUBLE_EQ(g.at(f_sx, H_BW - 1, H_BW, H_BW), -5.0);
    EXPECT_DOUBLE_EQ(g.at(f_sy, H_BW - 1, H_BW, H_BW), 7.0);
    EXPECT_DOUBLE_EQ(g.at(f_rho, H_BW - 1, H_BW, H_BW), 2.0);
}

TEST(Halo, CoarseFineBoundaryUsesCoarseData) {
    tree t(unit_root());
    t.refine(root_key);
    t.refine(key_child(root_key, 0)); // level-2 leaves in one octant
    // Allocate + set data on all leaves.
    for (const auto k : t.leaves_sfc()) {
        auto& g = t.ensure_fields(k);
        const double v = static_cast<double>(key_level(k)); // 1 or 2
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) g.interior(f_rho, i, j, kk) = v;
    }
    fill_all_ghosts(t, boundary_kind::outflow);
    // A level-2 leaf adjacent to the coarse region: its +x ghosts (beyond the
    // refined octant) must read the restricted/coarse value 1.0.
    const node_key fine = key_child(key_child(root_key, 0), 1); // +x side
    const auto& g = *t.node(fine).fields;
    EXPECT_DOUBLE_EQ(g.at(f_rho, H_BW + INX, H_BW, H_BW), 1.0);
    // Its -x neighbor is the sibling at the same level with value 2.
    EXPECT_DOUBLE_EQ(g.at(f_rho, H_BW - 1, H_BW, H_BW), 2.0);
}

TEST(Halo, RestrictTreeFillsInteriorNodes) {
    tree t(unit_root());
    t.refine(root_key);
    for (int c = 0; c < 8; ++c) {
        auto& g = t.ensure_fields(key_child(root_key, c));
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int k = 0; k < INX; ++k) g.interior(f_rho, i, j, k) = 4.0;
    }
    restrict_tree(t);
    const auto& root = *t.node(root_key).fields;
    EXPECT_DOUBLE_EQ(root.interior(f_rho, 2, 5, 7), 4.0);
}

TEST(Halo, PlanCacheSurvivesRefinement) {
    // fill_all_ghosts caches its resolved copy plan keyed on the tree
    // revision. After refining (which bumps the revision) the replayed plan
    // must match a from-scratch per-node fill_ghosts pass exactly.
    tree t(unit_root());
    t.refine(root_key);
    for (int c = 0; c < 8; ++c) {
        auto& g = t.ensure_fields(key_child(root_key, c));
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int k = 0; k < INX; ++k) g.interior(f_rho, i, j, k) = 1.0 + c;
    }
    fill_all_ghosts(t, boundary_kind::outflow); // builds the plan

    t.refine(key_child(root_key, 5));
    for (const auto k : t.leaves_sfc()) {
        auto& g = t.ensure_fields(k);
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    g.interior(f_rho, i, j, kk) =
                        0.5 * key_level(k) + 0.25 * ((i + j + kk) % 3);
                }
    }
    fill_all_ghosts(t, boundary_kind::outflow); // must rebuild, not replay

    // Compare against the uncached per-node path: snapshot the plan-filled
    // node, refill its ghosts from scratch, and demand equality. (fill_ghosts
    // reads only neighbor interiors, so refilling node by node is safe.)
    for (const auto k : t.leaves_sfc()) {
        auto& live = *t.node(k).fields;
        const subgrid from_plan = live;
        fill_ghosts(t, k, boundary_kind::outflow);
        for (int f = 0; f < n_fields; ++f)
            for (int i = 0; i < NX; ++i)
                for (int j = 0; j < NX; ++j)
                    for (int kk = 0; kk < NX; ++kk) {
                        EXPECT_EQ(live.at(f, i, j, kk),
                                  from_plan.at(f, i, j, kk))
                            << "field " << f;
                    }
    }
}

/// A tree with coarse-fine faces (one level-1 octant refined once more) and
/// every field of every leaf set to a distinct nonzero value, momentum
/// included, so that reflecting flips and coarse-donor spin corrections
/// both change the ghosts they touch.
tree make_mixed_tree() {
    tree t(unit_root());
    t.refine(root_key);
    t.refine(key_child(root_key, 5));
    for (const auto k : t.leaves_sfc()) {
        auto& g = t.ensure_fields(k);
        const double lv = key_level(k);
        for (int f = 0; f < n_fields; ++f)
            for (int i = 0; i < INX; ++i)
                for (int j = 0; j < INX; ++j)
                    for (int kk = 0; kk < INX; ++kk) {
                        const double sign = f >= f_sx && f <= f_sz && (i + f) % 2 == 0
                                                ? -1.0
                                                : 1.0;
                        g.interior(f, i, j, kk) =
                            sign * (1.0 + 0.1 * f + 0.37 * lv + 0.01 * i +
                                    0.003 * j + 0.0007 * kk);
                    }
    }
    return t;
}

TEST(Halo, RunPlanMatchesPerCellFill) {
    // The run-coalesced plan replayed by fill_all_ghosts must reproduce the
    // per-cell fill_ghosts reference bit for bit: every field, every one of
    // the NX^3 cells, under all three boundary kinds (periodic wraps,
    // reflecting flips momentum signs, and the refined octant puts coarse
    // donors with spin corrections next to fine leaves).
    for (const auto bc : {boundary_kind::outflow, boundary_kind::reflecting,
                          boundary_kind::periodic}) {
        SCOPED_TRACE(static_cast<int>(bc));
        tree t = make_mixed_tree();
        fill_all_ghosts(t, bc);

        // Runs cover each ghost cell exactly once, and they do coalesce.
        const auto& plan = acquire_ghost_plan(t, bc);
        std::size_t runs = 0;
        for (const auto& np : plan.nodes) {
            std::vector<int> hits(NX3, 0);
            for (const auto& r : np.regions) {
                runs += r.runs.size();
                for (const auto& run : r.runs) {
                    ASSERT_LE(run.stride, 1);
                    for (int n = 0; n < run.len; ++n) ++hits[run.dst + n];
                }
            }
            for (int i = 0; i < NX; ++i)
                for (int j = 0; j < NX; ++j)
                    for (int kk = 0; kk < NX; ++kk) {
                        EXPECT_EQ(hits[subgrid::index(i, j, kk)],
                                  subgrid::is_interior(i, j, kk) ? 0 : 1);
                    }
        }
        EXPECT_LT(runs, plan.nodes.size() * (NX3 - INX3) / 2);

        for (const auto k : t.leaves_sfc()) {
            auto& live = *t.node(k).fields;
            const subgrid from_plan = live;
            fill_ghosts(t, k, bc);
            std::size_t differ = 0;
            for (int f = 0; f < n_fields; ++f)
                for (int i = 0; i < NX; ++i)
                    for (int j = 0; j < NX; ++j)
                        for (int kk = 0; kk < NX; ++kk) {
                            differ += std::bit_cast<std::uint64_t>(live.at(f, i, j, kk)) !=
                                      std::bit_cast<std::uint64_t>(from_plan.at(f, i, j, kk));
                        }
            EXPECT_EQ(differ, 0u) << "leaf " << k;
        }
    }
}

TEST(Halo, PlanIsIndependentOfThePool) {
    // The plan's nodes are resolved as pool tasks; one worker and four must
    // build the same runs, corrections and donor lists in the same order.
    tree t = make_mixed_tree();
    const auto snapshot = [&](rt::thread_pool& pool) {
        (void)acquire_ghost_plan(t, boundary_kind::outflow, &pool); // evict
        std::vector<std::uint64_t> out;
        for (const auto& np : acquire_ghost_plan(t, boundary_kind::reflecting, &pool).nodes) {
            out.push_back(np.key);
            for (const auto& r : np.regions) {
                for (const auto& run : r.runs) {
                    out.insert(out.end(),
                               {reinterpret_cast<std::uintptr_t>(run.sg),
                                static_cast<std::uint64_t>(run.dst),
                                static_cast<std::uint64_t>(run.src),
                                static_cast<std::uint64_t>(run.len), run.stride,
                                run.flip});
                }
                for (const auto& c : r.corrections) {
                    out.insert(out.end(), {static_cast<std::uint64_t>(c.dst),
                                           std::bit_cast<std::uint64_t>(c.dr.x),
                                           std::bit_cast<std::uint64_t>(c.dr.y),
                                           std::bit_cast<std::uint64_t>(c.dr.z)});
                }
                out.insert(out.end(), r.donors.begin(), r.donors.end());
            }
        }
        return out;
    };
    rt::thread_pool one(1), four(4);
    const auto serial = snapshot(one);
    EXPECT_EQ(snapshot(four), serial);
    EXPECT_GT(serial.size(), 1000u);
}

// ---- partitioner -----------------------------------------------------------

TEST(Partition, BalancedLeafCounts) {
    tree t(unit_root());
    t.refine(root_key);
    for (int c = 0; c < 8; ++c) t.refine(key_child(root_key, c)); // 64 leaves
    const auto stats = partition_sfc(t, 4);
    ASSERT_EQ(stats.leaves_per_rank.size(), 4u);
    for (const auto n : stats.leaves_per_rank) EXPECT_EQ(n, 16u);
}

TEST(Partition, SingleRankHasNoRemotePairs) {
    tree t(unit_root());
    t.refine(root_key);
    const auto stats = partition_sfc(t, 1);
    EXPECT_EQ(stats.cross_rank_neighbor_pairs, 0u);
    EXPECT_GT(stats.total_neighbor_pairs, 0u);
}

TEST(Partition, MoreRanksMoreRemotePairs) {
    tree t(unit_root());
    t.refine(root_key);
    for (int c = 0; c < 8; ++c) t.refine(key_child(root_key, c));
    tree t2(unit_root());
    t2.refine(root_key);
    for (int c = 0; c < 8; ++c) t2.refine(key_child(root_key, c));
    const auto s2 = partition_sfc(t, 2);
    const auto s16 = partition_sfc(t2, 16);
    EXPECT_GT(s16.cross_rank_neighbor_pairs, s2.cross_rank_neighbor_pairs);
    EXPECT_EQ(s16.total_neighbor_pairs, s2.total_neighbor_pairs);
}

TEST(Partition, InteriorNodesInheritChildOwner) {
    tree t(unit_root());
    t.refine(root_key);
    partition_sfc(t, 8);
    EXPECT_EQ(t.node(root_key).owner, t.node(key_child(root_key, 0)).owner);
}

TEST(Partition, ChunksAreMortonContiguous) {
    tree t(unit_root());
    t.refine(root_key);
    for (int c = 0; c < 8; ++c) t.refine(key_child(root_key, c));
    t.refine(key_child(key_child(root_key, 3), 5)); // non-uniform depth
    for (const int nranks : {1, 3, 7, 16}) {
        partition_sfc(t, nranks);
        int prev = 0;
        for (const node_key k : t.leaves_sfc()) {
            const int r = t.node(k).owner;
            EXPECT_GE(r, prev) << "owners must be nondecreasing along the SFC";
            EXPECT_LT(r, nranks);
            prev = r;
        }
    }
}

TEST(Partition, EveryInteriorNodeOwnsItsFirstDescendantLeaf) {
    tree t(unit_root());
    t.refine(root_key);
    for (int c = 0; c < 8; ++c) t.refine(key_child(root_key, c));
    partition_sfc(t, 8);
    for (const auto& level : t.levels()) {
        for (const node_key k : level) {
            if (!t.node(k).refined) continue;
            EXPECT_EQ(t.node(k).owner,
                      t.node(first_descendant_leaf(t, k)).owner);
        }
    }
}

TEST(Partition, AccountingTotalsAndCrossPairSymmetry) {
    tree t(unit_root());
    t.refine(root_key);
    for (int c = 0; c < 8; ++c) t.refine(key_child(root_key, c));
    const int nranks = 6;
    const auto stats = partition_sfc(t, nranks);

    std::size_t leaves = 0, nodes = 0, refined = 0, pair_endpoints = 0;
    for (int r = 0; r < nranks; ++r) {
        leaves += stats.leaves_per_rank[r];
        nodes += stats.nodes_per_rank[r];
        refined += stats.refined_per_rank[r];
        pair_endpoints += stats.cross_pairs_per_rank[r];
    }
    EXPECT_EQ(leaves, t.leaf_count());
    EXPECT_EQ(nodes, t.size());
    EXPECT_EQ(refined, t.size() - t.leaf_count());
    // Each cross-rank pair has exactly two endpoints, one per side.
    EXPECT_EQ(pair_endpoints, 2 * stats.cross_rank_neighbor_pairs);
    EXPECT_LE(stats.cross_rank_neighbor_pairs, stats.total_neighbor_pairs);
}

TEST(Partition, WeightedSplitEqualizesCostNotCounts) {
    tree t(unit_root());
    t.refine(root_key);
    for (int c = 0; c < 8; ++c) t.refine(key_child(root_key, c)); // 64 leaves
    // First 16 leaves on the curve cost 9x the rest. Total 192, mean 48 per
    // rank: the hot region is split across the first ranks (about 6 hot
    // leaves each), the light tail packs many more leaves per rank. The
    // split can only be off from the mean by a boundary leaf.
    std::vector<double> w(64, 1.0);
    for (int i = 0; i < 16; ++i) w[i] = 9.0;
    const auto stats = partition_sfc_weighted(t, 4, w);
    ASSERT_EQ(stats.cost_per_rank.size(), 4u);
    const double mean = stats.total_cost() / 4.0;
    for (const double c : stats.cost_per_rank) EXPECT_NEAR(c, mean, 9.0);
    EXPECT_LT(stats.leaves_per_rank[0], 16u); // fewer, expensive leaves
    EXPECT_GT(stats.leaves_per_rank[3], 16u); // more, cheap leaves
    // Far better than the 200% a 16-leaf equal-count split would give the
    // hot rank ((16*9)/48 - 1).
    EXPECT_LT(stats.imbalance_pct(), 15.0);

    // Uniform weights reduce to the equal-count split.
    tree t2(unit_root());
    t2.refine(root_key);
    for (int c = 0; c < 8; ++c) t2.refine(key_child(root_key, c));
    const auto uniform = partition_sfc_weighted(t2, 4, std::vector<double>(64, 1.0));
    for (const auto n : uniform.leaves_per_rank) EXPECT_EQ(n, 16u);
}

TEST(Partition, PartitionRevisionBumpsButStructureRevisionDoesNot) {
    tree t(unit_root());
    t.refine(root_key);
    const auto structure = t.revision();
    const auto part = t.partition_revision();
    partition_sfc(t, 4);
    EXPECT_EQ(t.revision(), structure);
    EXPECT_GT(t.partition_revision(), part);
}

// ---- assertion-protected invariants (death tests) ----------------------------

TEST(TreeDeath, RefiningTwiceAborts) {
    tree t(unit_root());
    t.refine(root_key);
    EXPECT_DEATH(t.refine(root_key), "refining an already refined node");
}

TEST(TreeDeath, DerefiningLeafAborts) {
    tree t(unit_root());
    EXPECT_DEATH(t.derefine(root_key), "derefining a leaf");
}

TEST(TreeDeath, DerefineRequiresLeafChildren) {
    tree t(unit_root());
    t.refine(root_key);
    t.refine(key_child(root_key, 0));
    EXPECT_DEATH(t.derefine(root_key), "derefine requires leaf children");
}

TEST(TreeDeath, UnknownNodeAborts) {
    tree t(unit_root());
    EXPECT_DEATH(t.node(key_child(root_key, 0)), "node not in tree");
}

TEST(Tree, DerefineRoundTripRestoresShape) {
    tree t(unit_root());
    t.refine(root_key);
    t.refine(key_child(root_key, 5));
    EXPECT_EQ(t.max_level(), 2);
    t.derefine(key_child(root_key, 5));
    EXPECT_EQ(t.max_level(), 1);
    EXPECT_EQ(t.size(), 9u);
    t.derefine(root_key);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t.max_level(), 0);
    EXPECT_TRUE(t.is_leaf(root_key));
    // And the tree is reusable after coarsening.
    t.refine(root_key);
    EXPECT_EQ(t.leaf_count(), 8u);
}

// ---- randomized property tests ----------------------------------------------

class RandomTrees : public ::testing::TestWithParam<int> {};

TEST_P(RandomTrees, BalanceAndCoverageInvariants) {
    // Random refinement sequences must always yield a 2:1-balanced tree
    // whose leaves tile the domain exactly once.
    xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
    tree t(unit_root());
    for (int step = 0; step < 25; ++step) {
        const auto leaves = t.leaves_sfc();
        const auto pick = leaves[rng.below(leaves.size())];
        if (key_level(pick) < 4) t.refine(pick);
    }
    t.balance21();
    EXPECT_TRUE(t.is_balanced21());

    double vol = 0;
    for (const auto k : t.leaves_sfc()) {
        const auto g = t.geometry(k);
        vol += std::pow(g.dx * INX, 3);
    }
    EXPECT_NEAR(vol, 1.0, 1e-9);

    // SFC order is a strict total order on leaves.
    const auto lv = t.leaves_sfc();
    for (std::size_t i = 1; i < lv.size(); ++i) {
        EXPECT_LT(key_sfc_order(lv[i - 1], t.max_level()),
                  key_sfc_order(lv[i], t.max_level()));
    }
}

TEST_P(RandomTrees, GhostFillAgreesWithSourceData) {
    // Property: after a ghost fill on a random balanced tree with a smooth
    // global field rho(x) = 1 + x + 2y + 3z sampled per cell, every SAME-
    // LEVEL ghost cell must carry exactly the linear field value (copies),
    // and coarse-sourced ghosts must carry the covering cell's value.
    xoshiro256 rng(1000 + static_cast<std::uint64_t>(GetParam()));
    tree t(unit_root());
    for (int step = 0; step < 12; ++step) {
        const auto leaves = t.leaves_sfc();
        const auto pick = leaves[rng.below(leaves.size())];
        if (key_level(pick) < 3) t.refine(pick);
    }
    t.balance21();
    auto field = [](const dvec3& r) { return 1.0 + r.x + 2 * r.y + 3 * r.z; };
    for (const auto k : t.leaves_sfc()) {
        auto& g = t.ensure_fields(k);
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    g.interior(f_rho, i, j, kk) =
                        field(g.geom.cell_center(i, j, kk));
                }
    }
    fill_all_ghosts(t, boundary_kind::outflow);
    for (const auto k : t.leaves_sfc()) {
        const auto& g = *t.node(k).fields;
        const int level = key_level(k);
        for (int i = -1; i <= INX; ++i)
            for (int j = -1; j <= INX; ++j)
                for (int kk = -1; kk <= INX; ++kk) {
                    if (subgrid::is_interior(i + H_BW, j + H_BW, kk + H_BW)) {
                        continue;
                    }
                    // Same-level neighbor present? Then the ghost must be an
                    // exact copy of the linear field.
                    const dvec3 r = g.geom.cell_center(i, j, kk);
                    const ivec3 base = key_coords(k);
                    const int e = (1 << level) * INX;
                    const int gx = base.x * INX + i;
                    const int gy = base.y * INX + j;
                    const int gz = base.z * INX + kk;
                    if (gx < 0 || gy < 0 || gz < 0 || gx >= e || gy >= e ||
                        gz >= e) {
                        continue; // physical boundary: outflow copy, skip
                    }
                    const node_key nb = key_from_coords(
                        level, {gx / INX, gy / INX, gz / INX});
                    if (t.contains(nb) && !t.node(nb).refined) {
                        EXPECT_NEAR(g.at(f_rho, i + H_BW, j + H_BW, kk + H_BW),
                                    field(r), 1e-12)
                            << "ghost at same level";
                    }
                }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTrees, ::testing::Values(1, 2, 3, 4, 5));

} // namespace
