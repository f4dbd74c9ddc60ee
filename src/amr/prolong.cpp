#include "amr/prolong.hpp"

#include <algorithm>
#include <cmath>

namespace octo::amr {
namespace {

/// minmod slope limiter.
double minmod(double a, double b) {
    if (a * b <= 0.0) return 0.0;
    return std::abs(a) < std::abs(b) ? a : b;
}

/// Offset (in parent interior cells) of the child's octant region.
constexpr int octant_offset(int octant, int axis) {
    return ((octant >> axis) & 1) * (INX / 2);
}

} // namespace

void restrict_into_parent(const subgrid& child, int octant, subgrid& parent) {
    const int ox = octant_offset(octant, 0);
    const int oy = octant_offset(octant, 1);
    const int oz = octant_offset(octant, 2);

    // Plain average for every field.
    for (int f = 0; f < n_fields; ++f) {
        for (int pi = 0; pi < INX / 2; ++pi)
            for (int pj = 0; pj < INX / 2; ++pj)
                for (int pk = 0; pk < INX / 2; ++pk) {
                    double sum = 0.0;
                    for (int ci = 0; ci < 2; ++ci)
                        for (int cj = 0; cj < 2; ++cj)
                            for (int ck = 0; ck < 2; ++ck) {
                                sum += child.interior(f, 2 * pi + ci, 2 * pj + cj,
                                                      2 * pk + ck);
                            }
                    parent.interior(f, ox + pi, oy + pj, oz + pk) = sum / 8.0;
                }
    }

    // Spin correction: add the orbital angular momentum of the fine momentum
    // distribution about the coarse cell center,
    //   l_C = (1/8) sum_f [ l_f + (r_f - R) x s_f ].
    for (int pi = 0; pi < INX / 2; ++pi)
        for (int pj = 0; pj < INX / 2; ++pj)
            for (int pk = 0; pk < INX / 2; ++pk) {
                const dvec3 R = parent.geom.cell_center(ox + pi, oy + pj, oz + pk);
                dvec3 corr{0, 0, 0};
                for (int ci = 0; ci < 2; ++ci)
                    for (int cj = 0; cj < 2; ++cj)
                        for (int ck = 0; ck < 2; ++ck) {
                            const int fi = 2 * pi + ci, fj = 2 * pj + cj,
                                      fk = 2 * pk + ck;
                            const dvec3 r = child.geom.cell_center(fi, fj, fk);
                            const dvec3 s{child.interior(f_sx, fi, fj, fk),
                                          child.interior(f_sy, fi, fj, fk),
                                          child.interior(f_sz, fi, fj, fk)};
                            corr += cross(r - R, s);
                        }
                corr /= 8.0;
                parent.interior(f_lx, ox + pi, oy + pj, oz + pk) += corr.x;
                parent.interior(f_ly, ox + pi, oy + pj, oz + pk) += corr.y;
                parent.interior(f_lz, ox + pi, oy + pj, oz + pk) += corr.z;
            }
}

void prolong_from_parent(const subgrid& parent, int octant, subgrid& child,
                         bool slopes) {
    const int ox = octant_offset(octant, 0);
    const int oy = octant_offset(octant, 1);
    const int oz = octant_offset(octant, 2);

    for (int f = 0; f < n_fields; ++f) {
        for (int pi = 0; pi < INX / 2; ++pi)
            for (int pj = 0; pj < INX / 2; ++pj)
                for (int pk = 0; pk < INX / 2; ++pk) {
                    const int I = ox + pi, J = oy + pj, K = oz + pk;
                    const double c = parent.interior(f, I, J, K);
                    dvec3 slope{0, 0, 0};
                    if (slopes) {
                        // Central differences limited by one-sided ones; the
                        // parent's ghost zones must be valid (callers fill
                        // ghosts before prolonging). Slope is per fine cell
                        // offset of a quarter coarse cell.
                        auto at = [&](int di, int dj, int dk) {
                            return parent.at(f, H_BW + I + di, H_BW + J + dj,
                                             H_BW + K + dk);
                        };
                        slope.x = 0.25 * minmod(at(1, 0, 0) - c, c - at(-1, 0, 0));
                        slope.y = 0.25 * minmod(at(0, 1, 0) - c, c - at(0, -1, 0));
                        slope.z = 0.25 * minmod(at(0, 0, 1) - c, c - at(0, 0, -1));
                    }
                    for (int ci = 0; ci < 2; ++ci)
                        for (int cj = 0; cj < 2; ++cj)
                            for (int ck = 0; ck < 2; ++ck) {
                                const double sx = ci != 0 ? 1.0 : -1.0;
                                const double sy = cj != 0 ? 1.0 : -1.0;
                                const double sz = ck != 0 ? 1.0 : -1.0;
                                child.interior(f, 2 * pi + ci, 2 * pj + cj,
                                               2 * pk + ck) =
                                    c + sx * slope.x + sy * slope.y + sz * slope.z;
                            }
                }
    }

    // Spin correction: subtract the orbital part each child's momentum now
    // carries about the coarse center, l_f = l~_f - (r_f - R) x s_f.
    for (int pi = 0; pi < INX / 2; ++pi)
        for (int pj = 0; pj < INX / 2; ++pj)
            for (int pk = 0; pk < INX / 2; ++pk) {
                const dvec3 R = parent.geom.cell_center(ox + pi, oy + pj, oz + pk);
                for (int ci = 0; ci < 2; ++ci)
                    for (int cj = 0; cj < 2; ++cj)
                        for (int ck = 0; ck < 2; ++ck) {
                            const int fi = 2 * pi + ci, fj = 2 * pj + cj,
                                      fk = 2 * pk + ck;
                            const dvec3 r = child.geom.cell_center(fi, fj, fk);
                            const dvec3 s{child.interior(f_sx, fi, fj, fk),
                                          child.interior(f_sy, fi, fj, fk),
                                          child.interior(f_sz, fi, fj, fk)};
                            const dvec3 corr = cross(r - R, s);
                            child.interior(f_lx, fi, fj, fk) -= corr.x;
                            child.interior(f_ly, fi, fj, fk) -= corr.y;
                            child.interior(f_lz, fi, fj, fk) -= corr.z;
                        }
            }
}

dvec3 interior_angular_momentum(const subgrid& g) {
    dvec3 L{0, 0, 0};
    const double V = g.geom.cell_volume();
    for (int i = 0; i < INX; ++i)
        for (int j = 0; j < INX; ++j)
            for (int k = 0; k < INX; ++k) {
                const dvec3 r = g.geom.cell_center(i, j, k);
                const dvec3 s{g.interior(f_sx, i, j, k), g.interior(f_sy, i, j, k),
                              g.interior(f_sz, i, j, k)};
                const dvec3 l{g.interior(f_lx, i, j, k), g.interior(f_ly, i, j, k),
                              g.interior(f_lz, i, j, k)};
                L += (cross(r, s) + l) * V;
            }
    return L;
}

} // namespace octo::amr
