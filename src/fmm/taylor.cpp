#include "fmm/taylor.hpp"

// The Taylor algebra is header-only (it must inline into the kernels); this
// translation unit exists to give the header a home for compile checking and
// to anchor the explicit sanity constants.

namespace octo::fmm {

static_assert(idx2(0, 0) == 4 && idx2(2, 2) == 9);
static_assert(idx3(0, 0, 0) == 10 && idx3(2, 2, 2) == 19);
static_assert(idx3(0, 1, 2) == 14);
static_assert([] {
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            for (int k = 0; k < 3; ++k) {
                const int v = idx3(i, j, k);
                if (idx3(i, k, j) != v || idx3(j, i, k) != v || idx3(j, k, i) != v ||
                    idx3(k, i, j) != v || idx3(k, j, i) != v)
                    return false;
            }
    return true;
}(), "idx3 must be symmetric in its three indices");
static_assert(mult3(0, 1, 2) == 6.0 && mult3(0, 0, 1) == 3.0 && mult3(1, 1, 1) == 1.0);

} // namespace octo::fmm
