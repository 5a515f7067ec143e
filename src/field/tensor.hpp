/// \file tensor.hpp
/// \brief Tensor-product kernels: apply a small 1-D matrix along one axis of
/// a 3-D element array.
///
/// These three contractions are the computational heart of the matrix-free
/// spectral-element method (§5.1): every element operator (stiffness, mass,
/// gradient, interpolation) is a chain of them. They are written as tight
/// scalar loops over contiguous data and are the bitwise reference: the
/// `simd` and `fixedN` variants in tensor_simd.hpp reproduce them bit for
/// bit, and the static table TensorKernels::for_order there picks one
/// variant per kernel and polynomial order.
#pragma once

#include "common/error.hpp"
#include "common/types.hpp"

namespace felis::field {

/// Small dense operator stored row-major: a[r*cols + c].
struct Op1D {
  RealVec a;
  int rows = 0;
  int cols = 0;

  real_t operator()(int r, int c) const {
    FELIS_ASSERT_MSG(r >= 0 && r < rows && c >= 0 && c < cols,
                     "Op1D index (" << r << "," << c << ") out of " << rows
                                    << "x" << cols);
    return a[static_cast<usize>(r) * static_cast<usize>(cols) + static_cast<usize>(c)];
  }
};

namespace detail {
/// Debug-only preconditions shared by the axis kernels: the operator table
/// must cover rows×cols and the trailing extents must be non-negative.
inline void check_op(const Op1D& op, int da, int db) {
  FELIS_ASSERT_MSG(op.rows > 0 && op.cols > 0,
                   "Op1D has degenerate shape " << op.rows << "x" << op.cols);
  FELIS_ASSERT_MSG(op.a.size() >=
                       static_cast<usize>(op.rows) * static_cast<usize>(op.cols),
                   "Op1D table holds " << op.a.size() << " entries, needs "
                                       << op.rows << "x" << op.cols);
  FELIS_ASSERT_MSG(da >= 0 && db >= 0,
                   "negative trailing extent (" << da << "," << db << ")");
}
}  // namespace detail

/// out(i,j,k) = Σ_a A(i,a) u(a,j,k);  u is c×d1×d2, out is r×d1×d2,
/// fastest index first.
inline void apply_axis0(const Op1D& op, const real_t* u, real_t* out, int d1,
                        int d2) {
  detail::check_op(op, d1, d2);
  const int r = op.rows, c = op.cols;
  for (int k = 0; k < d2; ++k) {
    for (int j = 0; j < d1; ++j) {
      const real_t* uin = u + static_cast<usize>(c) * (static_cast<usize>(j) +
                                                       static_cast<usize>(d1) * static_cast<usize>(k));
      real_t* uout = out + static_cast<usize>(r) * (static_cast<usize>(j) +
                                                    static_cast<usize>(d1) * static_cast<usize>(k));
      for (int i = 0; i < r; ++i) {
        real_t sum = 0;
        const real_t* row = op.a.data() + static_cast<usize>(i) * static_cast<usize>(c);
        for (int a = 0; a < c; ++a) sum += row[a] * uin[a];
        uout[i] = sum;
      }
    }
  }
}

/// out(i,j,k) = Σ_a A(j,a) u(i,a,k);  u is d0×c×d2, out is d0×r×d2.
inline void apply_axis1(const Op1D& op, const real_t* u, real_t* out, int d0,
                        int d2) {
  detail::check_op(op, d0, d2);
  const int r = op.rows, c = op.cols;
  for (int k = 0; k < d2; ++k) {
    const real_t* uk = u + static_cast<usize>(d0) * static_cast<usize>(c) * static_cast<usize>(k);
    real_t* ok = out + static_cast<usize>(d0) * static_cast<usize>(r) * static_cast<usize>(k);
    for (int j = 0; j < r; ++j) {
      real_t* oj = ok + static_cast<usize>(d0) * static_cast<usize>(j);
      for (int i = 0; i < d0; ++i) oj[i] = 0;
      const real_t* row = op.a.data() + static_cast<usize>(j) * static_cast<usize>(c);
      for (int a = 0; a < c; ++a) {
        const real_t w = row[a];
        const real_t* ua = uk + static_cast<usize>(d0) * static_cast<usize>(a);
        for (int i = 0; i < d0; ++i) oj[i] += w * ua[i];
      }
    }
  }
}

/// out(i,j,k) = Σ_a A(k,a) u(i,j,a);  u is d0×d1×c, out is d0×d1×r.
inline void apply_axis2(const Op1D& op, const real_t* u, real_t* out, int d0,
                        int d1) {
  detail::check_op(op, d0, d1);
  const int r = op.rows, c = op.cols;
  const usize plane = static_cast<usize>(d0) * static_cast<usize>(d1);
  for (int k = 0; k < r; ++k) {
    real_t* ok = out + plane * static_cast<usize>(k);
    for (usize i = 0; i < plane; ++i) ok[i] = 0;
    const real_t* row = op.a.data() + static_cast<usize>(k) * static_cast<usize>(c);
    for (int a = 0; a < c; ++a) {
      const real_t w = row[a];
      const real_t* ua = u + plane * static_cast<usize>(a);
      for (usize i = 0; i < plane; ++i) ok[i] += w * ua[i];
    }
  }
}

/// Reference-space gradient of one element: ur = D_r u, us = D_s u, ut = D_t u
/// for an n×n×n nodal array and n×n derivative operator.
inline void grad_ref(const Op1D& d, const real_t* u, real_t* ur, real_t* us,
                     real_t* ut, int n) {
  FELIS_ASSERT_MSG(d.rows == n && d.cols == n,
                   "grad_ref: operator is " << d.rows << "x" << d.cols
                                            << ", element order is " << n);
  apply_axis0(d, u, ur, n, n);
  apply_axis1(d, u, us, n, n);
  apply_axis2(d, u, ut, n, n);
}

/// Nodes per direction of the 3/2-rule dealias (Gauss) grid for n GLL
/// nodes, ⌈3n/2⌉: the m of interp3 in the dealiased advection.
constexpr int dealias_nodes(int n) { return (3 * n + 1) / 2; }

/// Interpolate an n³ element array to m³ via the op (m×n) applied on all
/// axes; `work` must hold ≥ m·n·(m+n) reals.
inline void interp3(const Op1D& op, const real_t* u, real_t* out, real_t* work,
                    int n, int m) {
  FELIS_ASSERT_MSG(op.rows == m && op.cols == n,
                   "interp3: operator is " << op.rows << "x" << op.cols
                                           << ", expected " << m << "x" << n);
  // n×n×n → m×n×n → m×m×n → m×m×m.
  real_t* t1 = work;                                       // m*n*n
  real_t* t2 = work + static_cast<usize>(m) * static_cast<usize>(n) * static_cast<usize>(n);
  apply_axis0(op, u, t1, n, n);
  apply_axis1(op, t1, t2, m, n);
  apply_axis2(op, t2, out, m, m);
}

}  // namespace felis::field
