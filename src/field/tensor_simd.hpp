/// \file tensor_simd.hpp
/// \brief Vectorized tensor-product kernel variants and the static per-order
/// table that picks one of them for each kernel.
///
/// Every variant here is *bitwise identical* to its reference kernel in
/// tensor.hpp by construction: for each output value the sequence of
/// floating-point operations (zero-initialize, then add products in ascending
/// contraction index) is exactly the reference sequence, and vector lanes map
/// only to independent outputs — the contraction (reduction) dimension is
/// never split across lanes, because `omp simd reduction` licenses
/// reassociation and would break the repo-wide bitwise-equivalence contract
/// (serial vs OpenMP at any thread count, selected vs reference kernels,
/// restart exactness). Which variant the table picks therefore never changes
/// a single bit of the solution, only its speed.
/// The same sequence also forbids fusing `t += a * b` into one FMA rounding:
/// felis compiles for the host's vector ISA with `-ffp-contract=off`
/// (src/CMakeLists.txt), so every lane performs the reference's separately
/// rounded multiply and add.
///
/// Variant families per kernel:
///  * `ref`      — the scalar loops from tensor.hpp;
///  * `simd`     — `#pragma omp simd` over contiguous output lanes, with the
///                 small operator pre-transposed onto the stack where the
///                 reference access pattern is strided (axis0);
///  * `fixedN`   — fully specialized for the common production orders
///                 (n = 4, 6, 8, 10, 12; paper production degree 7 → n = 8):
///                 compile-time trip counts let the compiler unroll and keep
///                 the operator row in registers. Besides the N×N element
///                 shape they cover the 3/2-rule dealias shapes M×N and
///                 N×M (M = dealias_nodes(N)) that the advector and interp3
///                 chains apply through the same entry points; any other
///                 runtime shape delegates to `simd`.
///
/// `TensorKernels::for_order(n)` is the one way a solver picks its kernels:
/// a fixed table, measured once (DESIGN.md §13), with no run-time timing.
/// operators::Context carries the table into every hot-path caller
/// (felis-lint's `raw-tensor-call` rule keeps direct apply_axis* calls out of
/// the rest of src/). The registries (`axis0_variants(n)` …) enumerate every
/// variant for one order so the tests can hold each of them to the
/// reference bit for bit.
#pragma once

#include <string>
#include <vector>

#include "field/tensor.hpp"

// Vector-lane hint for the variant loops. `omp simd` (honoured under
// -fopenmp/-fopenmp-simd) never reassociates here: it only ever annotates
// loops whose lanes are independent outputs.
#define FELIS_TENSOR_SIMD _Pragma("omp simd")

namespace felis::field {

/// Stack budget for the pre-transposed operator copies: operators up to
/// 32×32 (degree 31) take the vectorized path, anything larger falls back to
/// the reference kernel.
inline constexpr int kMaxSimdOpDim = 32;

// ---- axis0 ------------------------------------------------------------------

/// apply_axis0 with the operator pre-transposed onto the stack so the inner
/// accumulation streams contiguous lanes: lanes are the r outputs of one
/// column, the contraction index stays a sequential outer loop.
inline void apply_axis0_simd(const Op1D& op, const real_t* u, real_t* out,
                             int d1, int d2) {
  const int r = op.rows, c = op.cols;
  if (r > kMaxSimdOpDim || c > kMaxSimdOpDim) {
    apply_axis0(op, u, out, d1, d2);
    return;
  }
  detail::check_op(op, d1, d2);
  real_t at[kMaxSimdOpDim * kMaxSimdOpDim];
  for (int i = 0; i < r; ++i)
    for (int a = 0; a < c; ++a)
      at[a * r + i] = op.a[static_cast<usize>(i) * static_cast<usize>(c) +
                           static_cast<usize>(a)];
  const lidx_t ncol = static_cast<lidx_t>(d1) * static_cast<lidx_t>(d2);
  real_t t[kMaxSimdOpDim];
  for (lidx_t m = 0; m < ncol; ++m) {
    const real_t* uin = u + static_cast<usize>(c) * static_cast<usize>(m);
    real_t* uout = out + static_cast<usize>(r) * static_cast<usize>(m);
    FELIS_TENSOR_SIMD
    for (int i = 0; i < r; ++i) t[i] = 0;
    for (int a = 0; a < c; ++a) {
      const real_t ua = uin[a];
      const real_t* col = at + a * r;
      FELIS_TENSOR_SIMD
      for (int i = 0; i < r; ++i) t[i] += col[i] * ua;
    }
    FELIS_TENSOR_SIMD
    for (int i = 0; i < r; ++i) uout[i] = t[i];
  }
}

namespace detail {
/// apply_axis0 for an R×C operator with compile-time trip counts: the
/// transposed operator and the accumulator strip live on the stack.
template <int R, int C>
inline void axis0_fixed(const Op1D& op, const real_t* u, real_t* out, int d1,
                        int d2) {
  detail::check_op(op, d1, d2);
  real_t at[R * C];
  for (int i = 0; i < R; ++i)
    for (int a = 0; a < C; ++a)
      at[a * R + i] = op.a[static_cast<usize>(i * C + a)];
  const lidx_t ncol = static_cast<lidx_t>(d1) * static_cast<lidx_t>(d2);
  real_t t[R];
  for (lidx_t m = 0; m < ncol; ++m) {
    const real_t* uin = u + static_cast<usize>(C) * static_cast<usize>(m);
    real_t* uout = out + static_cast<usize>(R) * static_cast<usize>(m);
    FELIS_TENSOR_SIMD
    for (int i = 0; i < R; ++i) t[i] = 0;
    for (int a = 0; a < C; ++a) {
      const real_t ua = uin[a];
      const real_t* col = at + a * R;
      FELIS_TENSOR_SIMD
      for (int i = 0; i < R; ++i) t[i] += col[i] * ua;
    }
    FELIS_TENSOR_SIMD
    for (int i = 0; i < R; ++i) uout[i] = t[i];
  }
}
}  // namespace detail

/// apply_axis0 specialized to order N: the N×N element operator and the
/// M×N / N×M dealias interpolation and projection operators
/// (M = dealias_nodes(N)) run with compile-time trip counts. Any other
/// shape delegates to the generic simd variant.
template <int N>
inline void apply_axis0_fixed(const Op1D& op, const real_t* u, real_t* out,
                              int d1, int d2) {
  constexpr int M = dealias_nodes(N);
  if (op.rows == N && op.cols == N)
    detail::axis0_fixed<N, N>(op, u, out, d1, d2);
  else if (op.rows == M && op.cols == N)
    detail::axis0_fixed<M, N>(op, u, out, d1, d2);
  else if (op.rows == N && op.cols == M)
    detail::axis0_fixed<N, M>(op, u, out, d1, d2);
  else
    apply_axis0_simd(op, u, out, d1, d2);
}

// ---- axis1 ------------------------------------------------------------------

/// apply_axis1 with explicit lane hints: the reference loop order already
/// streams the contiguous d0 lanes, the pragma just guarantees the compiler
/// vectorizes them.
inline void apply_axis1_simd(const Op1D& op, const real_t* u, real_t* out,
                             int d0, int d2) {
  detail::check_op(op, d0, d2);
  const int r = op.rows, c = op.cols;
  for (int k = 0; k < d2; ++k) {
    const real_t* uk = u + static_cast<usize>(d0) * static_cast<usize>(c) *
                               static_cast<usize>(k);
    real_t* ok = out + static_cast<usize>(d0) * static_cast<usize>(r) *
                           static_cast<usize>(k);
    for (int j = 0; j < r; ++j) {
      real_t* oj = ok + static_cast<usize>(d0) * static_cast<usize>(j);
      FELIS_TENSOR_SIMD
      for (int i = 0; i < d0; ++i) oj[i] = 0;
      const real_t* row =
          op.a.data() + static_cast<usize>(j) * static_cast<usize>(c);
      for (int a = 0; a < c; ++a) {
        const real_t w = row[a];
        const real_t* ua = uk + static_cast<usize>(d0) * static_cast<usize>(a);
        FELIS_TENSOR_SIMD
        for (int i = 0; i < d0; ++i) oj[i] += w * ua[i];
      }
    }
  }
}

namespace detail {
/// apply_axis1 for an R×C operator on D0-long lanes with compile-time trip
/// counts (d2 stays a runtime extent).
template <int R, int C, int D0>
inline void axis1_fixed(const Op1D& op, const real_t* u, real_t* out,
                        int d2) {
  detail::check_op(op, D0, d2);
  for (int k = 0; k < d2; ++k) {
    const real_t* uk = u + static_cast<usize>(D0 * C) * static_cast<usize>(k);
    real_t* ok = out + static_cast<usize>(D0 * R) * static_cast<usize>(k);
    for (int j = 0; j < R; ++j) {
      real_t* oj = ok + static_cast<usize>(D0) * static_cast<usize>(j);
      FELIS_TENSOR_SIMD
      for (int i = 0; i < D0; ++i) oj[i] = 0;
      const real_t* row = op.a.data() + static_cast<usize>(j * C);
      for (int a = 0; a < C; ++a) {
        const real_t w = row[a];
        const real_t* ua = uk + static_cast<usize>(D0) * static_cast<usize>(a);
        FELIS_TENSOR_SIMD
        for (int i = 0; i < D0; ++i) oj[i] += w * ua[i];
      }
    }
  }
}
}  // namespace detail

/// apply_axis1 specialized to order N: the square element case (N×N on
/// N-long lanes), the dealias interpolation mid-chain (M×N on M-long lanes)
/// and the projection mid-chain (N×M on N-long lanes). Any other shape
/// delegates to simd.
template <int N>
inline void apply_axis1_fixed(const Op1D& op, const real_t* u, real_t* out,
                              int d0, int d2) {
  constexpr int M = dealias_nodes(N);
  if (op.rows == N && op.cols == N && d0 == N)
    detail::axis1_fixed<N, N, N>(op, u, out, d2);
  else if (op.rows == M && op.cols == N && d0 == M)
    detail::axis1_fixed<M, N, M>(op, u, out, d2);
  else if (op.rows == N && op.cols == M && d0 == N)
    detail::axis1_fixed<N, M, N>(op, u, out, d2);
  else
    apply_axis1_simd(op, u, out, d0, d2);
}

// ---- axis2 ------------------------------------------------------------------

/// apply_axis2 with explicit lane hints over the contiguous plane.
inline void apply_axis2_simd(const Op1D& op, const real_t* u, real_t* out,
                             int d0, int d1) {
  detail::check_op(op, d0, d1);
  const int r = op.rows, c = op.cols;
  const usize plane = static_cast<usize>(d0) * static_cast<usize>(d1);
  for (int k = 0; k < r; ++k) {
    real_t* ok = out + plane * static_cast<usize>(k);
    FELIS_TENSOR_SIMD
    for (usize i = 0; i < plane; ++i) ok[i] = 0;
    const real_t* row =
        op.a.data() + static_cast<usize>(k) * static_cast<usize>(c);
    for (int a = 0; a < c; ++a) {
      const real_t w = row[a];
      const real_t* ua = u + plane * static_cast<usize>(a);
      FELIS_TENSOR_SIMD
      for (usize i = 0; i < plane; ++i) ok[i] += w * ua[i];
    }
  }
}

namespace detail {
/// apply_axis2 for an R×C operator over a D×D plane with compile-time trip
/// counts.
template <int R, int C, int D>
inline void axis2_fixed(const Op1D& op, const real_t* u, real_t* out) {
  detail::check_op(op, D, D);
  constexpr usize plane = static_cast<usize>(D) * static_cast<usize>(D);
  for (int k = 0; k < R; ++k) {
    real_t* ok = out + plane * static_cast<usize>(k);
    FELIS_TENSOR_SIMD
    for (usize i = 0; i < plane; ++i) ok[i] = 0;
    const real_t* row = op.a.data() + static_cast<usize>(k * C);
    for (int a = 0; a < C; ++a) {
      const real_t w = row[a];
      const real_t* ua = u + plane * static_cast<usize>(a);
      FELIS_TENSOR_SIMD
      for (usize i = 0; i < plane; ++i) ok[i] += w * ua[i];
    }
  }
}
}  // namespace detail

/// apply_axis2 specialized to order N: N×N over an N×N plane, the dealias
/// interpolation's last sweep (M×N over an M×M plane) and the projection's
/// last sweep (N×M over an N×N plane). Any other shape delegates to simd.
template <int N>
inline void apply_axis2_fixed(const Op1D& op, const real_t* u, real_t* out,
                              int d0, int d1) {
  constexpr int M = dealias_nodes(N);
  if (op.rows == N && op.cols == N && d0 == N && d1 == N)
    detail::axis2_fixed<N, N, N>(op, u, out);
  else if (op.rows == M && op.cols == N && d0 == M && d1 == M)
    detail::axis2_fixed<M, N, M>(op, u, out);
  else if (op.rows == N && op.cols == M && d0 == N && d1 == N)
    detail::axis2_fixed<N, M, N>(op, u, out);
  else
    apply_axis2_simd(op, u, out, d0, d1);
}

// ---- composite kernels ------------------------------------------------------

inline void grad_ref_simd(const Op1D& d, const real_t* u, real_t* ur,
                          real_t* us, real_t* ut, int n) {
  FELIS_ASSERT_MSG(d.rows == n && d.cols == n,
                   "grad_ref: operator is " << d.rows << "x" << d.cols
                                            << ", element order is " << n);
  apply_axis0_simd(d, u, ur, n, n);
  apply_axis1_simd(d, u, us, n, n);
  apply_axis2_simd(d, u, ut, n, n);
}

template <int N>
inline void grad_ref_fixed(const Op1D& d, const real_t* u, real_t* ur,
                           real_t* us, real_t* ut, int n) {
  FELIS_ASSERT_MSG(d.rows == n && d.cols == n,
                   "grad_ref: operator is " << d.rows << "x" << d.cols
                                            << ", element order is " << n);
  apply_axis0_fixed<N>(d, u, ur, n, n);
  apply_axis1_fixed<N>(d, u, us, n, n);
  apply_axis2_fixed<N>(d, u, ut, n, n);
}

inline void interp3_simd(const Op1D& op, const real_t* u, real_t* out,
                         real_t* work, int n, int m) {
  FELIS_ASSERT_MSG(op.rows == m && op.cols == n,
                   "interp3: operator is " << op.rows << "x" << op.cols
                                           << ", expected " << m << "x" << n);
  real_t* t1 = work;  // m*n*n
  real_t* t2 = work + static_cast<usize>(m) * static_cast<usize>(n) *
                          static_cast<usize>(n);
  apply_axis0_simd(op, u, t1, n, n);
  apply_axis1_simd(op, t1, t2, m, n);
  apply_axis2_simd(op, t2, out, m, m);
}

/// interp3 specialized to order N onto the dealias grid (m = M): the three
/// sweeps run at compile-time shapes M×N×N → M×M×N → M×M×M. Any other
/// (n, m) delegates to interp3_simd.
template <int N>
inline void interp3_fixed(const Op1D& op, const real_t* u, real_t* out,
                          real_t* work, int n, int m) {
  constexpr int M = dealias_nodes(N);
  if (n != N || m != M) {
    interp3_simd(op, u, out, work, n, m);
    return;
  }
  FELIS_ASSERT_MSG(op.rows == M && op.cols == N,
                   "interp3: operator is " << op.rows << "x" << op.cols
                                           << ", expected " << M << "x" << N);
  real_t* t1 = work;  // M*N*N
  real_t* t2 = work + static_cast<usize>(M * N * N);
  detail::axis0_fixed<M, N>(op, u, t1, N, N);
  detail::axis1_fixed<M, N, M>(op, t1, t2, N);
  detail::axis2_fixed<M, N, M>(op, t2, out);
}

// ---- kernel table -----------------------------------------------------------

using AxisFn = void (*)(const Op1D&, const real_t*, real_t*, int, int);
using GradFn = void (*)(const Op1D&, const real_t*, real_t*, real_t*, real_t*,
                        int);
using InterpFn = void (*)(const Op1D&, const real_t*, real_t*, real_t*, int,
                          int);

/// The tensor-kernel table operators::Context carries: one function pointer
/// per kernel plus the chosen variant's name (the `kernels` telemetry header).
/// Default-constructed it points at the reference kernels.
struct TensorKernels {
  AxisFn axis0 = &apply_axis0;
  AxisFn axis1 = &apply_axis1;
  AxisFn axis2 = &apply_axis2;
  GradFn grad = &grad_ref;
  InterpFn interp = &interp3;
  const char* axis0_name = "ref";
  const char* axis1_name = "ref";
  const char* axis2_name = "ref";
  const char* grad_name = "ref";
  const char* interp_name = "ref";

  /// Shared immutable reference table (the fallback for null Context
  /// pointers).
  static const TensorKernels& reference() {
    static const TensorKernels table;
    return table;
  }

  /// The kernels for order `n` (nodes per direction), from a static table of
  /// per-(kernel, n) winners measured on n = 2..12 (DESIGN.md §13):
  ///  * n = 4, 6, 8, 10, 12: `fixedN` in every slot;
  ///  * other n: `simd` for axis1 and axis2; `ref` for axis0 up to n = 7,
  ///    for grad up to n = 5 and for interp3 up to n = 3, `simd` above.
  static TensorKernels for_order(int n);

  /// "axis0=<variant>,axis1=…,axis2=…,grad=…,interp3=…" — the `kernels`
  /// telemetry header value.
  std::string describe() const {
    return std::string("axis0=") + axis0_name + ",axis1=" + axis1_name +
           ",axis2=" + axis2_name + ",grad=" + grad_name +
           ",interp3=" + interp_name;
  }
};

/// One variant of an axis kernel.
struct AxisVariant {
  const char* name;
  AxisFn fn;
};
struct GradVariant {
  const char* name;
  GradFn fn;
};
struct InterpVariant {
  const char* name;
  InterpFn fn;
};

namespace detail {
/// Append the fixed-N specializations matching `n` (the common production
/// orders; degree 7 of the paper is n = 8).
template <template <int> class Pick, typename Variant>
inline void add_fixed(std::vector<Variant>& v, int n) {
  if (n == 4) v.push_back({"fixed4", Pick<4>::fn});
  if (n == 6) v.push_back({"fixed6", Pick<6>::fn});
  if (n == 8) v.push_back({"fixed8", Pick<8>::fn});
  if (n == 10) v.push_back({"fixed10", Pick<10>::fn});
  if (n == 12) v.push_back({"fixed12", Pick<12>::fn});
}
template <int N>
struct PickAxis0 {
  static constexpr AxisFn fn = &apply_axis0_fixed<N>;
};
template <int N>
struct PickAxis1 {
  static constexpr AxisFn fn = &apply_axis1_fixed<N>;
};
template <int N>
struct PickAxis2 {
  static constexpr AxisFn fn = &apply_axis2_fixed<N>;
};
template <int N>
struct PickGrad {
  static constexpr GradFn fn = &grad_ref_fixed<N>;
};
template <int N>
struct PickInterp {
  static constexpr InterpFn fn = &interp3_fixed<N>;
};
}  // namespace detail

/// Every variant of each kernel for one polynomial order (n = nodes per
/// direction), reference first: what the bitwise tests sweep and the kernel
/// benches time.
inline std::vector<AxisVariant> axis0_variants(int n) {
  std::vector<AxisVariant> v{{"ref", &apply_axis0}, {"simd", &apply_axis0_simd}};
  detail::add_fixed<detail::PickAxis0>(v, n);
  return v;
}

inline std::vector<AxisVariant> axis1_variants(int n) {
  std::vector<AxisVariant> v{{"ref", &apply_axis1}, {"simd", &apply_axis1_simd}};
  detail::add_fixed<detail::PickAxis1>(v, n);
  return v;
}

inline std::vector<AxisVariant> axis2_variants(int n) {
  std::vector<AxisVariant> v{{"ref", &apply_axis2}, {"simd", &apply_axis2_simd}};
  detail::add_fixed<detail::PickAxis2>(v, n);
  return v;
}

inline std::vector<GradVariant> grad_variants(int n) {
  std::vector<GradVariant> v{{"ref", &grad_ref}, {"simd", &grad_ref_simd}};
  detail::add_fixed<detail::PickGrad>(v, n);
  return v;
}

inline std::vector<InterpVariant> interp_variants(int n) {
  std::vector<InterpVariant> v{{"ref", &interp3}, {"simd", &interp3_simd}};
  detail::add_fixed<detail::PickInterp>(v, n);
  return v;
}

namespace detail {
/// Every slot specialized to order N, each named `name`.
template <int N>
inline TensorKernels fixed_kernels(const char* name) {
  return {&apply_axis0_fixed<N>, &apply_axis1_fixed<N>, &apply_axis2_fixed<N>,
          &grad_ref_fixed<N>, &interp3_fixed<N>,
          name, name, name, name, name};
}
}  // namespace detail

inline TensorKernels TensorKernels::for_order(int n) {
  switch (n) {
    case 4: return detail::fixed_kernels<4>("fixed4");
    case 6: return detail::fixed_kernels<6>("fixed6");
    case 8: return detail::fixed_kernels<8>("fixed8");
    case 10: return detail::fixed_kernels<10>("fixed10");
    case 12: return detail::fixed_kernels<12>("fixed12");
    default: break;
  }
  TensorKernels k;
  k.axis1 = &apply_axis1_simd;
  k.axis1_name = "simd";
  k.axis2 = &apply_axis2_simd;
  k.axis2_name = "simd";
  if (n > 7) {
    k.axis0 = &apply_axis0_simd;
    k.axis0_name = "simd";
  }
  if (n > 5) {
    k.grad = &grad_ref_simd;
    k.grad_name = "simd";
  }
  if (n > 3) {
    k.interp = &interp3_simd;
    k.interp_name = "simd";
  }
  return k;
}

}  // namespace felis::field
