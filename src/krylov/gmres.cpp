#include "krylov/gmres.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "device/workspace.hpp"
#include "telemetry/telemetry.hpp"

namespace felis::krylov {

namespace {

/// In-order partials over [i0, i1) of J dots (w, v_j)_weight, one
/// independent accumulator per basis vector; term association as in glsc3.
template <int J>
void dot_pass(const real_t* w, const real_t* weight, const RealVec* const* v,
              usize i0, usize i1, real_t* out) {
  const real_t* vj[J];
  for (int j = 0; j < J; ++j) vj[j] = v[j]->data();
  real_t acc[J] = {};
  for (usize i = i0; i < i1; ++i)
    for (int j = 0; j < J; ++j) acc[j] += w[i] * vj[j][i] * weight[i];
  for (int j = 0; j < J; ++j) out[j] = acc[j];
}

}  // namespace

real_t classical_gram_schmidt(const operators::Context& ctx,
                              std::span<const RealVec* const> basis, RealVec& w,
                              std::span<real_t> h) {
  constexpr lidx_t kGrain = device::kReduceGrain;
  const usize nv = basis.size();
  const lidx_t n = static_cast<lidx_t>(w.size());
  FELIS_CHECK(nv >= 1 && h.size() == nv);
  const RealVec& weight = ctx.gs->inverse_multiplicity();
  device::Backend& dev = ctx.dev();

  // Sweep 1: per block, the partials of all k+1 dots, four basis vectors per
  // pass so the w and weight block stays in L1 across the passes. Partials
  // then combine in ascending block order per dot (the reduce_sum contract).
  const lidx_t nblocks = (n + kGrain - 1) / kGrain;
  device::WorkspaceFrame scratch;
  RealVec& partials = scratch.vec(static_cast<usize>(nblocks) * nv);
  dev.parallel_for_blocked(nblocks, /*grain=*/0, [&](lidx_t b0, lidx_t b1, int) {
    for (lidx_t b = b0; b < b1; ++b) {
      const usize i0 = static_cast<usize>(b * kGrain);
      const usize i1 = static_cast<usize>(std::min(n, (b + 1) * kGrain));
      real_t* out = partials.data() + static_cast<usize>(b) * nv;
      usize j = 0;
      for (; j + 4 <= nv; j += 4)
        dot_pass<4>(w.data(), weight.data(), &basis[j], i0, i1, out + j);
      switch (nv - j) {
        case 3: dot_pass<3>(w.data(), weight.data(), &basis[j], i0, i1, out + j); break;
        case 2: dot_pass<2>(w.data(), weight.data(), &basis[j], i0, i1, out + j); break;
        case 1: dot_pass<1>(w.data(), weight.data(), &basis[j], i0, i1, out + j); break;
        default: break;
      }
    }
  });
  std::fill(h.begin(), h.end(), real_t{0});
  for (lidx_t b = 0; b < nblocks; ++b)
    for (usize j = 0; j < nv; ++j)
      h[j] += partials[static_cast<usize>(b) * nv + j];
  ctx.comm->allreduce(h.data(), nv, comm::ReduceOp::kSum);
  if (ctx.prof) ctx.prof->add_reduction();

  // Sweep 2: w += (-h_j) v_j for every j in ascending order (vec_axpy's
  // per-entry arithmetic), one cache-hot range at a time, then that range's
  // w·w partials as in gdot(w, w).
  real_t ww = dev.reduce_sum(
      n,
      [&](lidx_t i) {
        const usize u = static_cast<usize>(i);
        return w[u] * w[u] * weight[u];
      },
      [&](lidx_t begin, lidx_t end) {
        for (usize j = 0; j < nv; ++j) {
          const real_t a = -h[j];
          const real_t* vj = basis[j]->data();
          for (lidx_t i = begin; i < end; ++i)
            w[static_cast<usize>(i)] += a * vj[static_cast<usize>(i)];
        }
      });
  ctx.comm->allreduce(&ww, 1, comm::ReduceOp::kSum);
  if (ctx.prof) {
    ctx.prof->add_flops(3.0 * static_cast<double>(w.size()));
    ctx.prof->add_bytes(3.0 * static_cast<double>(w.size() * sizeof(real_t)));
    ctx.prof->add_reduction();
  }
  return std::sqrt(ww);
}

SolveStats GmresSolver::solve(LinearOperator& op, Preconditioner& precon,
                              const RealVec& b, RealVec& x,
                              const SolveControl& control,
                              bool null_space_mean) const {
  const SolveStats stats =
      solve_impl(op, precon, b, x, control, null_space_mean);
  telemetry::charge_counter("krylov.gmres_solves");
  telemetry::charge_counter("krylov.gmres_iterations", stats.iterations);
  return stats;
}

SolveStats GmresSolver::solve_impl(LinearOperator& op, Preconditioner& precon,
                                   const RealVec& b, RealVec& x,
                                   const SolveControl& control,
                                   bool null_space_mean) const {
  const usize nd = ctx_.num_dofs();
  FELIS_CHECK(b.size() == nd && x.size() == nd);
  const int m = restart_;
  SolveStats stats;

  RealVec b_eff = b;
  if (null_space_mean) {
    // Project the RHS onto range(A) (constants are null): without this the
    // iteration diverges along the constant vector.
    operators::remove_null_component(ctx_, b_eff);
    operators::remove_mean(ctx_, x);
  }

  // Krylov basis (m+1 vectors), preconditioned directions and the work
  // vector, kept in this thread's workspace arena across solves. Contents
  // are stale, not zeroed: v_0 and each v_{k+1} are written before use (only
  // a NaN norm skips the write, and such a solve is lost anyway). Hessenberg
  // in Givens-rotated form.
  device::WorkspaceFrame arena;
  std::vector<RealVec*> v(static_cast<usize>(m) + 1), z(static_cast<usize>(m));
  for (RealVec*& vec : v) vec = &arena.vec(nd);
  for (RealVec*& vec : z) vec = &arena.vec(nd);
  RealVec& w = arena.vec(nd);
  std::vector<RealVec> h(static_cast<usize>(m),
                         RealVec(static_cast<usize>(m) + 1, 0.0));
  RealVec cs(static_cast<usize>(m), 0.0), sn(static_cast<usize>(m), 0.0),
      gamma(static_cast<usize>(m) + 1, 0.0);
  device::Backend& dev = ctx_.dev();

  real_t target = -1;
  for (int outer = 0; outer * m < control.max_iterations || outer == 0; ++outer) {
    // r = b - A x.
    op.apply(x, w);
    operators::vec_sub(dev, b_eff, w, *v[0]);
    if (null_space_mean) operators::remove_null_component(ctx_, *v[0]);
    const real_t beta = std::sqrt(operators::gdot(ctx_, *v[0], *v[0]));
    if (outer == 0) {
      stats.initial_residual = beta;
      target = std::max(control.abs_tol,
                        control.rel_tol > 0 ? control.rel_tol * beta : real_t(0));
    }
    stats.final_residual = beta;
    if (beta <= target) {
      stats.converged = true;
      return stats;
    }
    const real_t inv_beta = 1.0 / beta;
    operators::vec_scale(dev, inv_beta, *v[0]);
    gamma[0] = beta;
    std::fill(gamma.begin() + 1, gamma.end(), 0.0);

    int k = 0;
    bool happy = false;    ///< breakdown with exact solution in the space
    bool stalled = false;  ///< degenerate breakdown with no progress possible
    for (; k < m && stats.iterations < control.max_iterations; ++k) {
      // w = A M⁻¹ v_k  (right preconditioning).
      precon.apply(*v[static_cast<usize>(k)], *z[static_cast<usize>(k)]);
      op.apply(*z[static_cast<usize>(k)], w);
      if (null_space_mean) operators::remove_null_component(ctx_, w);
      real_t hk1 = 0;
      if (batched_orthogonalization_) {
        // Classical Gram–Schmidt: all k+1 basis dots in ONE reduction.
        hk1 = classical_gram_schmidt(
            ctx_, std::span<const RealVec* const>(v.data(), static_cast<usize>(k) + 1),
            w, std::span<real_t>(h[static_cast<usize>(k)].data(), static_cast<usize>(k) + 1));
      } else {
        // Modified Gram–Schmidt (one reduction per basis vector).
        for (int j = 0; j <= k; ++j) {
          const real_t hjk = operators::gdot(ctx_, w, *v[static_cast<usize>(j)]);
          h[static_cast<usize>(k)][static_cast<usize>(j)] = hjk;
          operators::vec_axpy(dev, -hjk, *v[static_cast<usize>(j)], w);
        }
        hk1 = std::sqrt(operators::gdot(ctx_, w, w));
      }
      h[static_cast<usize>(k)][static_cast<usize>(k) + 1] = hk1;
      if (hk1 > 0) {
        operators::vec_scaled(dev, 1.0 / hk1, w, *v[static_cast<usize>(k) + 1]);
      }
      // Apply previous Givens rotations to the new column.
      for (int j = 0; j < k; ++j) {
        const real_t t = cs[static_cast<usize>(j)] * h[static_cast<usize>(k)][static_cast<usize>(j)] +
                         sn[static_cast<usize>(j)] * h[static_cast<usize>(k)][static_cast<usize>(j) + 1];
        h[static_cast<usize>(k)][static_cast<usize>(j) + 1] =
            -sn[static_cast<usize>(j)] * h[static_cast<usize>(k)][static_cast<usize>(j)] +
            cs[static_cast<usize>(j)] * h[static_cast<usize>(k)][static_cast<usize>(j) + 1];
        h[static_cast<usize>(k)][static_cast<usize>(j)] = t;
      }
      // New rotation annihilating h(k+1,k).
      const real_t a = h[static_cast<usize>(k)][static_cast<usize>(k)];
      const real_t bb = h[static_cast<usize>(k)][static_cast<usize>(k) + 1];
      const real_t rho = std::hypot(a, bb);
      if (rho == 0) {
        // Degenerate breakdown: the rotated column vanished entirely, so
        // A·z_k added no information (only reachable for a singular
        // operator). The first k columns already hold the least-squares
        // optimum — back-substitute those; with k == 0 no progress is
        // possible at all and the solve must return instead of spinning.
        stalled = (k == 0);
        break;
      }
      cs[static_cast<usize>(k)] = a / rho;
      sn[static_cast<usize>(k)] = bb / rho;
      h[static_cast<usize>(k)][static_cast<usize>(k)] = rho;
      h[static_cast<usize>(k)][static_cast<usize>(k) + 1] = 0.0;
      gamma[static_cast<usize>(k) + 1] = -sn[static_cast<usize>(k)] * gamma[static_cast<usize>(k)];
      gamma[static_cast<usize>(k)] = cs[static_cast<usize>(k)] * gamma[static_cast<usize>(k)];
      ++stats.iterations;
      stats.final_residual = std::abs(gamma[static_cast<usize>(k) + 1]);
      if (hk1 == 0) {
        // Happy breakdown: A M⁻¹ v_k ∈ span{v_0..v_k}, so the small
        // least-squares residual is exactly zero and the true solution lies
        // in the current space (v[k+1] was never formed — w is zero).
        // Back-substitute the k+1 columns and return converged.
        stats.final_residual = 0.0;
        happy = true;
        ++k;
        break;
      }
      if (stats.final_residual <= target) {
        ++k;
        break;
      }
    }
    // Back-substitute y and update x += Σ y_j z_j.
    RealVec y(static_cast<usize>(k), 0.0);
    for (int i = k - 1; i >= 0; --i) {
      real_t s = gamma[static_cast<usize>(i)];
      for (int j = i + 1; j < k; ++j)
        s -= h[static_cast<usize>(j)][static_cast<usize>(i)] * y[static_cast<usize>(j)];
      y[static_cast<usize>(i)] = s / h[static_cast<usize>(i)][static_cast<usize>(i)];
    }
    for (int j = 0; j < k; ++j)
      operators::vec_axpy(dev, y[static_cast<usize>(j)],
                          *z[static_cast<usize>(j)], x);
    if (null_space_mean) operators::remove_mean(ctx_, x);
    if (happy || stats.final_residual <= target) {
      stats.converged = true;
      return stats;
    }
    if (stalled || stats.iterations >= control.max_iterations) return stats;
  }
  return stats;
}

}  // namespace felis::krylov
