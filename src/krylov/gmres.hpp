/// \file gmres.hpp
/// \brief Restarted, right-preconditioned GMRES.
///
/// "the pressure is solved through a hybrid-Schwarz multigrid preconditioner
/// combined with GMRES" (§6). Right preconditioning keeps the residual in
/// the unpreconditioned norm (the quantity the splitting scheme controls),
/// and lets the preconditioner change between restarts.
#pragma once

#include <span>

#include "krylov/solver.hpp"

namespace felis::krylov {

/// One classical Gram–Schmidt step of w against the basis v_0..v_k:
/// h[j] = (w, v_j) for every j in ONE global reduction, w -= Σ_j h[j] v_j,
/// and the return value ||w|| (the gdot norm, a second reduction). Bitwise
/// the same as k+1 gdot-style dots, k+1 vec_axpy updates in ascending j and a
/// gdot(w, w), but fused into two sweeps per kReduceGrain block: one for all
/// k+1 dots (four basis vectors per pass on independent accumulators), one
/// for all k+1 updates plus the block's w·w partial. Profiler charges match
/// the unfused form: two reductions, 3n flops and 3n doubles for the norm.
real_t classical_gram_schmidt(const operators::Context& ctx,
                              std::span<const RealVec* const> basis, RealVec& w,
                              std::span<real_t> h);

class GmresSolver {
 public:
  /// `batched_orthogonalization`: classical Gram–Schmidt with all basis dot
  /// products fused into ONE global reduction per iteration (the standard
  /// production choice at scale — modified GS would cost k reductions per
  /// iteration). It is a single pass: there is no re-orthogonalisation, so a
  /// basis that loses orthogonality through cancellation is used as is.
  /// `false` selects modified Gram–Schmidt, one reduction per basis vector.
  /// The m+1 basis vectors and m preconditioned directions live in the
  /// calling thread's device::Workspace arena, so repeated solves reuse them
  /// instead of allocating and zero-filling 2m+1 vectors each time.
  GmresSolver(const operators::Context& ctx, int restart = 30,
              bool batched_orthogonalization = true)
      : ctx_(ctx),
        restart_(restart),
        batched_orthogonalization_(batched_orthogonalization) {}

  /// Solve A x = b from initial guess x. If `null_space_mean` is true the
  /// operator has the constant null space of the all-Neumann pressure
  /// problem; the mean is projected out of b, of x, and of every solution
  /// update.
  SolveStats solve(LinearOperator& op, Preconditioner& precon, const RealVec& b,
                   RealVec& x, const SolveControl& control,
                   bool null_space_mean = false) const;

 private:
  SolveStats solve_impl(LinearOperator& op, Preconditioner& precon,
                        const RealVec& b, RealVec& x,
                        const SolveControl& control, bool null_space_mean) const;

  operators::Context ctx_;
  int restart_;
  bool batched_orthogonalization_;
};

}  // namespace felis::krylov
