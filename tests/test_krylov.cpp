// Tests for Krylov solvers: CG and GMRES on manufactured Poisson/Helmholtz
// problems (including spectral convergence with polynomial order and
// multi-rank equivalence), Jacobi preconditioning, null-space handling,
// GMRES breakdown recovery (happy and degenerate), the fused classical
// Gram–Schmidt kernel against its unfused form, and residual-projection
// initial guesses.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "krylov/cg.hpp"
#include "krylov/gmres.hpp"
#include "krylov/projection.hpp"
#include "operators/setup.hpp"

namespace felis::krylov {
namespace {

using operators::Context;

struct Manufactured {
  RealVec exact;
  RealVec rhs;  ///< assembled, masked weak RHS (φ, f)
};

/// u* = sin(πx)sin(πy)sin(πz), f = (3π² + λ)u* for (λB + A)u = Bf with
/// homogeneous Dirichlet on all box walls.
Manufactured make_sine_problem(const Context& ctx, real_t lambda) {
  Manufactured m;
  m.exact.resize(ctx.num_dofs());
  m.rhs.resize(ctx.num_dofs());
  for (usize i = 0; i < m.exact.size(); ++i) {
    const real_t s = std::sin(M_PI * ctx.coef->x[i]) *
                     std::sin(M_PI * ctx.coef->y[i]) *
                     std::sin(M_PI * ctx.coef->z[i]);
    m.exact[i] = s;
    m.rhs[i] = ctx.coef->mass[i] * (3 * M_PI * M_PI + lambda) * s;
  }
  ctx.gs->apply(m.rhs, gs::GsOp::kAdd);
  return m;
}

std::set<mesh::FaceTag> all_wall_tags() {
  return {mesh::FaceTag::kWall, mesh::FaceTag::kBottom, mesh::FaceTag::kTop,
          mesh::FaceTag::kSide};
}

real_t linf_error(const RealVec& a, const RealVec& b) {
  real_t e = 0;
  for (usize i = 0; i < a.size(); ++i) e = std::max(e, std::abs(a[i] - b[i]));
  return e;
}

class PoissonOrder : public ::testing::TestWithParam<int> {};

TEST_P(PoissonOrder, CgJacobiConvergesSpectrally) {
  const int N = GetParam();
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  comm::SelfComm comm;
  const auto setup = operators::make_rank_setup(mesh::make_box_mesh(cfg), N, comm, false);
  const Context ctx = setup.ctx();
  const auto mask = make_mask(ctx, all_wall_tags());
  HelmholtzOperator op(ctx, 1.0, 0.0, mask);
  JacobiPrecon precon(operators::diag_helmholtz(ctx, 1.0, 0.0));
  Manufactured m = make_sine_problem(ctx, 0.0);
  apply_mask(m.rhs, mask);
  RealVec x(ctx.num_dofs(), 0.0);
  CgSolver cg(ctx);
  SolveControl control;
  control.abs_tol = 1e-12;
  control.max_iterations = 500;
  const SolveStats stats = cg.solve(op, precon, m.rhs, x, control);
  EXPECT_TRUE(stats.converged);
  const real_t err = linf_error(x, m.exact);
  // Discretization error decays exponentially with N.
  const real_t bound = (N <= 3) ? 5e-2 : (N <= 5 ? 2e-3 : 2e-5);
  EXPECT_LT(err, bound) << "N=" << N << " iters=" << stats.iterations;
}

INSTANTIATE_TEST_SUITE_P(Orders, PoissonOrder, ::testing::Values(2, 3, 5, 7));

TEST(Cg, HelmholtzWithMassTermAndNonzeroGuess) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  comm::SelfComm comm;
  const auto setup = operators::make_rank_setup(mesh::make_box_mesh(cfg), 6, comm, false);
  const Context ctx = setup.ctx();
  const auto mask = make_mask(ctx, all_wall_tags());
  const real_t lambda = 25.0;
  HelmholtzOperator op(ctx, 1.0, lambda, mask);
  JacobiPrecon precon(operators::diag_helmholtz(ctx, 1.0, lambda));
  Manufactured m = make_sine_problem(ctx, lambda);
  apply_mask(m.rhs, mask);
  RealVec x(ctx.num_dofs(), 0.0);
  // Non-trivial starting guess still respecting the mask.
  for (usize i = 0; i < x.size(); ++i) x[i] = 0.3 * m.exact[i];
  CgSolver cg(ctx);
  SolveControl control;
  control.abs_tol = 1e-12;
  control.max_iterations = 400;
  const SolveStats stats = cg.solve(op, precon, m.rhs, x, control);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(linf_error(x, m.exact), 1e-6);
}

TEST(Cg, JacobiPreconditionerReducesIterations) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 3;
  comm::SelfComm comm;
  const auto setup = operators::make_rank_setup(mesh::make_box_mesh(cfg), 5, comm, false);
  const Context ctx = setup.ctx();
  const auto mask = make_mask(ctx, all_wall_tags());
  HelmholtzOperator op(ctx, 1.0, 0.0, mask);
  Manufactured m = make_sine_problem(ctx, 0.0);
  apply_mask(m.rhs, mask);
  SolveControl control;
  control.abs_tol = 1e-10;
  control.max_iterations = 2000;
  CgSolver cg(ctx);

  RealVec x1(ctx.num_dofs(), 0.0);
  IdentityPrecon ident;
  const SolveStats s1 = cg.solve(op, ident, m.rhs, x1, control);
  RealVec x2(ctx.num_dofs(), 0.0);
  JacobiPrecon jacobi(operators::diag_helmholtz(ctx, 1.0, 0.0));
  const SolveStats s2 = cg.solve(op, jacobi, m.rhs, x2, control);
  EXPECT_TRUE(s1.converged);
  EXPECT_TRUE(s2.converged);
  EXPECT_LT(s2.iterations, s1.iterations);
}

class ParallelPoisson : public ::testing::TestWithParam<int> {};

TEST_P(ParallelPoisson, MultiRankMatchesSerial) {
  const int nranks = GetParam();
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 3;
  const int N = 4;
  const mesh::HexMesh mesh = mesh::make_box_mesh(cfg);
  comm::run_parallel(nranks, [&](comm::Communicator& comm) {
    const auto setup = operators::make_rank_setup(mesh, N, comm, false);
    const Context ctx = setup.ctx();
    const auto mask = make_mask(ctx, all_wall_tags());
    HelmholtzOperator op(ctx, 1.0, 0.0, mask);
    JacobiPrecon precon(operators::diag_helmholtz(ctx, 1.0, 0.0));
    Manufactured m = make_sine_problem(ctx, 0.0);
    apply_mask(m.rhs, mask);
    RealVec x(ctx.num_dofs(), 0.0);
    CgSolver cg(ctx);
    SolveControl control;
    control.abs_tol = 1e-12;
    control.max_iterations = 500;
    const SolveStats stats = cg.solve(op, precon, m.rhs, x, control);
    EXPECT_TRUE(stats.converged);
    // Solution is the same manufactured field regardless of rank count.
    EXPECT_LT(linf_error(x, m.exact), 2e-4);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParallelPoisson, ::testing::Values(1, 2, 4));

TEST(Gmres, SolvesDirichletPoisson) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  comm::SelfComm comm;
  const auto setup = operators::make_rank_setup(mesh::make_box_mesh(cfg), 5, comm, false);
  const Context ctx = setup.ctx();
  const auto mask = make_mask(ctx, all_wall_tags());
  HelmholtzOperator op(ctx, 1.0, 0.0, mask);
  JacobiPrecon precon(operators::diag_helmholtz(ctx, 1.0, 0.0));
  Manufactured m = make_sine_problem(ctx, 0.0);
  apply_mask(m.rhs, mask);
  RealVec x(ctx.num_dofs(), 0.0);
  GmresSolver gmres(ctx, 20);
  SolveControl control;
  control.abs_tol = 1e-11;
  control.max_iterations = 300;
  const SolveStats stats = gmres.solve(op, precon, m.rhs, x, control);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(linf_error(x, m.exact), 2e-3);
}

TEST(Gmres, RestartStillConverges) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  comm::SelfComm comm;
  const auto setup = operators::make_rank_setup(mesh::make_box_mesh(cfg), 4, comm, false);
  const Context ctx = setup.ctx();
  const auto mask = make_mask(ctx, all_wall_tags());
  HelmholtzOperator op(ctx, 1.0, 0.0, mask);
  IdentityPrecon precon;
  Manufactured m = make_sine_problem(ctx, 0.0);
  apply_mask(m.rhs, mask);
  RealVec x(ctx.num_dofs(), 0.0);
  GmresSolver gmres(ctx, 5);  // tiny restart length forces several cycles
  SolveControl control;
  control.abs_tol = 1e-9;
  control.max_iterations = 2000;
  const SolveStats stats = gmres.solve(op, precon, m.rhs, x, control);
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.iterations, 5);
}

TEST(Gmres, AllNeumannPressurePoissonWithNullSpace) {
  // p* = cos(πx)cos(πy) has zero normal derivative on the unit box and zero
  // mean: the canonical pressure-Poisson test with the constant null space.
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  comm::SelfComm comm;
  const auto setup = operators::make_rank_setup(mesh::make_box_mesh(cfg), 6, comm, false);
  const Context ctx = setup.ctx();
  HelmholtzOperator op(ctx, 1.0, 0.0, {});  // no Dirichlet anywhere
  JacobiPrecon precon([&] {
    RealVec d = operators::diag_helmholtz(ctx, 1.0, 0.0);
    // Pure-Neumann diagonal is singular only w.r.t. the constant; Jacobi
    // entries are all positive, no fixup needed.
    return d;
  }());
  RealVec exact(ctx.num_dofs()), rhs(ctx.num_dofs());
  for (usize i = 0; i < exact.size(); ++i) {
    const real_t p = std::cos(M_PI * ctx.coef->x[i]) * std::cos(M_PI * ctx.coef->y[i]);
    exact[i] = p;
    rhs[i] = ctx.coef->mass[i] * 2 * M_PI * M_PI * p;
  }
  ctx.gs->apply(rhs, gs::GsOp::kAdd);
  RealVec x(ctx.num_dofs(), 0.0);
  GmresSolver gmres(ctx, 30);
  SolveControl control;
  control.abs_tol = 1e-10;
  control.max_iterations = 400;
  const SolveStats stats = gmres.solve(op, precon, rhs, x, control, true);
  EXPECT_TRUE(stats.converged);
  operators::remove_mean(ctx, x);
  EXPECT_LT(linf_error(x, exact), 5e-4);
}

/// out = 0 for every input: every Krylov direction collapses, which used to
/// trip the `rho > 0` check and abort the whole run.
class ZeroOperator final : public LinearOperator {
 public:
  void apply(const RealVec&, RealVec& out) override {
    std::fill(out.begin(), out.end(), 0.0);
  }
};

/// out = 2u: GMRES finds the exact solution in one iteration, producing a
/// happy breakdown (h(k+1,k) == 0) on a perfectly healthy system.
class ScaledIdentityOperator final : public LinearOperator {
 public:
  void apply(const RealVec& u, RealVec& out) override {
    out.resize(u.size());
    for (usize i = 0; i < u.size(); ++i) out[i] = 2.0 * u[i];
  }
};

TEST(Gmres, DegenerateBreakdownReturnsNotConvergedInsteadOfAborting) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  comm::SelfComm comm;
  const auto setup = operators::make_rank_setup(mesh::make_box_mesh(cfg), 3, comm, false);
  const Context ctx = setup.ctx();
  ZeroOperator op;
  IdentityPrecon precon;
  RealVec b(ctx.num_dofs(), 1.0);
  RealVec x(ctx.num_dofs(), 0.0);
  GmresSolver gmres(ctx, 10);
  SolveControl control;
  control.abs_tol = 1e-10;
  control.max_iterations = 50;
  SolveStats stats;
  // A·z contributes nothing, so rho == 0 on the very first column: the old
  // FELIS_CHECK aborted here; now the solve reports failure gracefully.
  EXPECT_NO_THROW(stats = gmres.solve(op, precon, b, x, control));
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.iterations, 0);
  EXPECT_EQ(stats.final_residual, stats.initial_residual);
  for (const real_t xi : x) {
    ASSERT_TRUE(std::isfinite(xi));
    ASSERT_EQ(xi, 0.0);  // no spurious update from the dead subspace
  }
}

TEST(Gmres, HappyBreakdownReturnsExactSolutionConverged) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  comm::SelfComm comm;
  const auto setup = operators::make_rank_setup(mesh::make_box_mesh(cfg), 4, comm, false);
  const Context ctx = setup.ctx();
  // Pick a dof whose inverse multiplicity is exactly 1 (element-interior
  // node): with b supported only there, every inner product in the solve is
  // exact in floating point, so the breakdown is hk1 == 0.0 precisely.
  const RealVec& weight = ctx.gs->inverse_multiplicity();
  usize dof = weight.size();
  for (usize i = 0; i < weight.size(); ++i)
    if (weight[i] == 1.0) {
      dof = i;
      break;
    }
  ASSERT_LT(dof, weight.size());
  ScaledIdentityOperator op;
  IdentityPrecon precon;
  RealVec b(ctx.num_dofs(), 0.0);
  b[dof] = 3.0;
  RealVec x(ctx.num_dofs(), 0.0);
  GmresSolver gmres(ctx, 10);  // restart length >> iterations needed
  SolveControl control;
  control.abs_tol = 1e-14;
  control.max_iterations = 50;
  SolveStats stats;
  // The old code hit FELIS_CHECK("GMRES breakdown") on the exact solve.
  EXPECT_NO_THROW(stats = gmres.solve(op, precon, b, x, control));
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.iterations, 1);
  EXPECT_EQ(stats.final_residual, 0.0);
  // 2x = b with b_d = 3: the happy-breakdown path back-substitutes to the
  // exact answer, bitwise.
  EXPECT_EQ(x[dof], 1.5);
  for (usize i = 0; i < x.size(); ++i) {
    if (i != dof) {
      ASSERT_EQ(x[i], 0.0);
    }
  }
}

/// gdot's association written out: in-order partials of x·y·weight per
/// kReduceGrain block, added in ascending block order.
real_t block_ordered_dot(const RealVec& x, const RealVec& y, const RealVec& weight) {
  real_t total = 0;
  for (usize b0 = 0; b0 < x.size(); b0 += device::kReduceGrain) {
    real_t block = 0;
    const usize b1 = std::min(x.size(), b0 + device::kReduceGrain);
    for (usize i = b0; i < b1; ++i) block += x[i] * y[i] * weight[i];
    total += block;
  }
  return total;
}

TEST(Gmres, FusedGramSchmidtMatchesPerVectorLoopBitwise) {
  // The unfused step, one basis vector at a time: k+1 dots, k+1 axpys in
  // ascending j, then the norm. The fused kernel must give the same bits
  // for every basis size GMRES(30) reaches, on serial and OpenMP.
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = 4;
  cfg.nz = 3;
  comm::SelfComm comm;
  device::SerialBackend serial;
  device::OpenMpBackend omp(3);
  for (device::Backend* backend :
       std::initializer_list<device::Backend*>{&serial, &omp}) {
    const auto setup = operators::make_rank_setup(mesh::make_box_mesh(cfg), 5,
                                                  comm, false, true, backend);
    const Context ctx = setup.ctx();
    const usize nd = ctx.num_dofs();
    ASSERT_GT(nd, 4 * static_cast<usize>(device::kReduceGrain));  // several blocks
    const RealVec& weight = ctx.gs->inverse_multiplicity();
    std::vector<RealVec> basis(31, RealVec(nd));
    for (usize j = 0; j < basis.size(); ++j)
      for (usize i = 0; i < nd; ++i)
        basis[j][i] = std::sin(0.013 * static_cast<real_t>((j + 1) * i) + 0.1 * j) /
                      static_cast<real_t>(1 + (i * 7 + j) % 23);
    RealVec w0(nd);
    for (usize i = 0; i < nd; ++i) w0[i] = std::cos(0.0071 * static_cast<real_t>(i)) + 0.3;
    std::vector<const RealVec*> ptrs;
    for (const RealVec& v : basis) ptrs.push_back(&v);

    for (usize k = 0; k <= 30; ++k) {
      RealVec expect_w = w0;
      RealVec expect_h(k + 1);
      for (usize j = 0; j <= k; ++j) expect_h[j] = block_ordered_dot(w0, basis[j], weight);
      for (usize j = 0; j <= k; ++j)
        for (usize i = 0; i < nd; ++i) expect_w[i] += -expect_h[j] * basis[j][i];
      const real_t expect_norm =
          std::sqrt(block_ordered_dot(expect_w, expect_w, weight));

      RealVec w = w0;
      RealVec h(k + 1);
      const OpCounters before = setup.prof->root().counters;
      const real_t norm = classical_gram_schmidt(
          ctx, std::span<const RealVec* const>(ptrs.data(), k + 1), w, h);
      const OpCounters after = setup.prof->root().counters;
      const std::string where = backend->name() + " k=" + std::to_string(k);
      EXPECT_EQ(norm, expect_norm) << where;
      for (usize j = 0; j <= k; ++j) ASSERT_EQ(h[j], expect_h[j]) << where << " j=" << j;
      for (usize i = 0; i < nd; ++i) ASSERT_EQ(w[i], expect_w[i]) << where << " i=" << i;
      // Same charges as the unfused form: the batched dot reduction plus
      // gdot(w, w).
      EXPECT_EQ(after.reductions - before.reductions, 2.0) << where;
      EXPECT_EQ(after.flops - before.flops, 3.0 * static_cast<double>(nd)) << where;
      EXPECT_EQ(after.bytes - before.bytes,
                3.0 * static_cast<double>(nd * sizeof(real_t))) << where;
    }
  }
}

TEST(Projection, SecondSolveOfSameSystemIsNearlyFree) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  comm::SelfComm comm;
  const auto setup = operators::make_rank_setup(mesh::make_box_mesh(cfg), 5, comm, false);
  const Context ctx = setup.ctx();
  const auto mask = make_mask(ctx, all_wall_tags());
  HelmholtzOperator op(ctx, 1.0, 0.0, mask);
  JacobiPrecon precon(operators::diag_helmholtz(ctx, 1.0, 0.0));
  CgSolver cg(ctx);
  SolveControl control;
  control.abs_tol = 1e-10;
  control.max_iterations = 500;
  ResidualProjection proj(ctx, 4);

  Manufactured m = make_sine_problem(ctx, 0.0);
  apply_mask(m.rhs, mask);

  int iters[2] = {0, 0};
  for (int round = 0; round < 2; ++round) {
    RealVec b = m.rhs;
    RealVec x0, dx(ctx.num_dofs(), 0.0), x;
    proj.pre_solve(b, x0);
    const SolveStats stats = cg.solve(op, precon, b, dx, control);
    proj.post_solve(op, x0, dx, x);
    iters[round] = stats.iterations;
    EXPECT_LT(linf_error(x, m.exact), 1e-4);
  }
  EXPECT_GT(iters[0], 10);
  EXPECT_LE(iters[1], 2);  // deflated RHS is (numerically) zero
  EXPECT_EQ(proj.basis_size(), 1u);  // second dx is linearly dependent
}

TEST(Projection, AcceleratesSlowlyVaryingRhsSequence) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  comm::SelfComm comm;
  const auto setup = operators::make_rank_setup(mesh::make_box_mesh(cfg), 4, comm, false);
  const Context ctx = setup.ctx();
  const auto mask = make_mask(ctx, all_wall_tags());
  HelmholtzOperator op(ctx, 1.0, 0.0, mask);
  JacobiPrecon precon(operators::diag_helmholtz(ctx, 1.0, 0.0));
  CgSolver cg(ctx);
  SolveControl control;
  control.abs_tol = 1e-9;
  control.max_iterations = 500;
  ResidualProjection proj(ctx, 8);

  // RHS drifts slowly, like pressure RHS across time steps.
  int first_iters = 0, last_iters = 0;
  for (int step = 0; step < 6; ++step) {
    RealVec b(ctx.num_dofs());
    const real_t theta = 0.05 * step;
    for (usize i = 0; i < b.size(); ++i) {
      const real_t s = std::sin(M_PI * ctx.coef->x[i]) *
                       std::sin(M_PI * ctx.coef->y[i]) *
                       std::sin(M_PI * ctx.coef->z[i]);
      const real_t t = std::sin(2 * M_PI * ctx.coef->x[i]) *
                       std::sin(M_PI * ctx.coef->y[i]) *
                       std::sin(M_PI * ctx.coef->z[i]);
      b[i] = ctx.coef->mass[i] * ((1 - theta) * s + theta * t);
    }
    ctx.gs->apply(b, gs::GsOp::kAdd);
    apply_mask(b, mask);
    RealVec x0, dx(ctx.num_dofs(), 0.0), x;
    proj.pre_solve(b, x0);
    const SolveStats stats = cg.solve(op, precon, b, dx, control);
    proj.post_solve(op, x0, dx, x);
    if (step == 0) first_iters = stats.iterations;
    last_iters = stats.iterations;
  }
  EXPECT_LT(last_iters, first_iters);
}

}  // namespace
}  // namespace felis::krylov
