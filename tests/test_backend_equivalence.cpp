// Serial-vs-OpenMP backend equivalence: the blocked-dispatch contract and the
// deterministic blocked reductions promise that every kernel produces the
// SAME BITS on every backend and thread count. These tests hold the code to
// that promise — element kernels, the dealiased advector, dots/CFL, and a
// full multi-step RBC solve are compared bitwise between a SerialBackend
// setup and OpenMpBackend setups at 1, 2 and 4 threads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "case/rbc.hpp"
#include "case/registry.hpp"
#include "common/crc32.hpp"
#include "device/backend.hpp"
#include "operators/ops.hpp"
#include "operators/setup.hpp"
#include "precon/coarse.hpp"

namespace felis {
namespace {

mesh::HexMesh test_mesh() {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 3;
  cfg.lx = cfg.ly = 2.0;
  cfg.lz = 1.0;
  cfg.periodic_x = cfg.periodic_y = true;
  return make_box_mesh(cfg);
}

/// Smooth deterministic field from the node coordinates (identical for two
/// setups over the same mesh, regardless of backend).
RealVec smooth_field(const operators::Context& ctx, real_t mode) {
  RealVec f(ctx.num_dofs());
  for (usize i = 0; i < f.size(); ++i) {
    f[i] = std::sin(mode * ctx.coef->x[i] + 0.3) *
               std::cos(0.7 * mode * ctx.coef->y[i]) +
           0.25 * ctx.coef->z[i] * ctx.coef->z[i];
  }
  return f;
}

void expect_bitwise(const RealVec& a, const RealVec& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (usize i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << what << " differs at dof " << i;
}

/// One serial and one OpenMP discretization of the same mesh; everything a
/// kernel-equivalence test needs.
class BackendEquivalence : public ::testing::TestWithParam<int> {
 protected:
  BackendEquivalence()
      : omp_(GetParam()),
        mesh_(test_mesh()),
        s_setup_(operators::make_rank_setup(mesh_, 5, comm_, true, true,
                                            &serial_)),
        p_setup_(operators::make_rank_setup(mesh_, 5, comm_, true, true,
                                            &omp_)) {}

  comm::SelfComm comm_;
  device::SerialBackend serial_;
  device::OpenMpBackend omp_;
  mesh::HexMesh mesh_;
  operators::RankSetup s_setup_;
  operators::RankSetup p_setup_;
};

TEST_P(BackendEquivalence, AxHelmholtzBitwise) {
  const operators::Context sc = s_setup_.ctx(), pc = p_setup_.ctx();
  const RealVec u = smooth_field(sc, 2.0);
  RealVec a(sc.num_dofs()), b(pc.num_dofs());
  operators::ax_helmholtz(sc, u, a, 1.3, 0.4);
  operators::ax_helmholtz(pc, u, b, 1.3, 0.4);
  expect_bitwise(a, b, "ax_helmholtz");
}

TEST_P(BackendEquivalence, GradBitwise) {
  const operators::Context sc = s_setup_.ctx(), pc = p_setup_.ctx();
  const RealVec u = smooth_field(sc, 3.0);
  const usize nd = sc.num_dofs();
  RealVec ax(nd), ay(nd), az(nd), bx(nd), by(nd), bz(nd);
  operators::grad(sc, u, ax, ay, az);
  operators::grad(pc, u, bx, by, bz);
  expect_bitwise(ax, bx, "grad.x");
  expect_bitwise(ay, by, "grad.y");
  expect_bitwise(az, bz, "grad.z");
}

TEST_P(BackendEquivalence, DivWeakBitwise) {
  const operators::Context sc = s_setup_.ctx(), pc = p_setup_.ctx();
  const RealVec ux = smooth_field(sc, 1.0);
  const RealVec uy = smooth_field(sc, 2.0);
  const RealVec uz = smooth_field(sc, 3.0);
  RealVec a(sc.num_dofs()), b(pc.num_dofs());
  operators::div_weak(sc, ux, uy, uz, a);
  operators::div_weak(pc, ux, uy, uz, b);
  expect_bitwise(a, b, "div_weak");
}

TEST_P(BackendEquivalence, DiagHelmholtzBitwise) {
  const RealVec a = operators::diag_helmholtz(s_setup_.ctx(), 0.7, 1.9);
  const RealVec b = operators::diag_helmholtz(p_setup_.ctx(), 0.7, 1.9);
  expect_bitwise(a, b, "diag_helmholtz");
}

TEST_P(BackendEquivalence, AdvectorBitwise) {
  const operators::Context sc = s_setup_.ctx(), pc = p_setup_.ctx();
  const RealVec cx = smooth_field(sc, 1.0);
  const RealVec cy = smooth_field(sc, 1.5);
  const RealVec cz = smooth_field(sc, 2.0);
  const RealVec u = smooth_field(sc, 2.5);
  operators::Advector adv_s(sc), adv_p(pc);
  adv_s.set_velocity(cx, cy, cz);
  adv_p.set_velocity(cx, cy, cz);
  RealVec a(sc.num_dofs(), 0.1), b(pc.num_dofs(), 0.1);
  adv_s.apply(u, a, -1.0);
  adv_p.apply(u, b, -1.0);
  expect_bitwise(a, b, "advector");
}

TEST_P(BackendEquivalence, DotsAndCflBitwise) {
  const operators::Context sc = s_setup_.ctx(), pc = p_setup_.ctx();
  const RealVec x = smooth_field(sc, 2.0);
  const RealVec y = smooth_field(sc, 4.0);
  EXPECT_EQ(operators::gdot(sc, x, y), operators::gdot(pc, x, y));
  EXPECT_EQ(operators::cfl(sc, x, y, x, 1e-2), operators::cfl(pc, x, y, x, 1e-2));
  RealVec ms = x, mp = x;
  operators::remove_mean(sc, ms);
  operators::remove_mean(pc, mp);
  expect_bitwise(ms, mp, "remove_mean");
}

TEST_P(BackendEquivalence, FullRbcStepBitwise) {
  // End-to-end: pressure GMRES + HSMG, velocity/temperature CG, advection,
  // forcing — a few full time steps must be bit-identical across backends.
  auto cs_setup = precon::make_coarse_setup(mesh_, comm_, &serial_);
  auto cp_setup = precon::make_coarse_setup(mesh_, comm_, &omp_);
  rbc::RbcConfig config;
  config.rayleigh = 1e4;
  config.dt = 2e-2;
  config.perturbation_lx = config.perturbation_ly = 2.0;
  config.flow.velocity_walls = {mesh::FaceTag::kBottom, mesh::FaceTag::kTop};
  rbc::RbcSimulation sim_s(s_setup_.ctx(), cs_setup.ctx(), config);
  rbc::RbcSimulation sim_p(p_setup_.ctx(), cp_setup.ctx(), config);
  sim_s.set_initial_conditions();
  sim_p.set_initial_conditions();
  for (int s = 0; s < 3; ++s) {
    const fluid::StepInfo is = sim_s.step();
    const fluid::StepInfo ip = sim_p.step();
    EXPECT_EQ(is.cfl, ip.cfl) << "step " << s;
    EXPECT_EQ(is.divergence, ip.divergence) << "step " << s;
  }
  expect_bitwise(sim_s.solver().temperature(), sim_p.solver().temperature(),
                 "temperature");
  expect_bitwise(sim_s.solver().u(), sim_p.solver().u(), "u");
  expect_bitwise(sim_s.solver().v(), sim_p.solver().v(), "v");
  expect_bitwise(sim_s.solver().w(), sim_p.solver().w(), "w");
}

INSTANTIATE_TEST_SUITE_P(Threads, BackendEquivalence,
                         ::testing::Values(1, 2, 4));

// ---- pinned bits --------------------------------------------------------
//
// The equivalence tests above compare two backends of the SAME code, so a
// change that alters every backend alike (a different summation order in a
// reduction, a reordered gather-scatter combine) passes them. These literals
// pin the results themselves: CRC-32s of the final fields and of the per-step
// iteration sequence of two registered cases, recorded before the vector
// layer was restructured for speed, must stay exactly the same. They hold
// for this toolchain with -march=native -ffp-contract=off; a different
// compiler or libm may legitimately move them, a code change must not.

struct PinnedRun {
  std::uint32_t fields = 0;      ///< final u, v, w, T, p (chained CRC-32)
  std::uint32_t iterations = 0;  ///< per step: pressure, velocity, scalar
};

PinnedRun run_pinned_case(const std::string& type, device::Backend& backend) {
  ParamMap params;
  params.set("case.type", type);
  params.set("case.Ra", 1e5);
  params.set("case.dt", 1e-2);
  comm::SelfComm comm;
  const std::unique_ptr<cases::CaseSetup> setup = cases::build_case(
      cases::resolve_case(params), params, comm, &backend);
  setup->sim->set_initial_conditions();
  std::vector<int> iterations;
  for (int s = 0; s < 4; ++s) {
    const fluid::StepInfo info = setup->sim->step();
    iterations.push_back(info.pressure_iterations);
    iterations.push_back(info.velocity_iterations);
    iterations.push_back(info.scalar_iterations);
  }
  PinnedRun run;
  const fluid::FlowSolver& s = setup->sim->solver();
  for (const RealVec* f : {&s.u(), &s.v(), &s.w(), &s.temperature(),
                           &s.pressure()})
    run.fields = crc32(reinterpret_cast<const std::byte*>(f->data()),
                       f->size() * sizeof(real_t), run.fields);
  run.iterations =
      crc32(reinterpret_cast<const std::byte*>(iterations.data()),
            iterations.size() * sizeof(int));
  return run;
}

struct PinnedCase {
  const char* type;
  PinnedRun expect;
};

class PinnedBits : public ::testing::TestWithParam<PinnedCase> {};

TEST_P(PinnedBits, SerialAndOpenMpMatchRecordedCrcs) {
  const PinnedCase& pinned = GetParam();
  device::SerialBackend serial;
  device::OpenMpBackend omp(2);
  for (device::Backend* backend :
       std::initializer_list<device::Backend*>{&serial, &omp}) {
    const PinnedRun got = run_pinned_case(pinned.type, *backend);
    EXPECT_EQ(got.fields, pinned.expect.fields)
        << pinned.type << " on " << backend->name() << ": fields crc 0x"
        << std::hex << got.fields;
    EXPECT_EQ(got.iterations, pinned.expect.iterations)
        << pinned.type << " on " << backend->name() << ": iterations crc 0x"
        << std::hex << got.iterations;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PinnedBits,
    ::testing::Values(PinnedCase{"rbc", {0x7fb6a6dbu, 0xe7bf3980u}},
                      PinnedCase{"rbc_cyl", {0xfba7b4b1u, 0x672dc073u}}),
    [](const ::testing::TestParamInfo<PinnedCase>& info) {
      return std::string(info.param.type);
    });

}  // namespace
}  // namespace felis
