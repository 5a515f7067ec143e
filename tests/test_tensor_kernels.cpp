// Vectorized tensor-kernel equivalence and per-order kernel table tests.
//
// The contract under test: every variant in the field/tensor_simd.hpp
// registries produces THE SAME BITS as the scalar reference kernel for every
// shape it can be called with (square and rectangular operators, all three
// axes, the fused gradient, the interpolation chain). That contract is what
// makes the per-order table safe — which variant it picks changes speed,
// never what the solver computes. The final test holds the full solver to
// it: a multi-step RBC solve with the selected kernels must match one with
// the kernels pinned to the reference, bitwise. The FpContraction tests
// guard the build side of the contract: no flag may fuse a*b+c into an FMA.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "case/rbc.hpp"
#include "common/error.hpp"
#include "field/tensor_simd.hpp"
#include "operators/ops.hpp"
#include "operators/setup.hpp"
#include "precon/coarse.hpp"

namespace felis {
namespace {

field::Op1D random_op(std::mt19937& rng, int rows, int cols) {
  std::uniform_real_distribution<real_t> dist(-1.0, 1.0);
  field::Op1D op;
  op.rows = rows;
  op.cols = cols;
  op.a.resize(static_cast<usize>(rows) * static_cast<usize>(cols));
  for (real_t& v : op.a) v = dist(rng);
  return op;
}

RealVec random_vec(std::mt19937& rng, usize size) {
  std::uniform_real_distribution<real_t> dist(-1.0, 1.0);
  RealVec v(size);
  for (real_t& x : v) x = dist(rng);
  return v;
}

void expect_bitwise(const RealVec& a, const RealVec& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (usize i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << what << " differs at index " << i;
}

// ---- variant equivalence ----------------------------------------------------

// Square n×n operators on n³ data for every registry variant, n = 2..12:
// the shape every solver hot loop (ax, fdm, modal transform) uses.
TEST(TensorVariants, SquareOpsBitwiseAtAllOrders) {
  std::mt19937 rng(12345);
  for (int n = 2; n <= 12; ++n) {
    const usize n3 = static_cast<usize>(n) * static_cast<usize>(n) *
                     static_cast<usize>(n);
    const field::Op1D op = random_op(rng, n, n);
    const RealVec u = random_vec(rng, n3);
    RealVec ref(n3), got(n3);

    field::apply_axis0(op, u.data(), ref.data(), n, n);
    for (const field::AxisVariant& v : field::axis0_variants(n)) {
      got.assign(n3, -7.0);
      v.fn(op, u.data(), got.data(), n, n);
      expect_bitwise(ref, got, "axis0/" + std::string(v.name) + "/n=" +
                                   std::to_string(n));
    }
    field::apply_axis1(op, u.data(), ref.data(), n, n);
    for (const field::AxisVariant& v : field::axis1_variants(n)) {
      got.assign(n3, -7.0);
      v.fn(op, u.data(), got.data(), n, n);
      expect_bitwise(ref, got, "axis1/" + std::string(v.name) + "/n=" +
                                   std::to_string(n));
    }
    field::apply_axis2(op, u.data(), ref.data(), n, n);
    for (const field::AxisVariant& v : field::axis2_variants(n)) {
      got.assign(n3, -7.0);
      v.fn(op, u.data(), got.data(), n, n);
      expect_bitwise(ref, got, "axis2/" + std::string(v.name) + "/n=" +
                                   std::to_string(n));
    }
  }
}

TEST(TensorVariants, GradBitwiseAtAllOrders) {
  std::mt19937 rng(777);
  for (int n = 2; n <= 12; ++n) {
    const usize n3 = static_cast<usize>(n) * static_cast<usize>(n) *
                     static_cast<usize>(n);
    const field::Op1D d = random_op(rng, n, n);
    const RealVec u = random_vec(rng, n3);
    RealVec ur(n3), us(n3), ut(n3), vr(n3), vs(n3), vt(n3);
    field::grad_ref(d, u.data(), ur.data(), us.data(), ut.data(), n);
    for (const field::GradVariant& v : field::grad_variants(n)) {
      vr.assign(n3, -7.0);
      vs.assign(n3, -7.0);
      vt.assign(n3, -7.0);
      v.fn(d, u.data(), vr.data(), vs.data(), vt.data(), n);
      const std::string what =
          "grad/" + std::string(v.name) + "/n=" + std::to_string(n);
      expect_bitwise(ur, vr, what + "/r");
      expect_bitwise(us, vs, what + "/s");
      expect_bitwise(ut, vt, what + "/t");
    }
  }
}

// Rectangular operators: the dealiased advector applies nd×n interpolation
// and n×nd projection ops through the SAME tuned pointers, so every variant
// (including the fixed-N specializations, which run the dealias shape at
// compile-time extents and delegate every other shape) has to reproduce the
// reference bitwise there too.
TEST(TensorVariants, RectangularOpsBitwise) {
  std::mt19937 rng(4242);
  for (int n = 2; n <= 12; ++n) {
    for (const int m : {2, (3 * n + 1) / 2, n + 3}) {
      const usize un = static_cast<usize>(n), um = static_cast<usize>(m);
      const field::Op1D op = random_op(rng, m, n);  // m×n: n-points → m-points
      const std::string shape =
          "/m=" + std::to_string(m) + "/n=" + std::to_string(n);

      // axis0 on an n×d1×d2 block (d1 = d2 = n).
      const RealVec u0 = random_vec(rng, un * un * un);
      RealVec ref(um * un * un), got(um * un * un);
      field::apply_axis0(op, u0.data(), ref.data(), n, n);
      for (const field::AxisVariant& v : field::axis0_variants(n)) {
        got.assign(got.size(), -7.0);
        v.fn(op, u0.data(), got.data(), n, n);
        expect_bitwise(ref, got, "axis0/" + std::string(v.name) + shape);
      }

      // axis1 on a d0×n×d2 block (d0 = m, d2 = n — the advector's mid-chain
      // shape after the axis-0 sweep).
      const RealVec u1 = random_vec(rng, um * un * un);
      ref.resize(um * um * un);
      got.resize(um * um * un);
      field::apply_axis1(op, u1.data(), ref.data(), m, n);
      for (const field::AxisVariant& v : field::axis1_variants(n)) {
        got.assign(got.size(), -7.0);
        v.fn(op, u1.data(), got.data(), m, n);
        expect_bitwise(ref, got, "axis1/" + std::string(v.name) + shape);
      }

      // axis2 on a d0×d1×n block (d0 = d1 = m — the final sweep).
      const RealVec u2 = random_vec(rng, um * um * un);
      ref.resize(um * um * um);
      got.resize(um * um * um);
      field::apply_axis2(op, u2.data(), ref.data(), m, m);
      for (const field::AxisVariant& v : field::axis2_variants(n)) {
        got.assign(got.size(), -7.0);
        v.fn(op, u2.data(), got.data(), m, m);
        expect_bitwise(ref, got, "axis2/" + std::string(v.name) + shape);
      }
    }
  }
}

TEST(TensorVariants, Interp3Bitwise) {
  std::mt19937 rng(99);
  for (int n = 2; n <= 12; ++n) {
    const int m = (3 * n + 1) / 2;  // the 3/2-rule dealias grid
    const usize un = static_cast<usize>(n), um = static_cast<usize>(m);
    const field::Op1D op = random_op(rng, m, n);
    const RealVec u = random_vec(rng, un * un * un);
    RealVec work(um * un * (um + un));
    RealVec ref(um * um * um), got(um * um * um);
    field::interp3(op, u.data(), ref.data(), work.data(), n, m);
    for (const field::InterpVariant& v : field::interp_variants(n)) {
      got.assign(got.size(), -7.0);
      work.assign(work.size(), -3.0);  // variants may not rely on stale work
      v.fn(op, u.data(), got.data(), work.data(), n, m);
      expect_bitwise(ref, got, "interp3/" + std::string(v.name) + "/n=" +
                                   std::to_string(n));
    }
  }
}

// The fixedN variants carry compile-time shapes for both 3/2-rule dealias
// directions at their own order: N→M (the advector's interpolation and
// Gauss-point derivative chains) and M→N (its projection back), all three
// axes, plus the interp3 chain. Every registry variant at these orders must
// match the reference there bit for bit.
TEST(TensorVariants, FixedVariantsBitwiseOnDealiasShapes) {
  std::mt19937 rng(2718);
  for (const int n : {4, 6, 8, 10, 12}) {
    const int m = field::dealias_nodes(n);
    const std::string fixed = "fixed" + std::to_string(n);
    const usize un = static_cast<usize>(n), um = static_cast<usize>(m);
    const auto has_fixed = [&](const auto& variants) {
      for (const auto& v : variants)
        if (fixed == v.name) return true;
      return false;
    };
    ASSERT_TRUE(has_fixed(field::axis0_variants(n))) << fixed;
    ASSERT_TRUE(has_fixed(field::axis1_variants(n))) << fixed;
    ASSERT_TRUE(has_fixed(field::axis2_variants(n))) << fixed;
    ASSERT_TRUE(has_fixed(field::interp_variants(n))) << fixed;

    // rows×cols operator; `from` points per direction in, `to` points out.
    for (const auto& dir : {std::pair{n, m}, std::pair{m, n}}) {
      const int from = dir.first, to = dir.second;
      const usize uf = static_cast<usize>(from), ut = static_cast<usize>(to);
      const field::Op1D op = random_op(rng, to, from);
      const std::string shape = "/" + std::to_string(from) + "->" +
                                std::to_string(to) + "/n=" + std::to_string(n);
      const auto check = [&](const char* axis,
                             const std::vector<field::AxisVariant>& variants,
                             field::AxisFn ref_fn, usize in_size,
                             usize out_size, int da, int db) {
        const RealVec u = random_vec(rng, in_size);
        RealVec ref(out_size), got(out_size);
        ref_fn(op, u.data(), ref.data(), da, db);
        for (const field::AxisVariant& v : variants) {
          got.assign(out_size, -7.0);
          v.fn(op, u.data(), got.data(), da, db);
          expect_bitwise(ref, got, std::string(axis) + "/" + v.name + shape);
        }
      };
      // The chain from·from·from → to·from·from → to·to·from → to·to·to.
      check("axis0", field::axis0_variants(n), &field::apply_axis0,
            uf * uf * uf, ut * uf * uf, from, from);
      check("axis1", field::axis1_variants(n), &field::apply_axis1,
            ut * uf * uf, ut * ut * uf, to, from);
      check("axis2", field::axis2_variants(n), &field::apply_axis2,
            ut * ut * uf, ut * ut * ut, to, to);
    }

    const field::Op1D op = random_op(rng, m, n);
    const RealVec u = random_vec(rng, un * un * un);
    RealVec work(um * un * (um + un));
    RealVec ref(um * um * um), got(um * um * um);
    field::interp3(op, u.data(), ref.data(), work.data(), n, m);
    for (const field::InterpVariant& v : field::interp_variants(n)) {
      got.assign(got.size(), -7.0);
      work.assign(work.size(), -3.0);
      v.fn(op, u.data(), got.data(), work.data(), n, m);
      expect_bitwise(ref, got,
                     "interp3/" + std::string(v.name) + "/n=" + std::to_string(n));
    }
  }
}

// ---- floating-point contraction guard ---------------------------------------

// a·x is exactly 1 + 2⁻²⁹ + 2⁻⁶⁰, which rounds to 1 + 2⁻²⁹, so the separately
// rounded a·x + y is exactly 0 while a fused multiply-add keeps 2⁻⁶⁰. The
// bitwise contract (tuned ≡ reference on every ISA) requires the unfused
// result from library and inline kernels alike: these tests fail as soon as
// any build flag lets the compiler contract a*b+c into an FMA again.
constexpr real_t kContractA = 1.0 + 0x1p-30;
constexpr real_t kContractX = 1.0 + 0x1p-30;
constexpr real_t kContractY = -(1.0 + 0x1p-29);

TEST(FpContraction, InputsDiscriminateFusedFromUnfused) {
  EXPECT_EQ(std::fma(kContractA, kContractX, kContractY), 0x1p-60);
}

TEST(FpContraction, LibraryVecAxpyIsUnfused) {
  device::SerialBackend backend;
  const RealVec x(67, kContractX);  // long enough for the vector loop + tail
  RealVec y(67, kContractY);
  operators::vec_axpy(backend, kContractA, x, y);
  for (usize i = 0; i < y.size(); ++i)
    ASSERT_EQ(y[i], 0.0) << "vec_axpy fused a*x+y at index " << i;
}

// Every axis variant at the production order n = 8 (any of them can be the
// tuned winner): the operator row [1, a, 0, …] contracts u = [y, x, 1, …]
// to 0 + 1·y + a·x + 0·1 + … , which is 0 unfused and 2⁻⁶⁰ fused.
TEST(FpContraction, TensorVariantsAreUnfused) {
  constexpr int n = 8;
  const usize n3 = static_cast<usize>(n * n * n);
  field::Op1D op;
  op.rows = op.cols = n;
  op.a.assign(static_cast<usize>(n * n), 0.0);
  for (int r = 0; r < n; ++r) {
    op.a[static_cast<usize>(r * n)] = 1.0;
    op.a[static_cast<usize>(r * n + 1)] = kContractA;
  }
  // u's value as a function of the contraction coordinate c.
  const auto along = [](int c) {
    return c == 0 ? kContractY : c == 1 ? kContractX : 1.0;
  };
  const auto run = [&](const char* axis,
                       const std::vector<field::AxisVariant>& variants,
                       int stride) {
    RealVec u(n3);
    for (usize q = 0; q < n3; ++q)
      u[q] = along(static_cast<int>(q / static_cast<usize>(stride)) % n);
    RealVec out(n3);
    for (const field::AxisVariant& v : variants) {
      out.assign(n3, -7.0);
      v.fn(op, u.data(), out.data(), n, n);
      for (usize q = 0; q < n3; ++q)
        ASSERT_EQ(out[q], 0.0)
            << axis << "/" << v.name << " fused a*x+y at index " << q;
    }
  };
  run("axis0", field::axis0_variants(n), 1);
  run("axis1", field::axis1_variants(n), n);
  run("axis2", field::axis2_variants(n), n * n);
}

// ---- per-order kernel table ------------------------------------------------

TEST(TensorKernels, ForOrderPicksRegisteredVariants) {
  // Every slot must hold a function from its registry, under that variant's
  // name, so the bitwise sweeps above cover whatever the table selects.
  const auto registered = [](const char* name, auto fn, const auto& variants) {
    for (const auto& v : variants)
      if (std::string(v.name) == name) return v.fn == fn;
    return false;
  };
  for (int n = 2; n <= 12; ++n) {
    const field::TensorKernels k = field::TensorKernels::for_order(n);
    EXPECT_TRUE(registered(k.axis0_name, k.axis0, field::axis0_variants(n)))
        << "n=" << n << " axis0=" << k.axis0_name;
    EXPECT_TRUE(registered(k.axis1_name, k.axis1, field::axis1_variants(n)))
        << "n=" << n << " axis1=" << k.axis1_name;
    EXPECT_TRUE(registered(k.axis2_name, k.axis2, field::axis2_variants(n)))
        << "n=" << n << " axis2=" << k.axis2_name;
    EXPECT_TRUE(registered(k.grad_name, k.grad, field::grad_variants(n)))
        << "n=" << n << " grad=" << k.grad_name;
    EXPECT_TRUE(registered(k.interp_name, k.interp, field::interp_variants(n)))
        << "n=" << n << " interp3=" << k.interp_name;
    if (n % 2 == 0 && n >= 4) {
      // The fixed orders won axis0, axis1, grad and interp3 in every tune.
      const std::string fixed = "fixed" + std::to_string(n);
      EXPECT_EQ(k.axis0_name, fixed) << "n=" << n;
      EXPECT_EQ(k.axis1_name, fixed) << "n=" << n;
      EXPECT_EQ(k.grad_name, fixed) << "n=" << n;
      EXPECT_EQ(k.interp_name, fixed) << "n=" << n;
    }
  }
  // The benchmark workloads' fine (degree 7) and coarse (degree 1) grids.
  const field::TensorKernels fine = field::TensorKernels::for_order(8);
  EXPECT_EQ(fine.describe(),
            "axis0=fixed8,axis1=fixed8,axis2=fixed8,grad=fixed8,"
            "interp3=fixed8");
  const field::TensorKernels coarse = field::TensorKernels::for_order(2);
  EXPECT_EQ(coarse.axis0, &field::apply_axis0);
  EXPECT_EQ(coarse.grad, &field::grad_ref);
  EXPECT_EQ(coarse.interp, &field::interp3);
}

// Full 3-step RBC solve, selected kernels vs reference kernels, bitwise: the
// end-to-end form of the variant-identity contract. Whatever the per-order
// table picked, the physics must not change by a single bit. Degree 7 runs
// the fixed8 dealias shapes of the benchmark workloads.
TEST(TensorDispatch, FullRbcSolveBitwiseTunedVsReference) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 3;
  cfg.lx = cfg.ly = 2.0;
  cfg.lz = 1.0;
  cfg.periodic_x = cfg.periodic_y = true;
  const mesh::HexMesh mesh = make_box_mesh(cfg);
  comm::SelfComm comm;
  device::SerialBackend backend;

  for (const int degree : {5, 7}) {
    SCOPED_TRACE("degree " + std::to_string(degree));
    operators::RankSetup tuned =
        operators::make_rank_setup(mesh, degree, comm, true, true, &backend);
    operators::RankSetup tuned_coarse =
        precon::make_coarse_setup(mesh, comm, &backend);
    operators::RankSetup plain =
        operators::make_rank_setup(mesh, degree, comm, true, true, &backend);
    operators::RankSetup plain_coarse =
        precon::make_coarse_setup(mesh, comm, &backend);
    plain.kernels = field::TensorKernels::reference();
    plain_coarse.kernels = field::TensorKernels::reference();

    rbc::RbcConfig config;
    config.rayleigh = 1e4;
    config.dt = 2e-2;
    config.perturbation_lx = config.perturbation_ly = 2.0;
    config.flow.velocity_walls = {mesh::FaceTag::kBottom, mesh::FaceTag::kTop};
    rbc::RbcSimulation sim_t(tuned.ctx(), tuned_coarse.ctx(), config);
    rbc::RbcSimulation sim_r(plain.ctx(), plain_coarse.ctx(), config);
    sim_t.set_initial_conditions();
    sim_r.set_initial_conditions();
    for (int s = 0; s < 3; ++s) {
      const fluid::StepInfo it = sim_t.step();
      const fluid::StepInfo ir = sim_r.step();
      EXPECT_EQ(it.cfl, ir.cfl) << "step " << s;
      EXPECT_EQ(it.divergence, ir.divergence) << "step " << s;
    }
    expect_bitwise(sim_t.solver().temperature(), sim_r.solver().temperature(),
                   "temperature");
    expect_bitwise(sim_t.solver().u(), sim_r.solver().u(), "u");
    expect_bitwise(sim_t.solver().v(), sim_r.solver().v(), "v");
    expect_bitwise(sim_t.solver().w(), sim_r.solver().w(), "w");
  }
}

}  // namespace
}  // namespace felis
