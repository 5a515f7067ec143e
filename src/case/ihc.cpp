#include "case/ihc.hpp"

#include <array>
#include <cmath>
#include <random>

#include "case/rbc.hpp"

namespace felis::ihc {

IhcConfig config_from_params(const ParamMap& params) {
  IhcConfig config;
  config.rayleigh = params.get_real("case.Ra", config.rayleigh);
  config.prandtl = params.get_real("case.Pr", config.prandtl);
  config.dt = params.get_real("case.dt", config.dt);
  config.perturbation = params.get_real("case.perturbation", config.perturbation);
  config.perturbation_lx =
      params.get_real("case.perturbation_lx", config.perturbation_lx);
  config.perturbation_ly =
      params.get_real("case.perturbation_ly", config.perturbation_ly);
  config.seed = static_cast<unsigned>(params.get_int("case.seed", 7));
  fluid::apply_flow_params(params, config.flow);
  config.checkpoint = fluid::CheckpointManager::config_from_params(params);
  return config;
}

InternallyHeatedSimulation::InternallyHeatedSimulation(
    const operators::Context& fine, const operators::Context& coarse,
    const IhcConfig& config, real_t height)
    : cases::Case("ihc"), fine_(fine), config_(config), height_(height) {
  fluid::FlowConfig flow = config.flow;
  flow.dt = config.dt;
  flow.viscosity = rbc::rbc_viscosity(config.rayleigh, config.prandtl);
  flow.conductivity = rbc::rbc_conductivity(config.rayleigh, config.prandtl);
  flow.buoyancy = 1.0;
  flow.solve_scalar = true;
  // Both plates cold (T = 0); heat enters as the uniform source below.
  flow.scalar_dirichlet = {{mesh::FaceTag::kBottom, 0.0},
                           {mesh::FaceTag::kTop, 0.0}};
  // Uniform internal heating q = κ/H² (strong form), chosen so the diffusive
  // equilibrium is T = z(H−z)/(2H²) with ⟨T⟩ = 1/12.
  const real_t q = flow.conductivity / (height * height);
  flow.forcing_scalar = [q](real_t /*t*/, const field::Coef& /*coef*/,
                            RealVec& g) {
    std::fill(g.begin(), g.end(), q);
  };
  solver_ = std::make_unique<fluid::FlowSolver>(fine, coarse, flow);
}

void InternallyHeatedSimulation::set_initial_conditions() {
  const usize nd = fine_.num_dofs();
  RealVec& temp = solver_->temperature();
  // Diffusive profile plus the same deterministic perturbation family the
  // RBC seed uses (vanishing at both plates, so the Dirichlet data is exact).
  std::mt19937 gen(config_.seed);
  std::uniform_real_distribution<real_t> phase(0.0, 2 * M_PI);
  const real_t p1 = phase(gen), p2 = phase(gen), p3 = phase(gen);
  const real_t kx = 2 * M_PI / config_.perturbation_lx;
  const real_t ky = 2 * M_PI / config_.perturbation_ly;
  fine_.dev().parallel_for_blocked(
      static_cast<lidx_t>(nd), /*grain=*/0,
      [&](lidx_t begin, lidx_t end, int /*worker*/) {
        for (lidx_t idx = begin; idx < end; ++idx) {
          const usize i = static_cast<usize>(idx);
          const real_t x = fine_.coef->x[i];
          const real_t y = fine_.coef->y[i];
          const real_t z = fine_.coef->z[i] / height_;
          const real_t envelope = std::sin(M_PI * z);
          const real_t noise = std::sin(kx * x + p1) * std::cos(ky * y + p2) +
                               0.5 * std::sin(2 * kx * x + p3) +
                               0.25 * std::cos(ky * y - p1);
          temp[i] = 0.5 * z * (1.0 - z) + config_.perturbation * envelope * noise;
        }
      });
  fine_.gs->apply(temp, gs::GsOp::kAdd);
  operators::vec_mul(fine_.dev(), fine_.gs->inverse_multiplicity(), temp);
  for (auto* c : {&solver_->u(), &solver_->v(), &solver_->w()})
    std::fill(c->begin(), c->end(), 0.0);
  solver_->apply_boundary_conditions();
}

cases::Observables InternallyHeatedSimulation::observables() const {
  const usize nd = fine_.num_dofs();
  const RealVec& temp = solver_->temperature();

  // Plate heat balance: out-flux is −κ∂T/∂n with outward normals, i.e.
  // κ·(I_top − I_bot) for I = ∫−∂T/∂z dA per plate; injected power is q·V.
  RealVec dtdx(nd), dtdy(nd), dtdz(nd);
  operators::grad(fine_, temp, dtdx, dtdy, dtdz);
  const cases::SurfaceFluxZ top =
      cases::surface_flux_z(fine_, dtdz, mesh::FaceTag::kTop);
  const cases::SurfaceFluxZ bottom =
      cases::surface_flux_z(fine_, dtdz, mesh::FaceTag::kBottom);

  // Unassembled mass: the plain sum is the exact quadrature (see rbc.cpp).
  const RealVec& mass = fine_.coef->mass;
  const RealVec& u = solver_->u();
  const RealVec& v = solver_->v();
  const RealVec& w = solver_->w();
  // T, |u|², volume
  std::array<real_t, 3> sums =
      fine_.dev().reduce_sum(static_cast<lidx_t>(nd), [&](lidx_t idx) {
        const usize i = static_cast<usize>(idx);
        const real_t bw = mass[i];
        return std::array<real_t, 3>{
            bw * temp[i], bw * (u[i] * u[i] + v[i] * v[i] + w[i] * w[i]), bw};
      });
  fine_.comm->allreduce(sums.data(), 3, comm::ReduceOp::kSum);
  const real_t vol = sums[2];
  const real_t mean_t = sums[0] / vol;
  const real_t kappa = solver_->config().conductivity;
  const real_t q = kappa / (height_ * height_);
  const real_t out_flux = kappa * (top.integral - bottom.integral);
  return {{"nu_plate", (vol > 0) ? out_flux / (q * vol) : 0.0},
          {"nu_volume", (mean_t > 0) ? (1.0 / 12.0) / mean_t : 0.0},
          {"kinetic_energy", 0.5 * sums[1] / vol},
          {"temperature_mean", mean_t}};
}

cases::Observables InternallyHeatedSimulation::parameters() const {
  return {{"Ra", config_.rayleigh}, {"Pr", config_.prandtl}};
}

}  // namespace felis::ihc
