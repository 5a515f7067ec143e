#include "case/rbc.hpp"

#include <array>
#include <cmath>
#include <random>

namespace felis::rbc {

RbcConfig config_from_params(const ParamMap& params) {
  RbcConfig config;
  config.rayleigh = params.get_real("case.Ra", config.rayleigh);
  config.prandtl = params.get_real("case.Pr", config.prandtl);
  config.dt = params.get_real("case.dt", config.dt);
  config.rossby = params.get_real("case.Ro", config.rossby);
  config.y_invariant = params.get_bool("case.y_invariant", config.y_invariant);
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

RbcSimulation::RbcSimulation(const operators::Context& fine,
                             const operators::Context& coarse,
                             const RbcConfig& config, real_t height,
                             std::string type)
    : cases::Case(std::move(type)), fine_(fine), config_(config), height_(height) {
  fluid::FlowConfig flow = config.flow;
  flow.dt = config.dt;
  flow.viscosity = rbc_viscosity(config.rayleigh, config.prandtl);
  flow.conductivity = rbc_conductivity(config.rayleigh, config.prandtl);
  flow.buoyancy = 1.0;
  flow.coriolis = (config.rossby > 0) ? 1.0 / config.rossby : 0.0;
  flow.solve_scalar = true;
  solver_ = std::make_unique<fluid::FlowSolver>(fine, coarse, flow);
}

void RbcSimulation::set_initial_conditions() {
  const usize nd = fine_.num_dofs();
  RealVec& temp = solver_->temperature();
  // Conduction profile T = 1 − z/H plus a deterministic multi-mode
  // perturbation vanishing at the plates (so the Dirichlet data is exact).
  // The same phases are drawn either way so rbc2d differs from rbc only by
  // the dropped y-modes, not by a shifted random stream.
  std::mt19937 gen(config_.seed);
  std::uniform_real_distribution<real_t> phase(0.0, 2 * M_PI);
  const real_t p1 = phase(gen), p2 = phase(gen), p3 = phase(gen);
  const real_t kx = 2 * M_PI / config_.perturbation_lx;
  const real_t ky = 2 * M_PI / config_.perturbation_ly;
  const bool flat_y = config_.y_invariant;
  fine_.dev().parallel_for_blocked(
      static_cast<lidx_t>(nd), /*grain=*/0,
      [&](lidx_t begin, lidx_t end, int /*worker*/) {
        for (lidx_t idx = begin; idx < end; ++idx) {
          const usize i = static_cast<usize>(idx);
          const real_t x = fine_.coef->x[i];
          const real_t y = fine_.coef->y[i];
          const real_t z = fine_.coef->z[i] / height_;
          const real_t envelope = std::sin(M_PI * z);
          const real_t noise =
              flat_y ? std::sin(kx * x + p1) + 0.5 * std::sin(2 * kx * x + p3)
                     : std::sin(kx * x + p1) * std::cos(ky * y + p2) +
                           0.5 * std::sin(2 * kx * x + p3) +
                           0.25 * std::cos(ky * y - p1);
          temp[i] = (1.0 - z) + config_.perturbation * envelope * noise;
        }
      });
  // Reconcile duplicates so the seed field is exactly continuous (relevant
  // across periodic seams).
  fine_.gs->apply(temp, gs::GsOp::kAdd);
  operators::vec_mul(fine_.dev(), fine_.gs->inverse_multiplicity(), temp);
  for (auto* c : {&solver_->u(), &solver_->v(), &solver_->w()})
    std::fill(c->begin(), c->end(), 0.0);
  solver_->apply_boundary_conditions();
}

cases::Observables RbcSimulation::observables() const {
  const RbcDiagnostics d = diagnostics();
  return {{"nu_plate", 0.5 * (d.nusselt_bottom + d.nusselt_top)},
          {"nu_volume", d.nusselt_volume},
          {"kinetic_energy", d.kinetic_energy},
          {"temperature_mean", d.temperature_mean}};
}

cases::Observables RbcSimulation::parameters() const {
  cases::Observables p = {{"Ra", config_.rayleigh}, {"Pr", config_.prandtl}};
  if (config_.rossby > 0) p["Ro"] = config_.rossby;
  return p;
}

RbcDiagnostics RbcSimulation::diagnostics() const {
  RbcDiagnostics d;
  const usize nd = fine_.num_dofs();
  const RealVec& temp = solver_->temperature();
  const RealVec& w = solver_->w();

  // Plate Nusselt numbers: area-weighted −∂T/∂z (top flux is −∂T/∂z too;
  // both equal Nu in steady state). Flux normalized by ΔT/H = 1/H.
  RealVec dtdx(nd), dtdy(nd), dtdz(nd);
  operators::grad(fine_, temp, dtdx, dtdy, dtdz);
  for (const mesh::FaceTag tag : {mesh::FaceTag::kBottom, mesh::FaceTag::kTop}) {
    const cases::SurfaceFluxZ flux = cases::surface_flux_z(fine_, dtdz, tag);
    const real_t nu =
        (flux.area > 0) ? height_ * flux.integral / flux.area : 0.0;
    if (tag == mesh::FaceTag::kBottom)
      d.nusselt_bottom = nu;
    else
      d.nusselt_top = nu;
  }

  // Volume averages. coef->mass is unassembled (element-local), so the plain
  // sum is already the exact quadrature: every element integrates its own
  // sub-volume and the fields are continuous across interfaces. Do NOT weight
  // by inverse multiplicity — that under-counts interface nodes, whose
  // per-copy mass is only a partial weight.
  const RealVec& mass = fine_.coef->mass;
  const RealVec& u = solver_->u();
  const RealVec& v = solver_->v();
  // wT, |u|², T, volume
  std::array<real_t, 4> sums =
      fine_.dev().reduce_sum(static_cast<lidx_t>(nd), [&](lidx_t idx) {
        const usize i = static_cast<usize>(idx);
        const real_t bw = mass[i];
        return std::array<real_t, 4>{
            bw * w[i] * temp[i],
            bw * (u[i] * u[i] + v[i] * v[i] + w[i] * w[i]), bw * temp[i], bw};
      });
  fine_.comm->allreduce(sums.data(), 4, comm::ReduceOp::kSum);
  const real_t vol = sums[3];
  d.nusselt_volume = 1.0 + std::sqrt(config_.rayleigh * config_.prandtl) *
                               sums[0] / vol * height_;
  d.kinetic_energy = 0.5 * sums[1] / vol;
  d.temperature_mean = sums[2] / vol;
  return d;
}

}  // namespace felis::rbc
