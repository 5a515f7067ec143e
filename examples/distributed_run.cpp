// Distributed execution: the same registered case on multiple simulated
// ranks (threads with message passing — felis' stand-in for MPI, see
// DESIGN.md), demonstrating the two-phase gather-scatter, per-rank
// profiling, the task-overlapped pressure preconditioner running with real
// communication, and per-rank telemetry channels.
//
//   ./distributed_run [ranks] [steps] [telemetry-dir]
//
// With a telemetry-dir, every rank records its own NDJSON stream / Chrome
// trace under <telemetry-dir>/rank<r>/ — ranks are threads of one process,
// so each needs its own channel directory or their records would interleave
// in a single stream.
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>

#include "case/registry.hpp"
#include "device/backend.hpp"
#include "precon/coarse.hpp"
#include "telemetry/telemetry.hpp"

using namespace felis;

int main(int argc, char** argv) {
  const int nranks = argc > 1 ? std::atoi(argv[1]) : 4;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 60;
  const std::string telemetry_dir = argc > 3 ? argv[3] : "";

  // The cylindrical cell from the registry (slender-ish: Γ = D/H = 0.5).
  // Every rank resolves the same params, so the global mesh is identical
  // everywhere; it is built once, outside the rank loop.
  ParamMap params;
  params.set("case.type", "rbc_cyl");
  params.set("case.Ra", 5e4);
  params.set("case.dt", 1.5e-2);
  params.set("case.aspect", 0.5);
  params.set("mesh.nz", 8);
  const cases::CaseInfo& info = cases::resolve_case(params);
  const cases::Geometry geo = info.make_geometry(params);

  std::printf("distributed %s: %d ranks (threads-as-ranks), %d elements\n",
              info.type.c_str(), nranks, geo.mesh.num_elements());
  std::mutex print_mutex;

  // The device backend comes from the `device.backend` key (or FELIS_BACKEND
  // env, or auto-detect); every rank shares it and its header names it.
  device::Backend& backend = device::select_backend(params);

  comm::run_parallel(nranks, [&](comm::Communicator& comm) {
    auto fine = operators::make_rank_setup(geo.mesh, geo.degree, comm,
                                           /*dealias=*/true,
                                           /*three_halves_rule=*/true,
                                           &backend);
    auto coarse = precon::make_coarse_setup(geo.mesh, comm, &backend);

    // Per-rank telemetry channel: rank r writes <dir>/rank<r>/run.ndjson and
    // its own trace. The rank/size metadata keys disambiguate the channels
    // when the artifacts are joined into one campaign- or run-level view.
    std::optional<telemetry::Telemetry> telemetry;
    if (!telemetry_dir.empty()) {
      telemetry::TelemetryConfig tc;
      tc.enabled = true;
      tc.dir = telemetry_dir + "/rank" + std::to_string(comm.rank());
      telemetry.emplace(
          std::move(tc),
          std::map<std::string, std::string>{
              {"program", "distributed_run"},
              {"type", info.type},
              {"backend", backend.name()},
              {"kernels", fine.kernels.describe()},
              {"threads", std::to_string(nranks)},
              {"degree", std::to_string(geo.degree)},
              {"rank", std::to_string(comm.rank())},
              {"size", std::to_string(comm.size())}});
      fine.telemetry = &*telemetry;
      coarse.telemetry = &*telemetry;
    }
    {
      std::lock_guard<std::mutex> lock(print_mutex);
      std::printf(
          "  rank %d: %d local elements, %zu gather-scatter neighbours, "
          "%zu shared doubles per exchange\n",
          comm.rank(), fine.lmesh.num_elements(), fine.gs->num_neighbors(),
          fine.gs->send_doubles_per_apply());
    }
    comm.barrier();

    // Task-overlapped preconditioner (the FlowConfig default): coarse-grid
    // CG with its own communication channel runs concurrently with the
    // Schwarz smoother.
    const std::unique_ptr<cases::Case> sim =
        info.make_case(fine.ctx(), coarse.ctx(), geo, params);
    sim->set_initial_conditions();

    fluid::StepInfo last;
    for (int s = 0; s < steps; ++s) last = sim->step();
    const cases::Observables obs = sim->observables();
    comm.barrier();

    if (telemetry) telemetry->finalize();
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(print_mutex);
      std::printf("\nafter %d steps: t=%.3f Nu_vol=%.4f KE=%.4e "
                  "(identical on every rank)\n",
                  steps, last.time, obs.at("nu_volume"),
                  obs.at("kinetic_energy"));
      std::printf("\nrank 0 wall-time distribution (Fig. 4 style):\n%s\n",
                  fine.prof->report().c_str());
      if (telemetry)
        std::printf("telemetry: per-rank channels under %s/rank<r>/\n",
                    telemetry_dir.c_str());
    }
  });
  return 0;
}
