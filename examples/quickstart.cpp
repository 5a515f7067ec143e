// Quickstart: a minimal felis simulation — the shortest path from nothing
// to a working convection run.
//
// The scenario comes from the case registry: `case.type` in the case file
// selects any registered case (rbc, rbc2d, rbc_rot, ihc, rbc_cyl, ...); the
// default is the periodic-slab RBC case at Ra = 10⁴ (mildly supercritical).
//
//   ./quickstart [Ra] [steps]
//   ./quickstart --case my_case.txt [steps]   (key = value file: case.*,
//                                              mesh.*, fluid.*, telemetry.*)
//   ./quickstart --list-cases                 (print the registered cases)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "case/registry.hpp"
#include "device/backend.hpp"
#include "precon/coarse.hpp"
#include "telemetry/telemetry.hpp"

using namespace felis;

int main(int argc, char** argv) {
  ParamMap params;
  int steps = 100;
  if (argc > 1 && std::strcmp(argv[1], "--list-cases") == 0) {
    std::printf("registered cases (case.type):\n");
    for (const cases::CaseInfo& info : cases::Registry::global().infos())
      std::printf("  %-10s %s\n", info.type.c_str(), info.description.c_str());
    return 0;
  }
  if (argc > 2 && std::strcmp(argv[1], "--case") == 0) {
    std::ifstream in(argv[2]);
    std::stringstream ss;
    ss << in.rdbuf();
    params = ParamMap::parse(ss.str());
    if (argc > 3) steps = std::atoi(argv[3]);
  } else {
    if (argc > 1) params.set("case.Ra", std::atof(argv[1]));
    if (argc > 2) steps = std::atoi(argv[2]);
  }

  // 1. Scenario: resolve case.type against the registry. Unknown types get
  //    the registry's message naming every registered case.
  params.set("case.Ra", params.get_real("case.Ra", 1e4));
  params.set("case.dt", params.get_real("case.dt", 2e-2));
  const std::string type = params.get_string("case.type", "rbc");
  // Historical quickstart default: degree-5 elements for the slab case
  // (registered types keep their own defaults when selected explicitly).
  if (type == "rbc" && !params.has("mesh.degree")) params.set("mesh.degree", 5);
  const cases::CaseInfo* info = nullptr;
  try {
    info = &cases::Registry::global().resolve(type);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n(try --list-cases)\n", e.what());
    return 65;
  }

  // 2. Discretization: the case factory builds its mesh from the mesh.*
  //    keys; SelfComm = single rank. The device backend comes from the
  //    `device.backend` case key (or FELIS_BACKEND env, or auto-detect).
  comm::SelfComm comm;
  device::Backend& backend = device::select_backend(params);
  const cases::Geometry geo = info->make_geometry(params);
  auto fine = operators::make_rank_setup(geo.mesh, geo.degree, comm,
                                         /*dealias=*/true,
                                         /*three_halves_rule=*/true, &backend);
  auto coarse = precon::make_coarse_setup(geo.mesh, comm, &backend);

  // Optional unified telemetry (telemetry.enabled = true in the case file):
  // per-step NDJSON metrics, a Perfetto-loadable Chrome trace and run-health
  // heartbeats. The metadata keys make telemetry files joinable against
  // BENCH_*.json outputs (same backend/threads/degree identity). Attached
  // before ctx() is taken: the solver copies its Context at construction.
  telemetry::Telemetry telemetry(
      telemetry::config_from_params(params),
      {{"program", "quickstart"},
       {"type", info->type},
       {"backend", backend.name()},
       {"kernels", fine.kernels.describe()},
       {"threads", std::to_string(backend.concurrency())},
       {"degree", std::to_string(geo.degree)},
       {"Ra", params.get_string("case.Ra", "default")},
       {"dt", params.get_string("case.dt", "default")}});
  fine.telemetry = &telemetry;
  coarse.telemetry = &telemetry;

  // 3. Case: the registered factory owns boundary conditions, forcing and
  //    physics; free-fall units throughout.
  const std::unique_ptr<cases::Case> sim =
      info->make_case(fine.ctx(), coarse.ctx(), geo, params);
  sim->set_initial_conditions();

  // 4. Time stepping with live diagnostics (the cross-case observable
  //    contract: every case reports nu_plate / nu_volume / kinetic_energy).
  std::printf("felis quickstart: case '%s' (%s), %d steps\n",
              info->type.c_str(), info->description.c_str(), steps);
  std::printf("parameters:");
  for (const auto& [name, value] : sim->parameters())
    std::printf(" %s=%.4g", name.c_str(), value);
  std::printf("\n%8s %10s %8s %12s %12s %12s\n", "step", "time", "CFL",
              "Nu(plate)", "Nu(volume)", "kinetic E");
  for (int s = 1; s <= steps; ++s) {
    const fluid::StepInfo step_info = sim->step();
    if (s % 10 == 0 || s == 1) {
      const cases::Observables obs = sim->observables();
      const auto val = [&obs](const char* key) {
        const auto it = obs.find(key);
        return it != obs.end() ? it->second : 0.0;
      };
      std::printf("%8lld %10.3f %8.3f %12.5f %12.5f %12.4e\n",
                  static_cast<long long>(step_info.step), step_info.time,
                  step_info.cfl, val("nu_plate"), val("nu_volume"),
                  val("kinetic_energy"));
    }
  }

  std::printf("\nfinal:");
  for (const auto& [name, value] : sim->observables())
    std::printf(" %s=%.4e", name.c_str(), value);
  std::printf("\n(Nu > 1 indicates convective heat transport; subcritical "
              "cases decay back to conduction, Nu = 1.)\n");

  if (telemetry.enabled()) {
    telemetry.finalize();
    std::printf("telemetry: %lld step records -> %s\n",
                static_cast<long long>(telemetry.records_written()),
                telemetry.ndjson_path().c_str());
    std::printf("telemetry: summary -> %s\n", telemetry.summary_path().c_str());
    if (telemetry.config().trace)
      std::printf("telemetry: trace -> %s (load in Perfetto / chrome://tracing)\n",
                  telemetry.trace_path().c_str());
  }
  return 0;
}
