#include "sched/case_runner.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "case/registry.hpp"
#include "comm/comm.hpp"
#include "common/error.hpp"
#include "device/backend.hpp"
#include "fluid/checkpoint_manager.hpp"
#include "io/atomic_file.hpp"
#include "io/fault_injector.hpp"
#include "io/record.hpp"
#include "sched/manifest.hpp"
#include "telemetry/telemetry.hpp"

namespace felis::sched {

namespace {

/// Per-case fault injectors, shared by every attempt of a case. Persistence
/// matters: FaultInjector counts write attempts per *instance*, so a fault
/// configured with `at=2, count=1` fires exactly once per campaign — the
/// retry that follows sees healthy I/O and recovers, which is the scenario
/// the retry loop exists for. A fresh injector per attempt would re-fire the
/// same fault forever and turn every transient into retry exhaustion.
struct InjectorPool {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<io::FaultInjector>> by_case;

  io::FaultInjector* get(const CaseSpec& cs) {
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = by_case.find(cs.id);
    if (it != by_case.end()) return it->second.get();
    io::FaultInjector::Config config =
        io::FaultInjector::config_from_params(cs.params);
    if (config.mode == io::FaultInjector::Mode::kNone) {
      const auto env = io::FaultInjector::config_from_env();
      if (env) config = *env;
    }
    if (config.mode == io::FaultInjector::Mode::kNone) return nullptr;
    return by_case.emplace(cs.id,
                           std::make_unique<io::FaultInjector>(config))
        .first->second.get();
  }
};

/// One rank's share of a case attempt. Ranks agree on cancellation and on
/// the restore step via allreduce so the lockstep communication pattern is
/// never broken by one rank leaving the loop early.
void run_rank(const CaseSpec& cs, RunContext& ctx, comm::Communicator& comm,
              io::FaultInjector* fault, bool with_telemetry, RunResult* result,
              std::mutex* result_mutex) {
  const ParamMap& params = cs.params;

  // The registry owns geometry and physics; the runner owns durability and
  // the run loop. resolve_case throws the available-cases message for
  // unknown types — callers surface it as the case's failure detail.
  const cases::CaseInfo& info = cases::resolve_case(params);
  const cases::Geometry geo = info.make_geometry(params);

  device::Backend& backend = device::select_backend(params);
  auto fine = operators::make_rank_setup(geo.mesh, geo.degree, comm,
                                         /*dealias=*/true,
                                         /*three_halves_rule=*/true, &backend);
  auto coarse = precon::make_coarse_setup(geo.mesh, comm, &backend);

  // Everything durable lives under the run directory; multi-rank cases keep
  // one rotation per rank (`felis.r<k>`) so restores stay rank-local.
  fluid::CheckpointConfig ck =
      fluid::CheckpointManager::config_from_params(params);
  ck.directory =
      (std::filesystem::path(ctx.run_dir()) / "checkpoints").string();
  if (comm.size() > 1) ck.basename += ".r" + std::to_string(comm.rank());
  fluid::CheckpointManager manager(ck, comm.rank() == 0 ? fault : nullptr);

  std::optional<telemetry::Telemetry> telemetry;
  if (with_telemetry && params.get_bool("telemetry.enabled", false)) {
    telemetry::TelemetryConfig tc = telemetry::config_from_params(params);
    std::filesystem::path dir =
        std::filesystem::path(ctx.run_dir()) / "telemetry";
    // Ranks are threads of one process: each needs its own channel directory
    // or they would interleave records in one NDJSON stream.
    if (comm.size() > 1) dir /= "rank" + std::to_string(comm.rank());
    tc.dir = dir.string();
    telemetry.emplace(
        std::move(tc),
        std::map<std::string, std::string>{
            {"program", "felis_campaign"},
            {"case", cs.id},
            {"type", info.type},
            {"backend", backend.name()},
            {"kernels", fine.kernels.describe()},
            {"threads", std::to_string(cs.threads)},
            {"degree", std::to_string(geo.degree)},
            {"rank", std::to_string(comm.rank())},
            {"size", std::to_string(comm.size())},
            {"attempt", std::to_string(ctx.attempt())},
            {"Ra", params.get_string("case.Ra", "default")}});
    // Attached before ctx() is taken below: the solver copies its Context at
    // construction, so a later attach would be invisible.
    fine.telemetry = &*telemetry;
    coarse.telemetry = &*telemetry;
  }

  const std::unique_ptr<cases::Case> sim =
      info.make_case(fine.ctx(), coarse.ctx(), geo, params);
  sim->set_initial_conditions();

  // Restore: newest valid checkpoint, but never past what every rank has —
  // a crash can leave rank rotations at different steps, and ranks resuming
  // from different steps would desynchronise the lockstep exchanges.
  std::string restore_path;
  std::optional<fluid::Checkpoint> latest = manager.load_latest(&restore_path);
  gidx_t newest = latest ? static_cast<gidx_t>(latest->step) : -1;
  const gidx_t common =
      comm.size() > 1 ? comm.allreduce_scalar(newest, comm::ReduceOp::kMin)
                      : newest;
  if (common >= 0) {
    if (!latest || latest->step != common)
      latest = fluid::Checkpoint::load(manager.path_for_step(common));
    sim->restore_checkpoint(*latest);
  }

  bool cancelled = false;
  fluid::StepInfo step_info{};
  step_info.step = sim->solver().step_count();
  step_info.time = sim->solver().time();
  while (sim->solver().step_count() < cs.steps) {
    // Cancellation consensus: every rank leaves at the same step or none do.
    gidx_t stop = ctx.cancelled() ? 1 : 0;
    if (comm.size() > 1) stop = comm.allreduce_scalar(stop, comm::ReduceOp::kMax);
    if (stop != 0) {
      cancelled = true;
      break;
    }
    step_info = sim->step();
    if (comm.rank() == 0) ctx.heartbeat();
    sim->maybe_checkpoint(manager);
  }
  // Seal the run: the final state must be durable for the resume-skip
  // guarantee (a `done` case is never re-run, so its checkpoint is the
  // campaign's record of that case). Skip when the rotation already holds it.
  if (!cancelled && !manager.due(sim->solver().step_count()))
    manager.write(sim->capture_checkpoint());

  const cases::Observables obs = sim->observables();  // collective: all ranks
  if (telemetry) telemetry->finalize();

  if (comm.rank() == 0) {
    std::lock_guard<std::mutex> lock(*result_mutex);
    result->ok = !cancelled;
    if (cancelled) result->detail = "cancelled at step " +
                                    std::to_string(sim->solver().step_count());
    result->metrics = {
        {"steps", static_cast<double>(sim->solver().step_count())},
        {"time", static_cast<double>(sim->solver().time())},
        {"cfl", static_cast<double>(step_info.cfl)},
        {"ranks", static_cast<double>(comm.size())},
    };
    for (const auto& [name, value] : sim->parameters())
      result->metrics[name] = value;
    for (const auto& [name, value] : obs) result->metrics[name] = value;
  }
}

}  // namespace

CaseRunner make_case_runner(CaseRunnerOptions options) {
  auto injectors = std::make_shared<InjectorPool>();
  return [options, injectors](const CaseSpec& cs,
                              RunContext& ctx) -> RunResult {
    // Injection is single-rank only: with threads-as-ranks, a rank that dies
    // mid-exchange leaves its peers blocked forever (exactly like MPI without
    // a fault tolerance layer), so the injected kill would hang the pool
    // instead of failing the case.
    io::FaultInjector* fault =
        options.fault_injection && cs.threads == 1 ? injectors->get(cs)
                                                   : nullptr;
    RunResult result;
    std::mutex result_mutex;
    if (cs.threads == 1) {
      comm::SelfComm comm;
      run_rank(cs, ctx, comm, fault, options.telemetry, &result, &result_mutex);
    } else {
      comm::run_parallel(cs.threads, [&](comm::Communicator& comm) {
        run_rank(cs, ctx, comm, fault, options.telemetry, &result,
                 &result_mutex);
      });
    }
    return result;
  };
}

void write_nu_ra_csv(const CampaignSpec& spec, const CampaignReport& report,
                     const std::string& path) {
  // Rows sorted by Ra: the CSV is read as the Nu(Ra) curve the campaign was
  // launched to measure (bench_nu_ra_scaling's table, per-campaign) — or,
  // for a cross-case matrix, grouped by the `type` column.
  std::vector<const CaseOutcome*> rows;
  for (const CaseOutcome& out : report.outcomes)
    if (out.state == "done" && !out.result.metrics.empty())
      rows.push_back(&out);
  std::stable_sort(rows.begin(), rows.end(),
                   [](const CaseOutcome* a, const CaseOutcome* b) {
                     const auto ra = [](const CaseOutcome* o) {
                       const auto it = o->result.metrics.find("Ra");
                       return it != o->result.metrics.end() ? it->second : 0.0;
                     };
                     return ra(a) < ra(b);
                   });

  // The case type comes from the expanded spec (metrics are double-valued).
  std::map<std::string, std::string> type_by_id;
  for (const CaseSpec& cs : spec.cases)
    type_by_id[cs.id] = cs.params.get_string("case.type", "rbc");

  io::AtomicFileWriter writer(path);
  writer.stream() << "# campaign: " << spec.config.name << "\n"
                  << "case,type,Ra,Pr,steps,time,nu_plate,nu_volume,"
                     "kinetic_energy,ranks,attempts,wall_seconds\n";
  const auto metric = [](const CaseOutcome* o, const char* key) {
    const auto it = o->result.metrics.find(key);
    return it != o->result.metrics.end() ? it->second : 0.0;
  };
  char buf[64];
  for (const CaseOutcome* out : rows) {
    const auto type_it = type_by_id.find(out->id);
    writer.stream() << out->id << ','
                    << (type_it != type_by_id.end() ? type_it->second : "rbc");
    for (const char* key : {"Ra", "Pr", "steps", "time", "nu_plate",
                            "nu_volume", "kinetic_energy", "ranks"}) {
      std::snprintf(buf, sizeof(buf), "%.10g", metric(out, key));
      writer.stream() << ',' << buf;
    }
    std::snprintf(buf, sizeof(buf), "%.4f", out->wall_seconds);
    writer.stream() << ',' << out->attempts << ',' << buf << '\n';
  }
  writer.commit();
}

void write_bench_json(const CampaignSpec& spec, const CampaignReport& report,
                      const std::string& path) {
  io::AtomicFileWriter writer(path);
  writer.stream()
      << "{\n"
      << "  \"bench\": \"campaign\",\n"
      << "  \"campaign\": \"" << io::escape(spec.config.name)
      << "\",\n"
      << "  \"cases\": " << report.outcomes.size() << ",\n"
      << "  \"completed\": " << report.completed << ",\n"
      << "  \"skipped\": " << report.skipped << ",\n"
      << "  \"failed\": " << report.failed << ",\n"
      << "  \"drained\": " << report.drained << ",\n"
      << "  \"retries\": " << report.retries << ",\n"
      << "  \"workers\": " << spec.config.workers << ",\n"
      << "  \"thread_budget\": " << report.thread_budget << ",\n"
      << "  \"max_threads_in_flight\": " << report.max_threads_in_flight
      << ",\n"
      << "  \"wall_seconds\": " << io::format_number(report.wall_seconds)
      << ",\n"
      << "  \"busy_thread_seconds\": "
      << io::format_number(report.busy_thread_seconds) << ",\n"
      << "  \"worker_utilisation\": "
      << io::format_number(report.utilisation()) << ",\n"
      << "  \"cases_per_hour\": " << io::format_number(report.cases_per_hour())
      << "\n"
      << "}\n";
  writer.commit();
}

}  // namespace felis::sched
