#include "telemetry/telemetry.hpp"

#include <filesystem>

#include "common/logger.hpp"
#include "io/atomic_file.hpp"
#include "io/durable_append.hpp"
#include "io/record.hpp"

namespace felis::telemetry {

std::atomic<Telemetry*> Telemetry::current_{nullptr};

TelemetryConfig config_from_params(const ParamMap& params) {
  TelemetryConfig cfg;
  cfg.enabled = params.get_bool("telemetry.enabled", cfg.enabled);
  cfg.dir = params.get_string("telemetry.dir", cfg.dir);
  cfg.basename = params.get_string("telemetry.basename", cfg.basename);
  cfg.interval = params.get_int("telemetry.interval",
                                static_cast<int>(cfg.interval));
  if (cfg.interval < 1) cfg.interval = 1;
  cfg.trace = params.get_bool("telemetry.trace", cfg.trace);
  cfg.flush_every = params.get_int("telemetry.flush_every", cfg.flush_every);
  cfg.max_trace_events = static_cast<usize>(params.get_int(
      "telemetry.max_trace_events", static_cast<int>(cfg.max_trace_events)));
  cfg.health.heartbeat =
      params.get_int("telemetry.heartbeat", static_cast<int>(cfg.health.heartbeat));
  cfg.health.spike_factor =
      params.get_real("telemetry.spike_factor", cfg.health.spike_factor);
  cfg.health.spike_margin =
      params.get_int("telemetry.spike_margin", cfg.health.spike_margin);
  cfg.health.stagnation_run = static_cast<usize>(params.get_int(
      "telemetry.stagnation_run", static_cast<int>(cfg.health.stagnation_run)));
  return cfg;
}

namespace {

double gauge_value(const MetricsRegistry& metrics, const char* name) {
  const Metric* m = metrics.find(name);
  return m ? m->value() : 0.0;
}

}  // namespace

Telemetry::Telemetry(TelemetryConfig config,
                     std::map<std::string, std::string> metadata)
    : config_(std::move(config)),
      metadata_(std::move(metadata)),
      epoch_(std::chrono::steady_clock::now()),
      health_(std::make_unique<RunHealth>(config_.health,
                                          config_.enabled ? &metrics_ : nullptr)) {
  if (!config_.enabled) return;

  // Pre-register the fields every step record must carry (acceptance: a
  // record always contains iteration counts, residuals, Nu, CFL, checkpoint
  // stats — even on a step where a subsystem charged nothing).
  for (const char* g : {"solver.cfl", "solver.dt", "solver.time",
                        "solver.pressure_iterations",
                        "solver.velocity_iterations",
                        "solver.scalar_iterations", "solver.pressure_residual",
                        "solver.divergence", "solver.projection_basis",
                        "case.nu_plate", "case.nu_volume"}) {
    metrics_.gauge(g);
  }
  for (const char* c : {"checkpoint.writes", "checkpoint.retries",
                        "checkpoint.bytes", "health.anomalies",
                        "health.flags.iteration_spike",
                        "health.flags.residual_stagnation",
                        "health.flags.checkpoint_retry"}) {
    metrics_.counter(c);
  }
  metrics_.histogram("checkpoint.write_seconds");
  metrics_.histogram("telemetry.step_seconds");

  std::filesystem::create_directories(config_.dir);
  ndjson_path_ = config_.dir + "/" + config_.basename + ".ndjson";
  trace_path_ = config_.dir + "/" + config_.basename + ".trace.json";
  summary_path_ = config_.dir + "/" + config_.basename + ".summary.csv";
  // Truncate a stale stream from a previous run before appending.
  { std::error_code ec; std::filesystem::remove(ndjson_path_, ec); }
  ndjson_ = std::make_unique<io::DurableAppendWriter>(ndjson_path_,
                                                      config_.flush_every);
  write_header_record();

  trace_.start_at(epoch_);

  Telemetry* expected = nullptr;
  installed_ = current_.compare_exchange_strong(expected, this,
                                                std::memory_order_relaxed);
  if (!installed_) {
    FELIS_LOG_WARN("telemetry: another context is already installed; this one "
                   "records only what is charged through it directly");
  }
}

Telemetry::~Telemetry() {
  try {
    finalize();
  } catch (...) {
    // Destructor must not throw; the NDJSON stream is fsync'd per record, so
    // at worst the summary/trace files are missing.
  }
}

double Telemetry::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void Telemetry::attach_profiler(Profiler* prof) {
  if (!config_.enabled || prof == nullptr) return;
  profiler_ = prof;
  if (config_.trace) prof->enable_timeline(epoch_, config_.max_trace_events);
}

void Telemetry::detach_profiler(Profiler* prof) {
  if (prof == nullptr || prof != profiler_) return;
  profiler_events_ = prof->timeline();
  profiler_dropped_ = prof->timeline_dropped();
  prof->disable_timeline();
  profiler_ = nullptr;
}

bool Telemetry::sampling_due(std::int64_t step) const {
  return config_.enabled && step % config_.interval == 0;
}

void Telemetry::begin_step(std::int64_t step) {
  (void)step;
  if (!config_.enabled) return;
  step_watch_ = std::make_unique<Stopwatch>();
}

void Telemetry::end_step(std::int64_t step, double sim_time) {
  if (!config_.enabled || finalized_) return;
  const double step_seconds = step_watch_ ? step_watch_->seconds() : 0.0;
  step_watch_.reset();
  metrics_.observe("telemetry.step_seconds", step_seconds);

  if (step_marks_.size() < config_.max_trace_events)
    step_marks_.push_back({step, now()});

  feed_health(step, step_seconds);

  if (sampling_due(step)) {
    ndjson_->append(step_record(step, sim_time, step_seconds));
    ++records_written_;
  }
}

void Telemetry::feed_health(std::int64_t step, double step_seconds) {
  StepSample sample;
  sample.step = step;
  sample.wall_seconds = now();
  sample.step_seconds = step_seconds;
  sample.cfl = gauge_value(metrics_, "solver.cfl");
  sample.pressure_iterations =
      static_cast<int>(gauge_value(metrics_, "solver.pressure_iterations"));
  sample.pressure_residual = gauge_value(metrics_, "solver.pressure_residual");
  sample.nusselt = gauge_value(metrics_, "case.nu_volume");
  sample.arena_bytes = gauge_value(metrics_, "device.arena_high_water");
  health_->on_step(sample);
}

void Telemetry::write_header_record() {
  const io::Map metadata(metadata_.begin(), metadata_.end());
  ndjson_->append(io::Record()
                      .add("type", "header")
                      .add("schema", 1)
                      .add("interval", config_.interval)
                      .add("metadata", metadata)
                      .str());
}

std::string Telemetry::step_record(std::int64_t step, double sim_time,
                                   double step_seconds) const {
  return io::Record()
      .add("type", "step")
      .add("step", step)
      .add("time", sim_time)
      .add("wall_seconds", now())
      .add("step_seconds", step_seconds)
      .add("metrics", metrics_map(metrics_))
      .str();
}

void Telemetry::write_summary_csv() const {
  io::AtomicFileWriter writer(summary_path_);
  std::ostream& os = writer.stream();
  for (const auto& [key, value] : metadata_) {
    os << "# " << key << " = " << value << '\n';
  }
  os << "name,kind,value,count,sum,min,max\n";
  for (const MetricRow& row : metrics_.snapshot()) {
    os << row.name << ',' << metric_kind_name(row.kind) << ','
       << io::format_number(row.value) << ','
       << io::format_number(row.count) << ',' << io::format_number(row.sum)
       << ',' << io::format_number(row.count > 0 ? row.min : 0) << ','
       << io::format_number(row.count > 0 ? row.max : 0) << '\n';
  }
  writer.commit();
}

void Telemetry::write_chrome_trace() const {
  std::map<std::string, std::string> meta = metadata_;
  if (profiler_dropped_ > 0) {
    meta["profiler_events_dropped"] = std::to_string(profiler_dropped_);
  }
  const std::string json = chrome_trace_json(profiler_events_, trace_.events(),
                                             step_marks_, meta);
  io::AtomicFileWriter writer(trace_path_);
  writer.stream() << json;
  writer.commit();
}

void Telemetry::finalize() {
  if (!config_.enabled || finalized_) return;
  finalized_ = true;
  if (installed_) {
    current_.store(nullptr, std::memory_order_relaxed);
    installed_ = false;
  }
  detach_profiler(profiler_);  // harvest the timeline if the solver is alive
  ndjson_->sync();
  write_summary_csv();
  if (config_.trace) write_chrome_trace();
  FELIS_LOG_INFO("telemetry: ", records_written_, " step records -> ",
                 ndjson_path_, "; summary -> ", summary_path_,
                 config_.trace ? "; trace -> " + trace_path_ : std::string());
}

}  // namespace felis::telemetry
