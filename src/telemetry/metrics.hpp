/// \file metrics.hpp
/// \brief Named counters / gauges / histograms with cheap thread-safe
/// recording — the per-step metric store of the telemetry layer.
///
/// The paper's analysis (§6, Figs. 3–4) is built from exact per-region
/// operation counts plus per-step solver statistics; this registry is where
/// the per-step half lives. Metric identity is a dotted name
/// ("solver.pressure_iterations", "gs.message_bytes"); creation is
/// mutex-guarded and idempotent, while recording on an existing `Metric` is
/// lock-free (std::atomic_ref, like Profiler's counter charging) so kernels,
/// stream workers and simulated-rank threads may charge concurrently.
///
/// Kinds:
///  * counter   — monotone accumulator (`add`), e.g. messages sent;
///  * gauge     — last written value (`set`), e.g. the current CFL number;
///  * histogram — running count/sum/min/max (`observe`), e.g. checkpoint
///    write latency. Enough for NDJSON step records and the CSV summary
///    without per-sample storage.
#pragma once

#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "io/record.hpp"

namespace felis::telemetry {

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Returns "counter" / "gauge" / "histogram".
const char* metric_kind_name(MetricKind kind);

/// One registered metric. Recording members are safe to call from any number
/// of threads concurrently; reads (`value()` etc.) are atomic per field but
/// not mutually consistent across fields — snapshots are advisory.
class Metric {
 public:
  Metric(std::string name, MetricKind kind)
      : name_(std::move(name)), kind_(kind) {}

  const std::string& name() const { return name_; }
  MetricKind kind() const { return kind_; }

  /// Counter: value += n.
  void add(double n) {
    std::atomic_ref<double>(value_).fetch_add(n, std::memory_order_relaxed);
    std::atomic_ref<double>(count_).fetch_add(1, std::memory_order_relaxed);
  }

  /// Gauge: value = v (last writer wins).
  void set(double v) {
    std::atomic_ref<double>(value_).store(v, std::memory_order_relaxed);
    std::atomic_ref<double>(count_).fetch_add(1, std::memory_order_relaxed);
  }

  /// Histogram: fold v into count/sum/min/max (value tracks the last sample).
  void observe(double v) {
    std::atomic_ref<double>(value_).store(v, std::memory_order_relaxed);
    std::atomic_ref<double>(count_).fetch_add(1, std::memory_order_relaxed);
    std::atomic_ref<double>(sum_).fetch_add(v, std::memory_order_relaxed);
    atomic_min(min_, v);
    atomic_max(max_, v);
  }

  double value() const {
    return std::atomic_ref<const double>(value_).load(std::memory_order_relaxed);
  }
  double count() const {
    return std::atomic_ref<const double>(count_).load(std::memory_order_relaxed);
  }
  double sum() const {
    return std::atomic_ref<const double>(sum_).load(std::memory_order_relaxed);
  }
  double min() const {
    return std::atomic_ref<const double>(min_).load(std::memory_order_relaxed);
  }
  double max() const {
    return std::atomic_ref<const double>(max_).load(std::memory_order_relaxed);
  }

 private:
  static void atomic_min(double& slot, double v) {
    std::atomic_ref<double> ref(slot);
    double cur = ref.load(std::memory_order_relaxed);
    while (v < cur &&
           !ref.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void atomic_max(double& slot, double v) {
    std::atomic_ref<double> ref(slot);
    double cur = ref.load(std::memory_order_relaxed);
    while (v > cur &&
           !ref.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::string name_;
  MetricKind kind_;
  double value_ = 0;  ///< counter sum / gauge last / histogram last
  double count_ = 0;  ///< recordings
  double sum_ = 0;    ///< histogram only
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Point-in-time copy of one metric (what the sinks serialize).
struct MetricRow {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0;
  double count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
};

/// Find-or-create registry of metrics. Handles returned by counter()/gauge()/
/// histogram() are stable for the registry's lifetime, so hot callers cache
/// them; the name-based add()/set()/observe() conveniences pay one map lookup
/// and are meant for once-per-step charging.
class MetricsRegistry {
 public:
  Metric& counter(const std::string& name) {
    return slot(name, MetricKind::kCounter);
  }
  Metric& gauge(const std::string& name) {
    return slot(name, MetricKind::kGauge);
  }
  Metric& histogram(const std::string& name) {
    return slot(name, MetricKind::kHistogram);
  }

  void add(const std::string& name, double n) { counter(name).add(n); }
  void set(const std::string& name, double v) { gauge(name).set(v); }
  void observe(const std::string& name, double v) { histogram(name).observe(v); }

  /// Existing metric or nullptr (never creates).
  const Metric* find(const std::string& name) const;

  /// Advisory snapshot of every metric, sorted by name.
  std::vector<MetricRow> snapshot() const;

  usize size() const;

 private:
  Metric& slot(const std::string& name, MetricKind kind);

  mutable std::mutex mutex_;  ///< guards the map shape, never the recording
  std::map<std::string, std::unique_ptr<Metric>> metrics_;
};

/// A snapshot of `metrics` as a journal record's `metrics` map: counters and
/// gauges as numbers, histograms as {last,count,sum,min,max} with min/max 0
/// until the first observation. Telemetry step records and the scheduler's
/// `sched` records both write it.
io::Map metrics_map(const MetricsRegistry& metrics);

}  // namespace felis::telemetry
