#include "telemetry/metrics.hpp"

#include "common/error.hpp"

namespace felis::telemetry {

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

Metric& MetricsRegistry::slot(const std::string& name, MetricKind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& entry = metrics_[name];
  if (!entry) {
    entry = std::make_unique<Metric>(name, kind);
  } else {
    FELIS_CHECK_MSG(entry->kind() == kind,
                    "metric '" << name << "' registered as "
                               << metric_kind_name(entry->kind())
                               << " but accessed as "
                               << metric_kind_name(kind));
  }
  return *entry;
}

const Metric* MetricsRegistry::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : it->second.get();
}

std::vector<MetricRow> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricRow> rows;
  rows.reserve(metrics_.size());
  for (const auto& [name, metric] : metrics_) {
    MetricRow row;
    row.name = name;
    row.kind = metric->kind();
    row.value = metric->value();
    row.count = metric->count();
    row.sum = metric->sum();
    row.min = metric->min();
    row.max = metric->max();
    rows.push_back(std::move(row));
  }
  return rows;
}

usize MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return metrics_.size();
}

io::Map metrics_map(const MetricsRegistry& metrics) {
  io::Map out;
  for (const MetricRow& row : metrics.snapshot()) {
    if (row.kind == MetricKind::kHistogram) {
      const bool empty = row.count <= 0;
      out.emplace_back(row.name,
                       io::Histogram{row.value, row.count, row.sum,
                                     empty ? 0 : row.min, empty ? 0 : row.max});
    } else {
      out.emplace_back(row.name, row.value);
    }
  }
  return out;
}

}  // namespace felis::telemetry
