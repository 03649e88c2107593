#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace nlft::obs {

namespace {

/// Renders a spec's bin edges for mismatch diagnostics: "[lo, hi) / N bins".
std::string describeSpec(const HistogramSpec& spec) {
  char buffer[96];
  std::snprintf(buffer, sizeof buffer, "[%g, %g) / %zu bins", spec.lo, spec.hi, spec.buckets);
  return buffer;
}

}  // namespace

bool isNonGoldenMetric(const std::string& name) {
  return name.rfind("wall.", 0) == 0 || name.rfind("snap.", 0) == 0;
}

Registry::Registry(const Registry& other) {
  std::scoped_lock lock{other.mutex_};
  counters_ = other.counters_;
  gauges_ = other.gauges_;
  histograms_ = other.histograms_;
}

Registry& Registry::operator=(const Registry& other) {
  if (this == &other) return *this;
  std::scoped_lock lock{mutex_, other.mutex_};
  counters_ = other.counters_;
  gauges_ = other.gauges_;
  histograms_ = other.histograms_;
  return *this;
}

Registry::Registry(Registry&& other) noexcept {
  std::scoped_lock lock{other.mutex_};
  counters_ = std::move(other.counters_);
  gauges_ = std::move(other.gauges_);
  histograms_ = std::move(other.histograms_);
}

Registry& Registry::operator=(Registry&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock{mutex_, other.mutex_};
  counters_ = std::move(other.counters_);
  gauges_ = std::move(other.gauges_);
  histograms_ = std::move(other.histograms_);
  return *this;
}

void Registry::add(const std::string& name, std::uint64_t delta) {
  std::scoped_lock lock{mutex_};
  counters_[name] += delta;
}

void Registry::gaugeMax(const std::string& name, double value) {
  std::scoped_lock lock{mutex_};
  auto [it, inserted] = gauges_.try_emplace(name, value);
  if (!inserted) it->second = std::max(it->second, value);
}

std::size_t bucketIndex(const HistogramSpec& spec, double value) {
  const double clamped = std::min(std::max(value, spec.lo), spec.hi);
  const double width = (spec.hi - spec.lo) / static_cast<double>(spec.buckets);
  const std::size_t bucket =
      value < spec.lo ? 0 : static_cast<std::size_t>((clamped - spec.lo) / width);
  return std::min(bucket, spec.buckets - 1);
}

Registry::HistogramState& Registry::histogramFor(const std::string& name,
                                                 const HistogramSpec& spec, const char* caller) {
  if (spec.buckets == 0 || !(spec.lo < spec.hi)) {
    throw std::invalid_argument(std::string{caller} + ": bad histogram spec for " + name);
  }
  auto [it, inserted] = histograms_.try_emplace(name);
  HistogramState& state = it->second;
  if (inserted) {
    state.spec = spec;
    state.counts.assign(spec.buckets, 0);
  } else if (!(state.spec == spec)) {
    throw std::invalid_argument(std::string{caller} + ": histogram spec mismatch for " + name +
                                ": registered " + describeSpec(state.spec) + " vs observed " +
                                describeSpec(spec));
  }
  return state;
}

void Registry::observe(const std::string& name, const HistogramSpec& spec, double value) {
  std::scoped_lock lock{mutex_};
  HistogramState& state = histogramFor(name, spec, "Registry::observe");
  ++state.counts[bucketIndex(spec, value)];
  ++state.total;
}

void Registry::addHistogram(const std::string& name, const HistogramSpec& spec,
                            std::span<const std::uint64_t> counts) {
  if (counts.size() != spec.buckets) {
    throw std::invalid_argument("Registry::addHistogram: " + std::to_string(counts.size()) +
                                " counts for a " + std::to_string(spec.buckets) +
                                "-bucket histogram " + name);
  }
  std::scoped_lock lock{mutex_};
  HistogramState& state = histogramFor(name, spec, "Registry::addHistogram");
  for (std::size_t b = 0; b < counts.size(); ++b) {
    state.counts[b] += counts[b];
    state.total += counts[b];
  }
}

std::uint64_t Registry::count(const std::string& name) const {
  std::scoped_lock lock{mutex_};
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double Registry::gauge(const std::string& name) const {
  std::scoped_lock lock{mutex_};
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

bool Registry::hasCounter(const std::string& name) const {
  std::scoped_lock lock{mutex_};
  return counters_.count(name) != 0;
}

HistogramSnapshot Registry::histogram(const std::string& name) const {
  std::scoped_lock lock{mutex_};
  const auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    throw std::invalid_argument("Registry::histogram: unknown histogram " + name);
  }
  return HistogramSnapshot{it->second.spec, it->second.counts, it->second.total};
}

namespace {
template <typename Map>
std::vector<std::string> keysOf(const Map& map) {
  std::vector<std::string> names;
  names.reserve(map.size());
  for (const auto& [name, value] : map) names.push_back(name);
  return names;
}
}  // namespace

std::vector<std::string> Registry::counterNames() const {
  std::scoped_lock lock{mutex_};
  return keysOf(counters_);
}

std::vector<std::string> Registry::gaugeNames() const {
  std::scoped_lock lock{mutex_};
  return keysOf(gauges_);
}

std::vector<std::string> Registry::histogramNames() const {
  std::scoped_lock lock{mutex_};
  return keysOf(histograms_);
}

void Registry::merge(const Registry& other) {
  if (this == &other) throw std::invalid_argument("Registry::merge: self-merge");
  std::scoped_lock lock{mutex_, other.mutex_};
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
  for (const auto& [name, value] : other.gauges_) {
    auto [it, inserted] = gauges_.try_emplace(name, value);
    if (!inserted) it->second = std::max(it->second, value);
  }
  for (const auto& [name, theirs] : other.histograms_) {
    auto [it, inserted] = histograms_.try_emplace(name, theirs);
    if (inserted) continue;
    HistogramState& mine = it->second;
    if (!(mine.spec == theirs.spec)) {
      throw std::invalid_argument("Registry::merge: histogram spec mismatch for " + name +
                                  ": ours " + describeSpec(mine.spec) + " vs theirs " +
                                  describeSpec(theirs.spec));
    }
    for (std::size_t b = 0; b < mine.counts.size(); ++b) mine.counts[b] += theirs.counts[b];
    mine.total += theirs.total;
  }
}

void Registry::clear() {
  std::scoped_lock lock{mutex_};
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

namespace {

JsonValue histogramJson(const HistogramSpec& spec, const std::vector<std::uint64_t>& counts,
                        std::uint64_t total) {
  JsonValue h = JsonValue::object();
  h.set("lo", JsonValue::number(spec.lo));
  h.set("hi", JsonValue::number(spec.hi));
  JsonValue bins = JsonValue::array();
  for (const std::uint64_t c : counts) bins.push(JsonValue::integer(static_cast<std::int64_t>(c)));
  h.set("counts", std::move(bins));
  h.set("total", JsonValue::integer(static_cast<std::int64_t>(total)));
  return h;
}

}  // namespace

JsonValue Registry::toJson() const {
  std::scoped_lock lock{mutex_};
  JsonValue root = JsonValue::object();
  JsonValue counters = JsonValue::object();
  for (const auto& [name, value] : counters_) {
    counters.set(name, JsonValue::integer(static_cast<std::int64_t>(value)));
  }
  JsonValue gauges = JsonValue::object();
  for (const auto& [name, value] : gauges_) gauges.set(name, JsonValue::number(value));
  JsonValue histograms = JsonValue::object();
  for (const auto& [name, state] : histograms_) {
    histograms.set(name, histogramJson(state.spec, state.counts, state.total));
  }
  root.set("counters", std::move(counters));
  root.set("gauges", std::move(gauges));
  root.set("histograms", std::move(histograms));
  return root;
}

JsonValue Registry::goldenJson() const {
  std::scoped_lock lock{mutex_};
  JsonValue root = JsonValue::object();
  JsonValue counters = JsonValue::object();
  for (const auto& [name, value] : counters_) {
    if (isNonGoldenMetric(name)) continue;
    counters.set(name, JsonValue::integer(static_cast<std::int64_t>(value)));
  }
  JsonValue gauges = JsonValue::object();
  for (const auto& [name, value] : gauges_) {
    if (!isNonGoldenMetric(name)) gauges.set(name, JsonValue::number(value));
  }
  JsonValue histograms = JsonValue::object();
  for (const auto& [name, state] : histograms_) {
    if (isNonGoldenMetric(name)) continue;
    histograms.set(name, histogramJson(state.spec, state.counts, state.total));
  }
  root.set("counters", std::move(counters));
  root.set("gauges", std::move(gauges));
  root.set("histograms", std::move(histograms));
  return root;
}

std::string Registry::goldenFingerprint() const { return goldenJson().dump(); }

}  // namespace nlft::obs
