#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pftk::obs {

void MetricsShard::observe(MetricId id, double x) noexcept {
  if (!id.valid()) {
    return;
  }
  Slot& slot = slots_[id.index];
  if (!std::isfinite(x)) {
    ++slot.rejected;  // NaN/±inf: refused loudly, like the quantile guards
    return;
  }
  ++slot.count;
  slot.sum += x;
  const auto& bounds = registry_->defs_[slot.histogram].bounds;
  // Inclusive upper edges (Prometheus `le`): first bound >= x. The +inf
  // bucket is the slot after the last bound.
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), x);
  const auto offset = static_cast<std::size_t>(it - bounds.begin());
  ++buckets_[slot.first_bucket + offset];
}

MetricId MetricsRegistry::register_metric(std::string name, std::string help,
                                          MetricKind kind, std::vector<double> bounds) {
  if (frozen_) {
    throw std::logic_error("MetricsRegistry: cannot register after freeze()");
  }
  if (name.empty()) {
    throw std::invalid_argument("MetricsRegistry: metric name must be non-empty");
  }
  for (const Def& def : defs_) {
    if (def.name == name) {
      throw std::invalid_argument("MetricsRegistry: duplicate metric '" + name + "'");
    }
  }
  Def def;
  def.name = std::move(name);
  def.help = std::move(help);
  def.kind = kind;
  if (kind == MetricKind::kHistogram) {
    if (bounds.empty()) {
      throw std::invalid_argument("MetricsRegistry: histogram needs >= 1 bound");
    }
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      if (!std::isfinite(bounds[i]) || (i > 0 && !(bounds[i] > bounds[i - 1]))) {
        throw std::invalid_argument(
            "MetricsRegistry: histogram bounds must be finite and strictly increasing");
      }
    }
    def.bounds = std::move(bounds);
    def.first_bucket = static_cast<std::uint32_t>(total_buckets_);
    total_buckets_ += def.bounds.size() + 1;  // + the implicit +inf bucket
  }
  defs_.push_back(std::move(def));
  return MetricId{static_cast<std::uint32_t>(defs_.size() - 1)};
}

MetricId MetricsRegistry::counter(std::string name, std::string help) {
  return register_metric(std::move(name), std::move(help), MetricKind::kCounter, {});
}

MetricId MetricsRegistry::gauge(std::string name, std::string help) {
  return register_metric(std::move(name), std::move(help), MetricKind::kGauge, {});
}

MetricId MetricsRegistry::histogram(std::string name, std::string help,
                                    std::vector<double> bounds) {
  return register_metric(std::move(name), std::move(help), MetricKind::kHistogram,
                         std::move(bounds));
}

void MetricsRegistry::freeze(std::size_t shards) {
  if (frozen_) {
    throw std::logic_error("MetricsRegistry: freeze() called twice");
  }
  if (shards == 0) {
    throw std::invalid_argument("MetricsRegistry: need >= 1 shard");
  }
  shards_.resize(shards);
  for (MetricsShard& shard : shards_) {
    shard.registry_ = this;
    shard.slots_.resize(defs_.size());
    shard.buckets_.assign(total_buckets_, 0);
    for (std::size_t i = 0; i < defs_.size(); ++i) {
      if (defs_[i].kind == MetricKind::kHistogram) {
        shard.slots_[i].histogram = static_cast<std::uint32_t>(i);
        shard.slots_[i].first_bucket = defs_[i].first_bucket;
      }
    }
  }
  frozen_ = true;
}

MetricsShard& MetricsRegistry::shard(std::size_t i) {
  if (!frozen_) {
    throw std::logic_error("MetricsRegistry: freeze() before shard()");
  }
  return shards_.at(i);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  if (!frozen_) {
    return snap;  // nothing recorded yet: an empty snapshot, not an error
  }
  snap.metrics.resize(defs_.size());
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    MetricValue& mv = snap.metrics[i];
    mv.name = defs_[i].name;
    mv.help = defs_[i].help;
    mv.kind = defs_[i].kind;
    if (mv.kind == MetricKind::kHistogram) {
      mv.bounds = defs_[i].bounds;
      mv.buckets.assign(defs_[i].bounds.size() + 1, 0);
    }
    for (const MetricsShard& shard : shards_) {
      const MetricsShard::Slot& slot = shard.slots_[i];
      if (mv.kind == MetricKind::kGauge) {
        mv.value = std::max(mv.value, slot.value);
      } else {
        mv.value += slot.value;
      }
      if (mv.kind == MetricKind::kHistogram) {
        mv.count = saturating_add(mv.count, slot.count);
        mv.sum += slot.sum;
        mv.rejected = saturating_add(mv.rejected, slot.rejected);
        for (std::size_t b = 0; b < mv.buckets.size(); ++b) {
          mv.buckets[b] =
              saturating_add(mv.buckets[b], shard.buckets_[slot.first_bucket + b]);
        }
      }
    }
  }
  return snap;
}

const MetricValue* MetricsSnapshot::find(const std::string& name) const noexcept {
  for (const MetricValue& mv : metrics) {
    if (mv.name == name) {
      return &mv;
    }
  }
  return nullptr;
}

MetricsSnapshot& MetricsSnapshot::merge(const MetricsSnapshot& other) {
  // Self-merge must double values, not walk a vector it is appending to:
  // merging a copy covers both aliasing and plain duplicates.
  if (&other == this) {
    const MetricsSnapshot copy = other;
    return merge(copy);
  }
  for (const MetricValue& theirs : other.metrics) {
    MetricValue* ours = nullptr;
    for (MetricValue& mv : metrics) {
      if (mv.name == theirs.name) {
        ours = &mv;
        break;
      }
    }
    if (ours == nullptr) {
      metrics.push_back(theirs);
      continue;
    }
    ours->merge(theirs);
  }
  return *this;
}

void MetricValue::merge(const MetricValue& other) {
  if (kind != other.kind || bounds != other.bounds ||
      buckets.size() != other.buckets.size()) {
    throw std::invalid_argument("obs: metric '" + other.name +
                                "' disagrees on kind or bucket bounds");
  }
  if (kind == MetricKind::kGauge) {
    value = std::max(value, other.value);
  } else {
    value += other.value;
  }
  count = saturating_add(count, other.count);
  sum += other.sum;
  rejected = saturating_add(rejected, other.rejected);
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    buckets[b] = saturating_add(buckets[b], other.buckets[b]);
  }
}

double MetricValue::quantile(double q) const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : buckets) {
    total = saturating_add(total, c);
  }
  if (total == 0) {
    return 0.0;
  }
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t next = saturating_add(cum, buckets[i]);
    if (static_cast<double>(next) >= target && buckets[i] > 0) {
      // The +inf bucket has no width; clamp its estimate to the last
      // finite edge rather than inventing an upper bound.
      if (i >= bounds.size()) {
        break;
      }
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double into = (target - static_cast<double>(cum)) /
                          static_cast<double>(buckets[i]);
      return lo + (bounds[i] - lo) * std::clamp(into, 0.0, 1.0);
    }
    cum = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

}  // namespace pftk::obs
