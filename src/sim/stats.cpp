#include "sim/stats.hpp"

#include <bit>
#include <iomanip>
#include <ostream>

namespace bcsim::sim {

void Histogram::record(std::uint64_t sample) noexcept {
  const std::size_t b = static_cast<std::size_t>(std::bit_width(sample));
  ++buckets_[b];
  ++count_;
  sum_ += sample;
  min_ = std::min(min_, sample);
  max_ = std::max(max_, sample);
}

double Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  double seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    seen += static_cast<double>(buckets_[b]);
    if (seen >= target) {
      // Midpoint of bucket b: samples s with bit_width(s)==b lie in
      // [2^(b-1), 2^b - 1]; bucket 0 holds only the value 0. The bucket
      // bounds are clamped to the observed [min_, max_] so the estimate
      // never leaves the range of recorded samples (bucket b is occupied,
      // so min_ <= 2^b - 1 and max_ >= 2^(b-1): lo <= hi survives).
      if (b == 0) return 0.0;
      double lo = static_cast<double>(1ULL << (b - 1));
      double hi = (b >= 64) ? static_cast<double>(max_) : static_cast<double>((1ULL << b) - 1);
      lo = std::max(lo, static_cast<double>(min_));
      hi = std::min(hi, static_cast<double>(max_));
      return (lo + hi) / 2.0;
    }
  }
  return static_cast<double>(max_);
}

void Histogram::reset() noexcept {
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0;
  min_ = ~0ULL;
  max_ = 0;
}

void Histogram::merge_from(const Histogram& other) noexcept {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Counter& StatsRegistry::counter(std::string_view name) {
  if (auto it = counters_.find(name); it != counters_.end()) return *it->second;
  counter_storage_.emplace_back();
  Counter* c = &counter_storage_.back();
  counters_.emplace(std::string(name), c);
  return *c;
}

Histogram& StatsRegistry::histogram(std::string_view name) {
  if (auto it = histograms_.find(name); it != histograms_.end()) return *it->second;
  histogram_storage_.emplace_back();
  Histogram* h = &histogram_storage_.back();
  histograms_.emplace(std::string(name), h);
  return *h;
}

std::uint64_t StatsRegistry::counter_value(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

const Histogram* StatsRegistry::find_histogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second;
}

std::uint64_t StatsRegistry::sum_by_prefix(std::string_view prefix) const {
  std::uint64_t total = 0;
  for (auto it = counters_.lower_bound(prefix); it != counters_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    total += it->second->value();
  }
  return total;
}

void StatsRegistry::report(std::ostream& os) const {
  os << "--- counters ---\n";
  for (const auto& [name, c] : counters_) {
    os << "  " << std::left << std::setw(40) << name << ' ' << c->value() << '\n';
  }
  os << "--- histograms ---\n";
  for (const auto& [name, h] : histograms_) {
    os << "  " << std::left << std::setw(40) << name << " n=" << h->count() << " mean="
       << std::fixed << std::setprecision(1) << h->mean() << " min=" << h->min()
       << " p50~" << h->quantile(0.5) << " p99~" << h->quantile(0.99) << " max=" << h->max()
       << '\n';
  }
}

void StatsRegistry::write_csv(std::ostream& os) const {
  os << "kind,name,field,value\n";
  for (const auto& [name, c] : counters_) {
    os << "counter," << name << ",value," << c->value() << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    os << "histogram," << name << ",count," << h->count() << '\n';
    os << "histogram," << name << ",sum," << h->sum() << '\n';
    os << "histogram," << name << ",min," << h->min() << '\n';
    os << "histogram," << name << ",max," << h->max() << '\n';
    os << "histogram," << name << ",mean," << h->mean() << '\n';
    os << "histogram," << name << ",p50," << h->quantile(0.5) << '\n';
    os << "histogram," << name << ",p99," << h->quantile(0.99) << '\n';
  }
}

std::uint64_t StatsRegistry::digest() const noexcept {
  Fnv1a h;
  for (const auto& [name, c] : counters_) {  // map iteration: sorted by name
    h.bytes(name.data(), name.size());
    h.u64(c->value());
  }
  for (const auto& [name, hist] : histograms_) {
    h.bytes(name.data(), name.size());
    h.u64(hist->count());
    h.u64(hist->sum());
    h.u64(hist->min());
    h.u64(hist->max());
  }
  return h.h;
}

void StatsRegistry::absorb(StatsRegistry& other) {
  for (auto& [name, c] : other.counters_) {
    counter(name).add(c->value());
    c->reset();
  }
  for (auto& [name, h] : other.histograms_) {
    histogram(name).merge_from(*h);
    h->reset();
  }
}

}  // namespace bcsim::sim
