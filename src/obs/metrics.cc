#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>

namespace afex {
namespace obs {

namespace {

std::atomic<uint32_t> g_next_thread_slot{0};
thread_local uint32_t t_thread_slot = UINT32_MAX;

std::string FormatNumber(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

// Quantile over merged buckets with linear interpolation inside the
// landing bucket, clamped to the observed [min, max].
double BucketQuantile(const uint64_t* buckets, uint64_t count, double q, uint64_t min_ns,
                      uint64_t max_ns) {
  if (count == 0) {
    return 0.0;
  }
  double target = q * static_cast<double>(count);
  if (target < 1.0) {
    target = 1.0;
  }
  uint64_t cumulative = 0;
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) {
      continue;
    }
    uint64_t next = cumulative + buckets[b];
    if (static_cast<double>(next) >= target) {
      double lower = static_cast<double>(HistogramBucketLowerBound(b));
      double upper = b + 1 < kHistogramBuckets
                         ? static_cast<double>(HistogramBucketLowerBound(b + 1))
                         : static_cast<double>(max_ns) + 1.0;
      double within = (target - static_cast<double>(cumulative)) /
                      static_cast<double>(buckets[b]);
      double value = lower + within * (upper - lower);
      value = std::max(value, static_cast<double>(min_ns));
      value = std::min(value, static_cast<double>(max_ns));
      return value;
    }
    cumulative = next;
  }
  return static_cast<double>(max_ns);
}

}  // namespace

uint64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point anchor = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - anchor).count());
}

uint32_t ThreadSlot() {
  if (t_thread_slot == UINT32_MAX) {
    t_thread_slot = g_next_thread_slot.fetch_add(1, std::memory_order_relaxed);
  }
  return t_thread_slot;
}

size_t HistogramBucketIndex(uint64_t value) {
  if (value < kHistogramSubBuckets) {
    return static_cast<size_t>(value);
  }
  uint64_t capped = std::min(value, (uint64_t{1} << kHistogramMaxExponent) - 1);
  uint32_t exponent = 63 - static_cast<uint32_t>(std::countl_zero(capped));
  uint64_t sub = (capped >> (exponent - 3)) & (kHistogramSubBuckets - 1);
  return kHistogramSubBuckets + (exponent - 3) * kHistogramSubBuckets +
         static_cast<size_t>(sub);
}

uint64_t HistogramBucketLowerBound(size_t index) {
  if (index < kHistogramSubBuckets) {
    return index;
  }
  size_t offset = index - kHistogramSubBuckets;
  uint32_t exponent = 3 + static_cast<uint32_t>(offset / kHistogramSubBuckets);
  uint64_t sub = offset % kHistogramSubBuckets;
  return (kHistogramSubBuckets + sub) << (exponent - 3);
}

// One shard: a full copy of every counter and histogram cell, alone on its
// own cachelines. Threads hash onto shards by ThreadSlot(), so with up to
// kShards live threads there is no sharing at all.
struct alignas(64) MetricsRegistry::Shard {
  std::array<std::atomic<uint64_t>, kCounterCount> counters{};
  struct Hist {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    // min + 1, so 0 doubles as "no sample yet" (a 0ns sample stores 1).
    std::atomic<uint64_t> min_plus1{0};
    std::atomic<uint64_t> max{0};
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
  };
  std::array<Hist, kPhaseCount> hists{};
};

MetricsRegistry::MetricsRegistry() {
  for (auto& shard : shards_) {
    shard.store(nullptr, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < kGaugeCount; ++i) {
    gauges_[i].store(0.0, std::memory_order_relaxed);
    gauge_set_[i].store(false, std::memory_order_relaxed);
  }
}

MetricsRegistry::~MetricsRegistry() {
  for (auto& shard : shards_) {
    delete shard.load(std::memory_order_acquire);
  }
}

MetricsRegistry::Shard* MetricsRegistry::ShardAt(size_t index) const {
  return shards_[index].load(std::memory_order_acquire);
}

MetricsRegistry::Shard& MetricsRegistry::ShardForThisThread() {
  size_t index = ThreadSlot() % kShards;
  Shard* shard = shards_[index].load(std::memory_order_acquire);
  if (shard == nullptr) {
    std::lock_guard<std::mutex> lock(shard_mutex_);
    shard = shards_[index].load(std::memory_order_relaxed);
    if (shard == nullptr) {
      shard = new Shard();
      shards_[index].store(shard, std::memory_order_release);
    }
  }
  return *shard;
}

void MetricsRegistry::AddCounter(Counter counter, uint64_t delta) {
  ShardForThisThread().counters[static_cast<size_t>(counter)].fetch_add(
      delta, std::memory_order_relaxed);
}

void MetricsRegistry::SetGauge(Gauge gauge, double value) {
  const auto id = static_cast<size_t>(gauge);
  gauges_[id].store(value, std::memory_order_relaxed);
  gauge_set_[id].store(true, std::memory_order_release);
}

void MetricsRegistry::RecordLatencyNs(Phase phase, uint64_t ns) {
  Shard::Hist& hist = ShardForThisThread().hists[static_cast<size_t>(phase)];
  hist.count.fetch_add(1, std::memory_order_relaxed);
  hist.sum.fetch_add(ns, std::memory_order_relaxed);
  hist.buckets[HistogramBucketIndex(ns)].fetch_add(1, std::memory_order_relaxed);
  uint64_t candidate = ns + 1;
  uint64_t current = hist.min_plus1.load(std::memory_order_relaxed);
  while ((current == 0 || candidate < current) &&
         !hist.min_plus1.compare_exchange_weak(current, candidate,
                                               std::memory_order_relaxed)) {
  }
  current = hist.max.load(std::memory_order_relaxed);
  while (ns > current &&
         !hist.max.compare_exchange_weak(current, ns, std::memory_order_relaxed)) {
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  for (size_t id = 0; id < kCounterCount; ++id) {
    uint64_t total = 0;
    for (size_t s = 0; s < kShards; ++s) {
      if (const Shard* shard = ShardAt(s)) {
        total += shard->counters[id].load(std::memory_order_relaxed);
      }
    }
    if (total > 0) {
      snapshot.counters.emplace_back(kCounterNames[id], total);
    }
  }
  for (size_t id = 0; id < kGaugeCount; ++id) {
    if (gauge_set_[id].load(std::memory_order_acquire)) {
      snapshot.gauges.emplace_back(kGaugeNames[id], gauges_[id].load(std::memory_order_relaxed));
    }
  }
  std::vector<uint64_t> buckets(kHistogramBuckets);
  for (size_t id = 0; id < kPhaseCount; ++id) {
    HistogramSummary summary;
    summary.name = kPhaseNames[id];
    std::fill(buckets.begin(), buckets.end(), 0);
    uint64_t min_plus1 = 0;
    for (size_t s = 0; s < kShards; ++s) {
      const Shard* shard = ShardAt(s);
      if (shard == nullptr) {
        continue;
      }
      const Shard::Hist& hist = shard->hists[id];
      summary.count += hist.count.load(std::memory_order_relaxed);
      summary.sum_ns += hist.sum.load(std::memory_order_relaxed);
      summary.max_ns = std::max(summary.max_ns, hist.max.load(std::memory_order_relaxed));
      uint64_t shard_min = hist.min_plus1.load(std::memory_order_relaxed);
      if (shard_min != 0 && (min_plus1 == 0 || shard_min < min_plus1)) {
        min_plus1 = shard_min;
      }
      for (size_t b = 0; b < kHistogramBuckets; ++b) {
        buckets[b] += hist.buckets[b].load(std::memory_order_relaxed);
      }
    }
    if (summary.count == 0) {
      continue;  // never recorded: not part of the snapshot
    }
    summary.min_ns = min_plus1 == 0 ? 0 : min_plus1 - 1;
    summary.mean_ns = static_cast<double>(summary.sum_ns) / static_cast<double>(summary.count);
    summary.p50_ns =
        BucketQuantile(buckets.data(), summary.count, 0.50, summary.min_ns, summary.max_ns);
    summary.p90_ns =
        BucketQuantile(buckets.data(), summary.count, 0.90, summary.min_ns, summary.max_ns);
    summary.p99_ns =
        BucketQuantile(buckets.data(), summary.count, 0.99, summary.min_ns, summary.max_ns);
    snapshot.histograms.push_back(std::move(summary));
  }
  return snapshot;
}

// Names come from the metric tables, whose rows need no JSON escaping
// (obs_test checks every name against [a-z]+\.[a-z_]+).
void MetricsSnapshot::WriteJson(std::ostream& out, int indent) const {
  std::string pad(static_cast<size_t>(indent), ' ');
  out << "{\n";
  out << pad << "  \"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << pad << "    \"" << counters[i].first
        << "\": " << counters[i].second;
  }
  out << (counters.empty() ? "" : "\n" + pad + "  ") << "},\n";
  out << pad << "  \"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << pad << "    \"" << gauges[i].first
        << "\": " << FormatNumber(gauges[i].second);
  }
  out << (gauges.empty() ? "" : "\n" + pad + "  ") << "},\n";
  out << pad << "  \"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSummary& h = histograms[i];
    out << (i == 0 ? "\n" : ",\n") << pad << "    \"" << h.name << "\": {"
        << "\"count\": " << h.count << ", \"sum_ns\": " << h.sum_ns
        << ", \"min_ns\": " << h.min_ns << ", \"max_ns\": " << h.max_ns
        << ", \"mean_ns\": " << FormatNumber(h.mean_ns)
        << ", \"p50_ns\": " << FormatNumber(h.p50_ns)
        << ", \"p90_ns\": " << FormatNumber(h.p90_ns)
        << ", \"p99_ns\": " << FormatNumber(h.p99_ns) << "}";
  }
  out << (histograms.empty() ? "" : "\n" + pad + "  ") << "}";
  if (!coverage_growth.empty()) {
    out << ",\n" << pad << "  \"coverage_growth\": [";
    for (size_t i = 0; i < coverage_growth.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "[" << coverage_growth[i].tests << ", "
          << coverage_growth[i].covered << "]";
    }
    out << "]";
  }
  out << "\n" << pad << "}";
}

}  // namespace obs
}  // namespace afex
