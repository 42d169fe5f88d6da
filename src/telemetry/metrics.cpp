#include "src/telemetry/metrics.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace cvr::telemetry {

namespace {

std::uint64_t next_registry_uid() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Thread cache: registry uid -> that thread's shard. Shards are owned
/// by the registry (so a worker's tallies survive its exit); the cache
/// only holds raw pointers, and uids are process-unique, so a stale
/// entry for a destroyed registry can never alias a live one.
thread_local std::unordered_map<std::uint64_t, void*> tls_shards;

void atomic_double_add(std::atomic<double>& target, double delta) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_double_min(std::atomic<double>& target, double value) {
  double expected = target.load(std::memory_order_relaxed);
  while (value < expected && !target.compare_exchange_weak(
                                 expected, value, std::memory_order_relaxed)) {
  }
}

void atomic_double_max(std::atomic<double>& target, double value) {
  double expected = target.load(std::memory_order_relaxed);
  while (value > expected && !target.compare_exchange_weak(
                                 expected, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

double HistogramData::mean() const {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double HistogramData::quantile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the requested sample (0-based, continuous).
  const double rank = p * static_cast<double>(count - 1);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const double lo_rank = static_cast<double>(seen);
    seen += counts[b];
    // Bucket b owns the continuous ranks [lo_rank, seen): a rank between
    // its last sample and the next bucket's first still interpolates
    // here, so the estimate never steps backwards as p grows.
    if (rank >= static_cast<double>(seen)) continue;
    // Bucket bounds: underflow starts at min, overflow ends at max; the
    // first/last *used* bounds are tightened by the exact min/max too.
    double lo = b == 0 ? min : edges[b - 1];
    double hi = b == counts.size() - 1 ? max : edges[b];
    lo = std::max(lo, min);
    hi = std::min(hi, max);
    if (hi < lo) hi = lo;
    if (counts[b] == 1) return lo;
    const double frac = (rank - lo_rank) / static_cast<double>(counts[b]);
    return lo + frac * (hi - lo);
  }
  return max;
}

std::uint64_t MetricsSnapshot::counter_or(const std::string& name,
                                          std::uint64_t fallback) const {
  const auto it = counters.find(name);
  return it == counters.end() ? fallback : it->second;
}

std::vector<double> exponential_edges(double first, double factor,
                                      std::size_t count) {
  if (!(first > 0.0) || !(factor > 1.0) || count == 0) {
    throw std::invalid_argument(
        "exponential_edges: need first > 0, factor > 1, count >= 1");
  }
  std::vector<double> edges;
  edges.reserve(count);
  double edge = first;
  for (std::size_t i = 0; i < count; ++i) {
    edges.push_back(edge);
    edge *= factor;
  }
  return edges;
}

MetricsRegistry::MetricsRegistry() : uid_(next_registry_uid()) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::CounterId MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counter_ids_.find(name);
  if (it != counter_ids_.end()) return it->second;
  const CounterId id = counter_names_.size();
  counter_ids_.emplace(name, id);
  counter_names_.push_back(name);
  return id;
}

MetricsRegistry::HistogramId MetricsRegistry::histogram(
    const std::string& name, std::vector<double> edges) {
  if (edges.empty()) {
    throw std::invalid_argument("MetricsRegistry: histogram '" + name +
                                "' needs at least one bucket edge");
  }
  for (std::size_t i = 1; i < edges.size(); ++i) {
    if (!(edges[i - 1] < edges[i])) {
      throw std::invalid_argument("MetricsRegistry: histogram '" + name +
                                  "' edges must be strictly ascending");
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histogram_ids_.find(name);
  if (it != histogram_ids_.end()) return it->second;
  const HistogramId id = histogram_names_.size();
  histogram_ids_.emplace(name, id);
  histogram_names_.push_back(name);
  histogram_edges_.push_back(
      std::make_unique<const std::vector<double>>(std::move(edges)));
  return id;
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  void*& slot = tls_shards[uid_];
  if (slot == nullptr) {
    auto shard = std::make_unique<Shard>();
    std::lock_guard<std::mutex> lock(mutex_);
    shard->counters = std::vector<std::atomic<std::uint64_t>>(
        counter_names_.size());
    shard->hists.reserve(histogram_edges_.size());
    for (const auto& edges : histogram_edges_) {
      shard->hists.push_back(std::make_unique<HistShard>(edges.get()));
    }
    slot = shard.get();
    shards_.push_back(std::move(shard));
  }
  return *static_cast<Shard*>(slot);
}

void MetricsRegistry::sync_shard(Shard& shard) {
  // Late registration: grow this thread's shard to the current metric
  // set. Under the mutex so snapshot() never reads a vector mid-resize;
  // only the owning thread writes the slots themselves.
  std::lock_guard<std::mutex> lock(mutex_);
  if (shard.counters.size() < counter_names_.size()) {
    std::vector<std::atomic<std::uint64_t>> grown(counter_names_.size());
    for (std::size_t i = 0; i < shard.counters.size(); ++i) {
      grown[i].store(shard.counters[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    }
    shard.counters = std::move(grown);
  }
  while (shard.hists.size() < histogram_edges_.size()) {
    shard.hists.push_back(
        std::make_unique<HistShard>(histogram_edges_[shard.hists.size()].get()));
  }
}

void MetricsRegistry::add(CounterId id, std::uint64_t delta) {
  Shard& shard = local_shard();
  if (id >= shard.counters.size()) sync_shard(shard);
  shard.counters[id].fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::record(HistogramId id, double value) {
  Shard& shard = local_shard();
  if (id >= shard.hists.size()) sync_shard(shard);
  HistShard& hist = *shard.hists[id];
  const std::vector<double>& edges = *hist.edges;
  // Bucket index: first edge strictly greater than value; the overflow
  // bucket catches value >= last edge.
  const auto it = std::upper_bound(edges.begin(), edges.end(), value);
  const std::size_t bucket = static_cast<std::size_t>(it - edges.begin());
  hist.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t prior =
      hist.count.fetch_add(1, std::memory_order_relaxed);
  atomic_double_add(hist.sum, value);
  if (prior == 0) {
    // First sample of this shard: seed min/max (the zero defaults would
    // otherwise clamp all-positive samples).
    hist.min.store(value, std::memory_order_relaxed);
    hist.max.store(value, std::memory_order_relaxed);
  } else {
    atomic_double_min(hist.min, value);
    atomic_double_max(hist.max, value);
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (std::size_t id = 0; id < counter_names_.size(); ++id) {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      if (id < shard->counters.size()) {
        total += shard->counters[id].load(std::memory_order_relaxed);
      }
    }
    snap.counters.emplace(counter_names_[id], total);
  }
  for (std::size_t id = 0; id < histogram_names_.size(); ++id) {
    HistogramData data;
    data.edges = *histogram_edges_[id];
    data.counts.assign(data.edges.size() + 1, 0);
    bool first = true;
    for (const auto& shard : shards_) {
      if (id >= shard->hists.size()) continue;
      const HistShard& hist = *shard->hists[id];
      const std::uint64_t n = hist.count.load(std::memory_order_relaxed);
      if (n == 0) continue;
      for (std::size_t b = 0; b < data.counts.size(); ++b) {
        data.counts[b] += hist.buckets[b].load(std::memory_order_relaxed);
      }
      data.count += n;
      data.sum += hist.sum.load(std::memory_order_relaxed);
      const double lo = hist.min.load(std::memory_order_relaxed);
      const double hi = hist.max.load(std::memory_order_relaxed);
      data.min = first ? lo : std::min(data.min, lo);
      data.max = first ? hi : std::max(data.max, hi);
      first = false;
    }
    snap.histograms.emplace(histogram_names_[id], std::move(data));
  }
  return snap;
}

}  // namespace cvr::telemetry
