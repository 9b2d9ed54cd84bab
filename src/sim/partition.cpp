#include "sim/partition.hpp"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <stdexcept>
#include <thread>
#include <utility>

#include "sim/simulation.hpp"

namespace rss::sim {

namespace {

/// Union-find with union-by-size and path halving; the agglomeration below
/// is two O(E alpha) passes, so partitioning stays cheap even for
/// Scale-preset-sized graphs.
struct DisjointSets {
  explicit DisjointSets(std::size_t n) : parent(n), size(n, 1) {
    for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  }

  std::size_t find(std::size_t v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  }

  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size[a] < size[b]) std::swap(a, b);
    parent[b] = a;
    size[a] += size[b];
    return true;
  }

  std::vector<std::size_t> parent;
  std::vector<std::size_t> size;
};

void check_edges(std::size_t node_count, const std::vector<PartitionEdge>& edges) {
  for (const auto& e : edges) {
    if (e.a >= node_count || e.b >= node_count)
      throw std::out_of_range("partition: edge endpoint out of range");
  }
}

/// Relabel union-find roots to contiguous partition ids in node order, so
/// the labels (and everything derived from them, such as channel order)
/// depend only on the spec.
std::vector<std::uint32_t> renumber(DisjointSets& sets, std::size_t node_count) {
  constexpr std::uint32_t kUnlabeled = 0xFFFF'FFFFu;
  std::vector<std::uint32_t> root_label(node_count, kUnlabeled);
  std::vector<std::uint32_t> assignment(node_count);
  std::uint32_t next = 0;
  for (std::size_t v = 0; v < node_count; ++v) {
    const std::size_t root = sets.find(v);
    if (root_label[root] == kUnlabeled) root_label[root] = next++;
    assignment[v] = root_label[root];
  }
  return assignment;
}

}  // namespace

std::vector<std::uint32_t> partition_by_latency(std::size_t node_count,
                                                const std::vector<PartitionEdge>& edges,
                                                std::size_t parts,
                                                const std::vector<std::size_t>& pinned) {
  if (parts == 0) throw std::invalid_argument("partition_by_latency: parts must be >= 1");
  check_edges(node_count, edges);
  for (const std::size_t i : pinned) {
    if (i >= edges.size()) throw std::out_of_range("partition_by_latency: pinned edge index");
  }

  std::vector<std::size_t> order(edges.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // stable_sort keeps declaration order among equal latencies.
  std::stable_sort(order.begin(), order.end(), [&edges](std::size_t x, std::size_t y) {
    return edges[x].latency < edges[y].latency;
  });

  DisjointSets sets{node_count};
  std::size_t components = node_count;
  const std::size_t target = std::min(parts, std::max<std::size_t>(node_count, 1));
  const std::size_t cap =
      node_count == 0 ? 0 : (node_count + parts - 1) / parts;

  // Pass 0: pinned edges are mandatory merges — united first, in index
  // order, with no size cap. Everything these edges connect is guaranteed
  // to land in one partition.
  for (const std::size_t i : pinned) {
    if (sets.unite(edges[i].a, edges[i].b)) --components;
  }

  // Pass 1: merge cheapest edges first, but never grow a partition past the
  // balance cap.
  for (const std::size_t i : order) {
    if (components <= target) break;
    const std::size_t ra = sets.find(edges[i].a);
    const std::size_t rb = sets.find(edges[i].b);
    if (ra == rb || sets.size[ra] + sets.size[rb] > cap) continue;
    sets.unite(ra, rb);
    --components;
  }
  // Pass 2: the cap can strand more than `target` components (e.g. a star
  // whose hub fills one partition early); finish uncapped — reaching the
  // requested partition count matters more than perfect balance.
  for (const std::size_t i : order) {
    if (components <= target) break;
    if (sets.unite(edges[i].a, edges[i].b)) --components;
  }

  return renumber(sets, node_count);
}

std::vector<std::uint32_t> partition_blocks(std::size_t node_count, std::size_t parts) {
  if (parts == 0) throw std::invalid_argument("partition_blocks: parts must be >= 1");
  std::vector<std::uint32_t> assignment(node_count);
  const std::size_t p = std::min(parts, std::max<std::size_t>(node_count, 1));
  for (std::size_t i = 0; i < node_count; ++i)
    assignment[i] = static_cast<std::uint32_t>(i * p / node_count);
  return assignment;
}

std::size_t partition_count(const std::vector<std::uint32_t>& assignment) {
  std::uint32_t max_label = 0;
  if (assignment.empty()) return 0;
  for (const std::uint32_t label : assignment) max_label = std::max(max_label, label);
  return static_cast<std::size_t>(max_label) + 1;
}

Time min_cut_latency(const std::vector<PartitionEdge>& edges,
                     const std::vector<std::uint32_t>& assignment) {
  check_edges(assignment.size(), edges);
  Time lookahead = Time::infinity();
  for (const auto& e : edges) {
    if (assignment[e.a] != assignment[e.b]) lookahead = min(lookahead, e.latency);
  }
  return lookahead;
}

// --- PartitionedEngine ----------------------------------------------------

PartitionedEngine::PartitionedEngine(std::vector<Simulation*> partitions,
                                     const Options& options)
    : sims_{std::move(partitions)}, options_{options} {
  if (sims_.empty()) throw std::invalid_argument("PartitionedEngine: no partitions");
  for (const Simulation* s : sims_) {
    if (s == nullptr) throw std::invalid_argument("PartitionedEngine: null partition");
  }
  if (!options_.lookahead.is_infinite() && options_.lookahead < Time::nanoseconds(1))
    throw std::invalid_argument("PartitionedEngine: lookahead must be at least 1ns");
  inbound_.resize(sims_.size());
  handoffs_.assign(sims_.size(), 0);
}

HandoffChannel& PartitionedEngine::add_channel(std::size_t src, std::size_t dst) {
  if (src >= sims_.size() || dst >= sims_.size())
    throw std::out_of_range("PartitionedEngine: channel partition out of range");
  if (src == dst)
    throw std::invalid_argument("PartitionedEngine: channel within one partition");
  inbound_[dst].push_back(static_cast<std::uint32_t>(channels_.size()));
  channels_.emplace_back();
  return channels_.back();
}

std::size_t PartitionedEngine::worker_count() const {
  std::size_t budget = options_.threads;
  if (budget == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    budget = hw == 0 ? 1 : hw;  // the standard permits a 0 = "unknown" report
  }
  return std::min(std::max<std::size_t>(budget, 1), sims_.size());
}

Time PartitionedEngine::window_bound(Time t_min, Time target) const {
  const Time lookahead = options_.lookahead;
  if (lookahead.is_infinite()) return target;
  // window_end = min(target, t_min + lookahead - 1ns), computed against the
  // finite slack to `target` so the sum can never overflow.
  const Time slack = target - t_min;
  if (lookahead > slack) return target;
  return t_min + lookahead - Time::nanoseconds(1);
}

void PartitionedEngine::advance_window(Time target) {
  Time t_min = Time::infinity();
  for (const Time t : local_min_) t_min = min(t_min, t);
  if (error_flag_.load(std::memory_order_relaxed) || t_min.is_infinite() || t_min > target) {
    done_ = true;
    return;
  }
  done_ = false;
  window_end_ = window_bound(t_min, target);
  ++windows_;
}

void PartitionedEngine::publish_local_min(std::size_t worker, std::size_t workers) {
  Time local = Time::infinity();
  for (std::size_t p = worker; p < sims_.size(); p += workers)
    local = min(local, sims_[p]->scheduler().next_event_time());
  local_min_[worker] = local;
}

void PartitionedEngine::run_window(std::size_t worker, std::size_t workers) {
  for (std::size_t p = worker; p < sims_.size(); p += workers) {
    try {
      sims_[p]->run_until(window_end_);
    } catch (...) {
      record_error();
    }
  }
}

void PartitionedEngine::drain_partition(std::size_t p) {
  for (const std::uint32_t id : inbound_[p]) {
    HandoffChannel& channel = channels_[id];
    for (const StagedHandoff& h : channel.staged()) {
      assert(h.deliver_at > sims_[p]->now() && "conservative lookahead violated");
      h.deliver(h.endpoint, h.payload, h.deliver_at, h.staged_at, h.origin, h.rank);
    }
    handoffs_[p] += channel.staged().size();
    channel.clear();
  }
}

void PartitionedEngine::record_error() noexcept {
  if (!error_flag_.exchange(true, std::memory_order_acq_rel))
    first_error_ = std::current_exception();
}

void PartitionedEngine::run_single(Time target) {
  local_min_.assign(1, Time::infinity());
  for (;;) {
    publish_local_min(0, 1);
    advance_window(target);
    if (done_) return;
    run_window(0, 1);
    for (std::size_t p = 0; p < sims_.size(); ++p) {
      try {
        drain_partition(p);
      } catch (...) {
        record_error();
      }
    }
  }
}

void PartitionedEngine::run_threaded(Time target, std::size_t workers) {
  local_min_.assign(workers, Time::infinity());
  const auto count = static_cast<std::ptrdiff_t>(workers);
  auto completion = [this, target]() noexcept { advance_window(target); };
  // Two rendezvous per round. `publish` runs advance_window as its
  // completion step — one thread folds the minima while everyone else is
  // parked, so the plain window_end_/done_ writes are race-free and the
  // phase transition publishes them. `window_done` separates the window
  // phase (sources append to channels) from the drain phase (destinations
  // read them).
  std::barrier<decltype(completion)> publish{count, completion};
  std::barrier<> window_done{count};

  auto worker = [this, &publish, &window_done, workers](std::size_t w) {
    for (;;) {
      publish_local_min(w, workers);
      publish.arrive_and_wait();
      if (done_) return;
      run_window(w, workers);
      window_done.arrive_and_wait();
      for (std::size_t p = w; p < sims_.size(); p += workers) {
        try {
          drain_partition(p);
        } catch (...) {
          record_error();
        }
      }
      // No third barrier: before the next publish a worker reads only its
      // own partitions, which it just drained itself; the publish barrier's
      // completion then orders every drain before the window computation.
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(worker, w);
  worker(0);
  for (auto& t : pool) t.join();
}

void PartitionedEngine::run_until(Time target) {
  error_flag_.store(false, std::memory_order_relaxed);
  first_error_ = nullptr;
  const std::size_t workers = worker_count();
  if (workers <= 1) {
    run_single(target);
  } else {
    run_threaded(target, workers);
  }
  if (first_error_) {
    const std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
  // The round loop stops once no pending event is <= target; this settles
  // every partition's clock at exactly target (firing nothing), matching
  // single-threaded run_until semantics.
  for (Simulation* s : sims_) s->run_until(target);
}

std::uint64_t PartitionedEngine::handoffs_delivered() const {
  std::uint64_t total = 0;
  for (const std::uint64_t h : handoffs_) total += h;
  return total;
}

}  // namespace rss::sim
