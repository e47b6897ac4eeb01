// Kernel replay: host time per call of single core-layer functions, replayed
// on state harvested from the traced run's monitor stores at their fullest —
// the bucket sizes, storage limit and diversity state the workload actually
// produced.
//
// Each harvested bucket of n >= 2 entries is replayed as a full store of
// n - 1 entries (the workload's policy-independent content) plus its most
// recently received entry as the candidate, so every timed insert takes the
// full-bucket path (pick_victim for kDiversityAware). Mutating kernels run
// on copies prepared, and warmed by one untimed rejected insert, outside the
// timed region.
#include <algorithm>

#include "bench.hpp"
#include "core/algorithms.hpp"

namespace perfbench {

namespace {

/// Keeps kernel results observable so the calls are not optimized away.
volatile std::uint64_t g_sink = 0;

struct Kernel {
  std::int64_t ns{0};
  std::uint64_t calls{0};
  double per_call() const {
    return calls > 0 ? static_cast<double>(ns) / static_cast<double>(calls)
                     : 0.0;
  }
};

/// A monitor's neighbors in core beaconing: its core links grouped by
/// neighbor AS (BeaconServer's propagation groups).
struct Neighbor {
  topo::IsdAsId id;
  std::vector<topo::LinkIndex> links;
};

std::vector<Neighbor> neighbors_of(const topo::Topology& t, topo::AsIndex self) {
  std::map<topo::AsIndex, std::vector<topo::LinkIndex>> grouped;
  for (const topo::LinkIndex l : t.links_of_type(self, topo::LinkType::kCore)) {
    grouped[t.neighbor(l, self)].push_back(l);
  }
  std::vector<Neighbor> out;
  for (auto& [as, links] : grouped) out.push_back({t.as_id(as), std::move(links)});
  return out;
}

/// The stored entry pick_victim ranks worst under `policy`: a longest path
/// for kShortestFresh, the most redundant one for kDiversityAware. The same
/// links offered again under a new path key are always rejected: only a
/// strictly shorter path beats a longest one, and a stored path's own links
/// read exactly one more covered than its redundancy, while only a strictly
/// less redundant candidate wins.
const ctrl::StoredPcb& worst_entry(
    const std::vector<const ctrl::StoredPcb*>& entries,
    ctrl::StorePolicy policy) {
  std::map<topo::LinkIndex, int> coverage;
  for (const ctrl::StoredPcb* e : entries) {
    for (const topo::LinkIndex l : e->links) ++coverage[l];
  }
  const auto rank = [&](const ctrl::StoredPcb& e) {
    if (policy == ctrl::StorePolicy::kShortestFresh) {
      return static_cast<double>(e.pcb->hops());
    }
    double sum = 0;
    for (const topo::LinkIndex l : e.links) sum += coverage[l] - 1;
    return e.links.empty() ? 0.0 : sum / static_cast<double>(e.links.size());
  };
  const ctrl::StoredPcb* worst = entries.front();
  for (const ctrl::StoredPcb* e : entries) {
    if (rank(*e) > rank(*worst)) worst = e;
  }
  return *worst;
}

/// Replays one full-bucket insert per store copy. Each copy is first warmed
/// by an untimed insert it rejects, so the timed call finds pick_victim's
/// reused scratch allocated, as in a long run.
void replay_insert(const std::vector<ctrl::StoredPcb>& bucket,
                   ctrl::StorePolicy policy, Kernel& k, Checks& checks) {
  constexpr std::size_t kCopies = 8;
  std::size_t held = 0;
  for (std::size_t i = 1; i < bucket.size(); ++i) {
    if (bucket[i].received_at >= bucket[held].received_at) held = i;
  }
  std::vector<const ctrl::StoredPcb*> entries;
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    if (i != held) entries.push_back(&bucket[i]);
  }
  const ctrl::StoredPcb& loser = worst_entry(entries, policy);
  std::uint64_t loser_key = loser.path_key;
  while (std::any_of(bucket.begin(), bucket.end(),
                     [&](const ctrl::StoredPcb& e) {
                       return e.path_key == loser_key;
                     })) {
    ++loser_key;
  }
  std::vector<ctrl::BeaconStore> stores;
  stores.reserve(kCopies);
  for (std::size_t c = 0; c < kCopies; ++c) {
    ctrl::BeaconStore& store = stores.emplace_back(entries.size(), policy);
    for (const ctrl::StoredPcb* e : entries) {
      store.insert(e->pcb, e->links, e->received_at, e->path_key);
    }
    checks.expect(store.insert(loser.pcb, loser.links, loser.received_at,
                               loser_key) ==
                      ctrl::BeaconStore::InsertOutcome::kRejected,
                  "kernel replay: the warm-up insert was not rejected");
  }
  const ctrl::StoredPcb& cand = bucket[held];
  const std::int64_t t0 = host_now_ns();
  for (ctrl::BeaconStore& store : stores) {
    g_sink = g_sink + static_cast<std::uint64_t>(store.insert(
                          cand.pcb, cand.links, cand.received_at, cand.path_key));
  }
  k.ns += host_now_ns() - t0;
  k.calls += kCopies;
}

}  // namespace

Metrics replay_kernels(const topo::Topology& scion_view,
                       const std::vector<Harvest>& harvests,
                       const ctrl::BeaconServerConfig& config, Checks& checks) {
  Kernel insert_div, insert_short, select_div, select_base, expire;
  Kernel path_key, extend, wire_size, contains_as;
  std::vector<double> bucket_sizes;
  // (stored PCB, holder AS, holder's egress interface) for the PCB kernels.
  struct Held {
    const ctrl::StoredPcb* stored;
    topo::AsIndex holder;
  };
  std::vector<Held> pcbs;

  for (const Harvest& h : harvests) {
    const std::vector<Neighbor> neighbors = neighbors_of(scion_view, h.self);
    const ctrl::DiversityState* harvested =
        h.diversity ? &*h.diversity : nullptr;
    const ctrl::DiversityState fresh{config.diversity,
                                     config.diversity_link_canonicalizer};
    const util::TimePoint now = h.at;
    for (const topo::IsdAsId origin : h.store.origins()) {
      const std::vector<ctrl::StoredPcb>& bucket = h.store.for_origin(origin);
      bucket_sizes.push_back(static_cast<double>(bucket.size()));
      for (const ctrl::StoredPcb& s : bucket) pcbs.push_back({&s, h.self});
      if (bucket.size() >= 2) {
        replay_insert(bucket, ctrl::StorePolicy::kDiversityAware, insert_div,
                      checks);
        replay_insert(bucket, ctrl::StorePolicy::kShortestFresh, insert_short,
                      checks);
      }
      for (const Neighbor& n : neighbors) {
        if (n.id == origin) continue;  // one-link loop, never selected
        // Diversity selection on a copy of the monitor's own state (a fresh
        // state when the workload runs the baseline algorithm).
        ctrl::DiversityState state = harvested != nullptr ? *harvested : fresh;
        std::int64_t t0 = host_now_ns();
        g_sink = g_sink + state
                              .select_and_commit(bucket, origin, n.id, n.links,
                                                 config.dissemination_limit, now)
                              .size();
        select_div.ns += host_now_ns() - t0;
        ++select_div.calls;
        t0 = host_now_ns();
        for (const topo::LinkIndex l : n.links) {
          g_sink = g_sink + ctrl::baseline_select(bucket, n.id, l,
                                                  config.dissemination_limit,
                                                  now)
                                .size();
        }
        select_base.ns += host_now_ns() - t0;
        select_base.calls += n.links.size();
      }
    }
    if (harvested != nullptr) {
      // The next interval's expiry sweep.
      constexpr std::size_t kCopies = 8;
      std::vector<ctrl::DiversityState> copies(kCopies, *harvested);
      const std::int64_t t0 = host_now_ns();
      for (ctrl::DiversityState& c : copies) c.expire(now + config.interval);
      expire.ns += host_now_ns() - t0;
      expire.calls += kCopies;
    }
  }

  // Per-PCB kernels, over every harvested PCB, repeated to at least
  // kMinCalls calls each.
  constexpr std::uint64_t kMinCalls = 20000;
  const auto passes = [&] {
    return pcbs.empty() ? 0 : (kMinCalls + pcbs.size() - 1) / pcbs.size();
  }();
  const auto time_pcbs = [&](Kernel& k, auto&& fn) {
    const std::int64_t t0 = host_now_ns();
    for (std::uint64_t p = 0; p < passes; ++p) {
      for (const Held& h : pcbs) g_sink = g_sink + fn(h);
    }
    k.ns += host_now_ns() - t0;
    k.calls += passes * pcbs.size();
  };
  time_pcbs(path_key, [](const Held& h) { return h.stored->pcb->path_key(); });
  time_pcbs(wire_size, [](const Held& h) {
    return h.stored->pcb->wire_size().value();
  });
  time_pcbs(contains_as, [&](const Held& h) {
    // The holder never appears on its stored paths: a full scan.
    return static_cast<std::uint64_t>(
        h.stored->pcb->contains_as(scion_view.as_id(h.holder)));
  });
  time_pcbs(extend, [&](const Held& h) {
    // Extension towards the holder's first core link other than the ingress
    // (send_extended's work without the shared wire object).
    const topo::LinkIndex ingress = h.stored->links.back();
    topo::LinkIndex egress = ingress;
    for (const topo::LinkIndex l : scion_view.links_of(h.holder)) {
      if (l != ingress) {
        egress = l;
        break;
      }
    }
    const ctrl::Pcb next = h.stored->pcb->extend_unsigned(
        scion_view.as_id(h.holder), scion_view.interface_of(ingress, h.holder),
        scion_view.interface_of(egress, h.holder), {});
    return static_cast<std::uint64_t>(next.hops());
  });

  std::sort(bucket_sizes.begin(), bucket_sizes.end());
  const double p50 =
      bucket_sizes.empty() ? 0.0 : bucket_sizes[bucket_sizes.size() / 2];
  const double max = bucket_sizes.empty() ? 0.0 : bucket_sizes.back();
  Metrics m;
  m.push_back({"core.bucket_size_p50", {p50, "count"}});
  m.push_back({"core.bucket_size_max", {max, "count"}});
  const auto add = [&m](const std::string& name, const Kernel& k) {
    m.push_back({name + "_ns", {k.per_call(), "ns"}});
    m.push_back({name + "_calls", {static_cast<double>(k.calls), "count"}});
  };
  add("core.store_insert_diversity", insert_div);
  add("core.store_insert_shortest", insert_short);
  add("core.select_diversity", select_div);
  add("core.select_baseline", select_base);
  add("core.diversity_expire", expire);
  add("core.pcb_path_key", path_key);
  add("core.pcb_extend", extend);
  add("core.pcb_wire_size", wire_size);
  add("core.pcb_contains_as", contains_as);
  return m;
}

}  // namespace perfbench
