// Micro-benchmarks of the hot paths: PCB construction/verification, the two
// selection algorithms, max-flow, the event queue, and the crypto
// primitives. These are the per-operation costs behind the end-to-end
// simulation times.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "analysis/maxflow.hpp"
#include "bench/bench_common.hpp"
#include "core/algorithms.hpp"
#include "core/pcb.hpp"
#include "crypto/sha256.hpp"
#include "simnet/network.hpp"
#include "simnet/simulator.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace scion {
namespace {

using ctrl::IsdAsId;
using util::Duration;
using util::TimePoint;

constexpr std::uint64_t kDomain = crypto::kDefaultKeyDomainSeed;

// --- crypto ---------------------------------------------------------------------

void BM_Sha256(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_SignatureSign(benchmark::State& state) {
  const crypto::SigningKey key = crypto::SigningKey::derive(1, kDomain);
  const std::vector<std::uint8_t> data(256, 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sign(key, data));
  }
}
BENCHMARK(BM_SignatureSign);

void BM_HopMac(benchmark::State& state) {
  const crypto::ForwardingKey key = crypto::ForwardingKey::derive(1, kDomain);
  crypto::HopMac prev{};
  for (auto _ : state) {
    prev = crypto::hop_mac(key, 1, 2, 1000, prev);
    benchmark::DoNotOptimize(prev);
  }
}
BENCHMARK(BM_HopMac);

// --- PCB ------------------------------------------------------------------------

ctrl::Pcb make_chain(std::size_t hops, crypto::KeyStore& keys, bool sign) {
  const IsdAsId origin = IsdAsId::make(1, 1);
  ctrl::Pcb pcb =
      sign ? ctrl::Pcb::originate(
                 origin, topo::IfId{1}, TimePoint::origin(), Duration::hours(6),
                 keys.key_for(origin.value()),
                 crypto::ForwardingKey::derive(origin.value(), kDomain))
           : ctrl::Pcb::originate_unsigned(origin, topo::IfId{1},
                                           TimePoint::origin(),
                                           Duration::hours(6));
  for (std::size_t i = 1; i < hops; ++i) {
    const IsdAsId as = IsdAsId::make(1, 1 + i);
    if (sign) {
      pcb = pcb.extend_signed(
          as, topo::IfId{1}, topo::IfId{2}, {}, keys.key_for(as.value()),
          crypto::ForwardingKey::derive(as.value(), kDomain));
    } else {
      pcb = pcb.extend_unsigned(as, topo::IfId{1}, topo::IfId{2}, {});
    }
  }
  return pcb;
}

void BM_PcbExtendSigned(benchmark::State& state) {
  crypto::KeyStore keys{kDomain};
  const ctrl::Pcb base =
      make_chain(static_cast<std::size_t>(state.range(0)), keys, true);
  const IsdAsId self = IsdAsId::make(2, 999);
  const crypto::SigningKey sk = keys.key_for(self.value());
  const auto fk = crypto::ForwardingKey::derive(self.value(), kDomain);
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.extend_signed(self, topo::IfId{3}, topo::IfId{4}, {}, sk, fk));
  }
}
BENCHMARK(BM_PcbExtendSigned)->Arg(2)->Arg(5)->Arg(10);

void BM_PcbExtendUnsigned(benchmark::State& state) {
  crypto::KeyStore keys{kDomain};
  const ctrl::Pcb base =
      make_chain(static_cast<std::size_t>(state.range(0)), keys, false);
  const IsdAsId self = IsdAsId::make(2, 999);
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.extend_unsigned(self, topo::IfId{3}, topo::IfId{4}, {}));
  }
}
BENCHMARK(BM_PcbExtendUnsigned)->Arg(2)->Arg(5)->Arg(10);

void BM_PcbVerifyChain(benchmark::State& state) {
  crypto::KeyStore keys{kDomain};
  const ctrl::Pcb pcb =
      make_chain(static_cast<std::size_t>(state.range(0)), keys, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pcb.verify(keys));
  }
}
BENCHMARK(BM_PcbVerifyChain)->Arg(2)->Arg(5)->Arg(10);

// The key is computed when the PCB is built (see BM_PcbExtendUnsigned);
// this times the cached read.
void BM_PcbPathKey(benchmark::State& state) {
  crypto::KeyStore keys{kDomain};
  const ctrl::Pcb pcb = make_chain(5, keys, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pcb.path_key());
  }
}
BENCHMARK(BM_PcbPathKey);

// --- selection algorithms -----------------------------------------------------------

std::vector<ctrl::StoredPcb> make_bucket(std::size_t n, util::Rng& rng) {
  std::vector<ctrl::StoredPcb> bucket;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t hops = 2 + rng.index(4);
    ctrl::Pcb pcb = ctrl::Pcb::originate_unsigned(
        IsdAsId::make(1, 1), static_cast<topo::IfId>(1 + rng.index(200)),
        TimePoint::origin(), Duration::hours(6));
    std::vector<topo::LinkIndex> links{
        static_cast<topo::LinkIndex>(rng.index(300))};
    for (std::size_t h = 1; h < hops; ++h) {
      pcb = pcb.extend_unsigned(IsdAsId::make(1, 10 + h),
                                static_cast<topo::IfId>(1 + rng.index(200)),
                                static_cast<topo::IfId>(1 + rng.index(200)),
                                {});
      links.push_back(static_cast<topo::LinkIndex>(rng.index(300)));
    }
    ctrl::StoredPcb stored;
    stored.pcb = std::make_shared<const ctrl::Pcb>(std::move(pcb));
    stored.links = std::move(links);
    stored.received_at = TimePoint::origin();
    stored.path_key = stored.pcb->path_key();
    bucket.push_back(std::move(stored));
  }
  return bucket;
}

void BM_BaselineSelect(benchmark::State& state) {
  util::Rng rng{7};
  const auto bucket = make_bucket(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctrl::baseline_select(
        bucket, IsdAsId::make(9, 9), 5, 5, TimePoint::origin()));
  }
}
BENCHMARK(BM_BaselineSelect)->Arg(15)->Arg(60);

void BM_DiversitySelect(benchmark::State& state) {
  util::Rng rng{7};
  const auto bucket = make_bucket(static_cast<std::size_t>(state.range(0)), rng);
  const std::vector<topo::LinkIndex> egress{500, 501};
  for (auto _ : state) {
    state.PauseTiming();
    ctrl::DiversityState diversity{ctrl::DiversityParams{}};
    state.ResumeTiming();
    benchmark::DoNotOptimize(diversity.select_and_commit(
        bucket, IsdAsId::make(1, 1), IsdAsId::make(9, 9), egress, 5,
        TimePoint::origin()));
  }
}
BENCHMARK(BM_DiversitySelect)->Arg(15)->Arg(60);

// --- beacon store and Sent PCBs List --------------------------------------------

void BM_StoreInsertDiversityAware(benchmark::State& state) {
  // A full kDiversityAware bucket and a candidate it rejects: every insert
  // runs the whole victim pick and leaves the bucket unchanged.
  util::Rng rng{7};
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto bucket = make_bucket(n, rng);
  ctrl::BeaconStore store{n, ctrl::StorePolicy::kDiversityAware};
  for (const ctrl::StoredPcb& e : bucket) {
    store.insert(e.pcb, e.links, e.received_at, e.path_key);
  }
  // A copy of the most redundant entry's links is more redundant still
  // (found here so the kernel needs only the store's insert API).
  std::size_t worst = 0;
  double worst_red = -1.0;
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    double sum = 0.0;
    for (topo::LinkIndex l : bucket[i].links) {
      for (const ctrl::StoredPcb& e : bucket) {
        sum += static_cast<double>(std::count(e.links.begin(), e.links.end(), l));
      }
    }
    const double red = sum / static_cast<double>(bucket[i].links.size());
    if (red > worst_red) {
      worst_red = red;
      worst = i;
    }
  }
  const ctrl::StoredPcb& cand = bucket[worst];
  const std::uint64_t cand_key = ~cand.path_key;  // a different path
  if (store.insert(cand.pcb, cand.links, cand.received_at, cand_key) !=
      ctrl::BeaconStore::InsertOutcome::kRejected) {
    state.SkipWithError("candidate was admitted");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.insert(cand.pcb, cand.links, cand.received_at, cand_key));
  }
}
BENCHMARK(BM_StoreInsertDiversityAware)->Arg(15)->Arg(60);

void BM_DiversityExpire(benchmark::State& state) {
  // Sent records spread evenly over one PCB lifetime (sent every beaconing
  // interval); each iteration expires the next interval's share on a copy.
  const Duration lifetime = Duration::hours(6);
  const Duration interval = Duration::minutes(10);
  const auto records = static_cast<std::size_t>(state.range(0));
  const std::size_t per_interval = records / 36;
  ctrl::DiversityState sent{ctrl::DiversityParams{}};
  util::Rng rng{7};
  for (std::size_t i = 0; i < records; ++i) {
    const TimePoint at =
        TimePoint::origin() + interval * static_cast<std::int64_t>(i / per_interval);
    const std::vector<topo::LinkIndex> links{
        static_cast<topo::LinkIndex>(rng.index(300)),
        static_cast<topo::LinkIndex>(rng.index(300)), 500};
    sent.commit_send(ctrl::SentKey{rng(), 500}, IsdAsId::make(1, 1),
                     IsdAsId::make(9, 9), links, at, at + lifetime, at);
  }
  const TimePoint next = TimePoint::origin() + lifetime;
  // Declared outside the loop so the previous copy is torn down while the
  // timer is paused.
  ctrl::DiversityState copy = sent;
  for (auto _ : state) {
    state.PauseTiming();
    copy = sent;
    state.ResumeTiming();
    copy.expire(next);
    benchmark::DoNotOptimize(copy.sent().size());
  }
}
BENCHMARK(BM_DiversityExpire)->Arg(1000)->Arg(10000);

// --- max-flow --------------------------------------------------------------------

void BM_MaxFlowCoreTopology(benchmark::State& state) {
  topo::HierarchyConfig config;
  config.n_ases = static_cast<std::size_t>(state.range(0));
  config.seed = 3;
  const topo::Topology internet = topo::generate_hierarchy(config);
  const topo::Topology core = topo::with_all_core_links(
      topo::make_core_network(internet, config.n_ases / 10, 4));
  analysis::FlowGraph graph = analysis::FlowGraph::from_topology(core);
  util::Rng rng{5};
  for (auto _ : state) {
    const auto s = static_cast<std::uint32_t>(rng.index(core.as_count()));
    auto t = static_cast<std::uint32_t>(rng.index(core.as_count()));
    if (t == s) t = (t + 1) % static_cast<std::uint32_t>(core.as_count());
    benchmark::DoNotOptimize(graph.max_flow(s, t));
  }
}
BENCHMARK(BM_MaxFlowCoreTopology)->Arg(400)->Arg(800);

// --- event queue -----------------------------------------------------------------

/// Keeps `depth` events pending: every handler schedules its own successor
/// a random delay ahead. The closure carries `this` + a Message, the shape
/// and size of Network's delivery lambda, the most common event.
struct QueueLoad {
  sim::Simulator sim;
  util::Rng rng{11};
  std::int64_t horizon_ns;

  void arm(sim::Message msg) {
    const auto delay = Duration::nanoseconds(
        horizon_ns + rng.uniform_int(0, horizon_ns));
    sim.schedule_after(delay, [this, msg = std::move(msg)]() mutable {
      arm(std::move(msg));
    });
  }
};

// One schedule + one pop per item, against range(0) pending events.
void BM_EventQueue(benchmark::State& state) {
  QueueLoad load;
  load.horizon_ns = state.range(0);
  for (std::int64_t i = 0; i < state.range(0); ++i) load.arm(sim::Message{});
  // Warm up past the first recurrences so every event is a successor.
  load.sim.run_until(TimePoint::origin() +
                     Duration::nanoseconds(3 * load.horizon_ns));
  // Each event recurs every ~1.5 horizons, so a 1536 ns window pops ~1000
  // events: run_until's end-of-segment bookkeeping amortizes away.
  const Duration window = Duration::nanoseconds(1536);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const std::uint64_t before = load.sim.events_processed();
    load.sim.run_until(load.sim.now() + window);
    events += load.sim.events_processed() - before;
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueue)->Arg(1000)->Arg(100000);

}  // namespace
}  // namespace scion

int main(int argc, char** argv) {
  // No per-figure series; the report still carries manifest + metrics.
  return scion::exp::bench_main("micro", argc, argv, {});
}
