// Fixed-seed micro-runs of the simulation pipelines (baseline and diversity
// beaconing, the full control plane, BGP, BGP under churn with its survival
// mechanisms).
// Shared by the allocation budgets (test_alloc_budget.cpp) and the exact
// event-attribution gate (test_obs.cpp), so both gates measure the same
// runs.
//
// Each run resets the global EventProfiler first, so after it returns the
// profiler holds that run's per-label counts and nothing from earlier runs.
#pragma once

#include <cstdint>
#include <utility>

#include "bgp/bgp_sim.hpp"
#include "core/beaconing_sim.hpp"
#include "faults/fault_plan.hpp"
#include "obs/alloc_track.hpp"
#include "obs/event_profile.hpp"
#include "scion/control_plane_sim.hpp"
#include "topology/generator.hpp"

namespace scion::micro {

struct MicroRun {
  std::uint64_t allocs = 0;  // operator-new calls during the run
  std::uint64_t events = 0;  // the pipeline's per-event denominator
  // Churn run only: proof that damping and graceful restart engaged.
  std::uint64_t routes_suppressed = 0;
  std::uint64_t stale_retained = 0;
};

/// Allocations and bytes allocated on this thread while `fn` runs. Resets
/// the event profiler's counters first, so a budget breach names only the
/// labels of this run.
template <typename Fn>
std::pair<std::uint64_t, std::uint64_t> count_allocs(Fn&& fn) {
  obs::EventProfiler::global().reset_counters();
  const std::uint64_t a0 = obs::thread_allocs();
  const std::uint64_t b0 = obs::thread_alloc_bytes();
  fn();
  return {obs::thread_allocs() - a0, obs::thread_alloc_bytes() - b0};
}

inline topo::Topology beaconing_world() {
  topo::ScionLabConfig config;
  config.n_cores = 10;
  config.extra_edge_fraction = 0.3;
  config.seed = 5;
  return topo::generate_scionlab(config);
}

inline topo::Topology multi_isd_world() {
  topo::MultiIsdConfig config;
  config.n_isds = 2;
  config.cores_per_isd = 2;
  config.ases_per_isd = 8;
  config.seed = 77;
  return topo::generate_multi_isd(config);
}

/// Core beaconing on beaconing_world(). Events: PCBs received at beacon
/// servers.
inline MicroRun beaconing_run(const ctrl::BeaconingSimConfig& config) {
  const topo::Topology world = beaconing_world();
  ctrl::BeaconingSim sim{world, config};
  MicroRun r;
  r.allocs = count_allocs([&] { sim.run(); }).first;
  r.events = sim.aggregate_stats().pcbs_received;
  return r;
}

/// Baseline algorithm, shortest-fresh store.
inline MicroRun beaconing() {
  ctrl::BeaconingSimConfig config;
  config.server.interval = util::Duration::minutes(10);
  config.server.pcb_lifetime = util::Duration::hours(6);
  config.sim_duration = util::Duration::hours(1);
  config.seed = 42;
  return beaconing_run(config);
}

/// Diversity algorithm, diversity-aware store. A one-hour PCB lifetime
/// over three hours makes sent records expire and paths go out again.
inline MicroRun beaconing_diversity() {
  ctrl::BeaconingSimConfig config;
  config.server.algorithm = ctrl::AlgorithmKind::kDiversity;
  config.server.store_policy = ctrl::StorePolicy::kDiversityAware;
  config.server.interval = util::Duration::minutes(10);
  config.server.pcb_lifetime = util::Duration::hours(1);
  config.sim_duration = util::Duration::hours(3);
  config.seed = 42;
  return beaconing_run(config);
}

/// Events: PCBs received by core and intra-ISD servers plus endpoint
/// lookups.
inline MicroRun control_plane() {
  const topo::Topology world = multi_isd_world();
  svc::ControlPlaneSimConfig config;
  config.sim_duration = util::Duration::minutes(30);
  config.lookups_per_second = 0.5;
  config.link_failures_per_hour = 4.0;
  config.registration_interval = util::Duration::minutes(15);
  config.seed = 5;

  svc::ControlPlaneSim sim{world, config};
  MicroRun r;
  r.allocs = count_allocs([&] { sim.run(); }).first;
  r.events = sim.lookups_performed();
  for (topo::AsIndex as = 0; as < world.as_count(); ++as) {
    if (const auto* s = sim.core_server(as)) {
      r.events += s->stats().pcbs_received;
    }
    if (const auto* s = sim.intra_server(as)) {
      r.events += s->stats().pcbs_received;
    }
  }
  return r;
}

/// Events: BGP updates sent.
inline MicroRun bgp() {
  const topo::Topology world = multi_isd_world();
  bgp::BgpSimConfig config;
  config.convergence_window = util::Duration::minutes(10);
  config.churn_window = util::Duration::minutes(30);
  config.flaps_per_adjacency_per_day = 4.0;
  config.seed = 9;

  bgp::BgpSim sim{world, config};
  sim.add_monitor(0);
  MicroRun r;
  r.allocs = count_allocs([&] { sim.run(); }).first;
  r.events = sim.total_updates_sent();
  return r;
}

/// BGP with flap damping and graceful restart under a churn plan.
/// Events: BGP updates sent.
inline MicroRun churn_survival() {
  const topo::Topology world = multi_isd_world();
  bgp::BgpSimConfig config;
  config.convergence_window = util::Duration::minutes(10);
  config.churn_window = util::Duration::minutes(30);
  config.flaps_per_adjacency_per_day = 0.0;  // churn comes from the plan
  config.seed = 9;
  config.damping.enabled = true;
  config.graceful_restart.enabled = true;
  config.faults.seed = 11;
  faults::ChurnSpec spec;
  spec.up_min = util::Duration::minutes(1);
  spec.up_max = util::Duration::minutes(5);
  spec.down_min = util::Duration::seconds(30);
  spec.down_max = util::Duration::minutes(2);
  spec.duration = util::Duration::minutes(30);
  // Churn only the provider-customer edges and restart sessions on the
  // (never-churned) core links 0 and 1, so the restarted adjacency is
  // deterministically up — a restart landing on a churned-down session is
  // a no-op and would leave the GR path unexercised.
  spec.links = faults::LinkClass::kProviderCustomer;
  config.faults.churn.push_back(spec);
  config.faults.events.push_back(faults::Event{
      faults::Event::Kind::kSessionRestart, 0, util::Duration::minutes(5),
      util::Duration::seconds(90)});
  config.faults.events.push_back(faults::Event{
      faults::Event::Kind::kSessionRestart, 1, util::Duration::minutes(15),
      util::Duration::seconds(90)});

  bgp::BgpSim sim{world, config};
  MicroRun r;
  r.allocs = count_allocs([&] { sim.run(); }).first;
  r.events = sim.total_updates_sent();
  r.routes_suppressed = sim.total_routes_suppressed();
  r.stale_retained = sim.total_stale_retained();
  return r;
}

}  // namespace scion::micro
