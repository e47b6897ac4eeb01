// Workload definitions, input generation, output checks, and the timed
// (untraced) repeat.
#include <sys/resource.h>

#include <algorithm>
#include <set>

#include "bench.hpp"
#include "experiments/scale.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using util::Duration;
using util::TimePoint;

const scion::obs::EventLabel kProbeLabel =
    scion::obs::event_label("experiment.probe");

/// Decorrelates the churn scenario from every other use of the seed (the
/// value the churn experiment uses for its synthesized plan).
constexpr std::uint64_t kChurnSeedMix = 0xC0FFEE9E3779B97FULL;
/// Re-origination jitter stream (the value BeaconingSim derives by default;
/// set explicitly so the traced driver need not know the default).
constexpr std::uint64_t kBackoffSeedMix = 0xB5297A4D3C5B9BD5ULL;
/// Every workload runs on one fixed network (the Fig. 5 default seed);
/// the benchmark seed drives what the simulators draw on it.
constexpr std::uint64_t kTopologySeed = 1;
/// Probe-pair sampling stream (as in the churn experiment).
constexpr std::uint64_t kProbeSeedMix = 0xC4C4;

/// The Fig. 5 core-beaconing configuration (overhead experiment).
ctrl::BeaconingSimConfig fig5_beaconing(ctrl::AlgorithmKind algorithm,
                                        Duration window, std::uint64_t seed) {
  ctrl::BeaconingSimConfig c;
  c.server.algorithm = algorithm;
  c.server.mode = ctrl::BeaconingMode::kCore;
  c.server.storage_limit = 60;
  c.server.dissemination_limit = 5;
  c.server.compute_crypto = false;
  if (algorithm == ctrl::AlgorithmKind::kDiversity) {
    c.server.store_policy = ctrl::StorePolicy::kDiversityAware;
  }
  c.sim_duration = window;
  c.warmup = c.server.pcb_lifetime;  // one PCB lifetime
  c.seed = seed;
  c.server.backoff_seed = seed ^ kBackoffSeedMix;
  return c;
}

}  // namespace

double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool make_spec(const std::string& name, std::uint64_t seed, Size size,
               WorkloadSpec* out) {
  const bool tiny = size == Size::kTiny;
  WorkloadSpec s;
  s.name = name;
  s.seed = seed;
  // The Fig. 5 smoke core network (fig5 --scale=0.2): 13 core ASes pruned
  // from a 160-AS Internet.
  s.internet_ases = tiny ? 60 : 160;
  s.core_ases = tiny ? 5 : 13;
  s.core_isds = tiny ? 1 : 2;
  const Duration window =
      tiny ? Duration::minutes(30) : Duration::hours(2);
  if (name == "beacon-baseline" || name == "beacon-diversity") {
    s.scion = true;
    s.beaconing = fig5_beaconing(name == "beacon-baseline"
                                     ? ctrl::AlgorithmKind::kBaseline
                                     : ctrl::AlgorithmKind::kDiversity,
                                 window, seed);
    s.nominal_repeat_s = name == "beacon-baseline" ? 2.0 : 2.6;
  } else if (name == "bgp-internet") {
    s.bgp = true;
    s.bgp_on_internet = true;
    s.internet_ases = tiny ? 300 : 1500;
    s.bgp_config.sampled_origins = tiny ? 40 : 150;
    s.bgp_config.churn_window = Duration::hours(1);
    s.bgp_config.seed = seed;
    s.nominal_repeat_s = 3.2;
  } else if (name == "churn") {
    s.scion = true;
    s.bgp = true;
    s.churn = true;
    s.internet_ases = tiny ? 60 : 400;
    s.core_ases = tiny ? 5 : 32;
    s.core_isds = tiny ? 1 : 4;
    s.probe_pairs = tiny ? 10 : 40;
    s.nominal_repeat_s = 2.4;
    // The churn experiment's SCION Robust series ...
    ctrl::BeaconingSimConfig& c = s.beaconing;
    c.server.algorithm = ctrl::AlgorithmKind::kBaseline;
    c.server.mode = ctrl::BeaconingMode::kCore;
    c.server.storage_limit = 60;
    c.server.dissemination_limit = 5;
    c.server.compute_crypto = false;
    c.server.stale_quarantine = true;
    c.server.reorigination.enabled = true;
    c.server.backoff_seed = seed ^ kBackoffSeedMix;
    c.sim_duration = tiny ? Duration::minutes(20) : Duration::hours(1);
    c.warmup = Duration::minutes(30);
    c.seed = seed;
    // ... and its BGP Damping series, over the same window.
    bgp::BgpSimConfig& b = s.bgp_config;
    b.seed = seed;
    b.convergence_window = c.warmup;
    b.churn_window = c.sim_duration;
    b.flaps_per_adjacency_per_day = 0.0;  // churn comes from the plan
    b.damping.enabled = true;
  } else {
    return false;
  }
  *out = s;
  return true;
}

std::unique_ptr<Inputs> build_inputs(const WorkloadSpec& spec,
                                     InputTimes* times) {
  const double t0 = host_now_s();
  auto in = std::make_unique<Inputs>();
  scion::exp::Scale scale;
  scale.internet_ases = spec.internet_ases;
  scale.core_ases = spec.core_ases;
  scale.core_isds = spec.core_isds;
  scale.seed = kTopologySeed;
  in->internet = scion::exp::build_internet(scale);
  in->internet_monitors = scion::exp::pick_monitors(in->internet, spec.monitors);
  const double t1 = host_now_s();
  if (times != nullptr) times->generate_s = t1 - t0;
  if (spec.scion) {
    scion::exp::CoreNetworks nets =
        scion::exp::build_core_networks(scale, in->internet);
    if (times != nullptr) times->core_network_s = host_now_s() - t1;
    in->bgp_view = std::move(nets.bgp_view);
    in->scion_view = std::move(nets.scion_view);
    for (const topo::AsIndex m : in->internet_monitors) {
      const topo::AsIndex idx = scion::exp::find_by_as_number(
          in->scion_view, in->internet.as_id(m).as_number());
      if (idx != topo::kInvalidAsIndex) in->scion_monitors.push_back(idx);
    }
  }
  if (spec.bgp && spec.bgp_on_internet) {
    in->bgp_monitors = in->internet_monitors;
    in->prefix_counts = scion::exp::prefix_counts(in->internet, spec.seed);
  }
  if (spec.probe_pairs > 0) {
    util::Rng rng{spec.seed ^ kProbeSeedMix};
    in->probe_pairs = scion::exp::sample_distinct_pairs(
        rng, in->scion_view.as_count(), spec.probe_pairs);
  }
  return in;
}

faults::FaultPlan churn_plan(const WorkloadSpec& spec,
                             std::size_t link_count) {
  // The churn experiment's default scenario: a steady heavy-tailed ON/OFF
  // process on half of all links plus four BGP session restarts.
  faults::FaultPlan plan;
  plan.seed = spec.seed ^ kChurnSeedMix;
  faults::ChurnSpec churn;
  churn.profile = faults::ChurnSpec::Profile::kSteady;
  churn.links = faults::LinkClass::kAll;
  churn.link_fraction = 0.5;
  churn.up_min = Duration::minutes(2);
  churn.up_max = Duration::minutes(20);
  churn.up_alpha = 1.1;
  churn.down_min = Duration::seconds(30);
  churn.down_max = Duration::minutes(3);
  churn.down_alpha = 1.3;
  churn.duration = spec.beaconing.sim_duration;
  plan.churn.push_back(churn);
  util::Rng restart_rng = util::Rng::substream(plan.seed, 0x5E55);
  constexpr std::int64_t kRestarts = 4;
  for (std::int64_t i = 0; i < kRestarts; ++i) {
    faults::Event ev;
    ev.kind = faults::Event::Kind::kSessionRestart;
    ev.target = static_cast<std::uint32_t>(restart_rng.uniform_int(
        0, static_cast<std::int64_t>(link_count) - 1));
    ev.at = Duration::nanoseconds(spec.beaconing.sim_duration.ns() * (i + 1) /
                                  (kRestarts + 1));
    ev.duration = Duration::seconds(90);
    plan.events.push_back(ev);
  }
  return plan;
}

void Prober::observe(std::size_t i, bool up) {
  ++stats_.probes;
  if (up) ++stats_.probes_up;
  State& st = states_[i];
  if (st.seen) {
    if (st.up && !up) {
      st.in_outage = true;
      ++stats_.outages;
    } else if (!st.up && up && st.in_outage) {
      ++stats_.recovered;
      st.in_outage = false;
    }
  }
  st.seen = true;
  st.up = up;
}

ProbeStats Prober::finish() const {
  ProbeStats p = stats_;
  for (const State& st : states_) {
    if (st.in_outage) ++p.unrecovered;
  }
  return p;
}

bool scion_pair_live(const ctrl::BeaconStore& store, topo::IsdAsId origin,
                     const sim::Network& net) {
  for (const ctrl::StoredPcb& s : store.for_origin(origin)) {
    if (s.stale() || s.links.empty()) continue;
    const bool live =
        std::all_of(s.links.begin(), s.links.end(), [&net](topo::LinkIndex l) {
          return net.channel_up(sim::ChannelId{l});
        });
    if (live) return true;
  }
  return false;
}

std::string Fingerprint::diff(const Fingerprint& other) const {
  const std::size_t n = std::min(values.size(), other.values.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (values[i] != other.values[i]) {
      return values[i].first + "=" + std::to_string(values[i].second) +
             " vs " + other.values[i].first + "=" +
             std::to_string(other.values[i].second);
    }
  }
  if (values.size() != other.values.size()) {
    return "fingerprint length " + std::to_string(values.size()) + " vs " +
           std::to_string(other.values.size());
  }
  return "identical";
}

void check_stores(const topo::Topology& scion_view,
                  const std::vector<const ctrl::BeaconServer*>& servers,
                  Checks& checks) {
  std::size_t over_limit = 0;
  std::size_t loops = 0;
  std::set<std::uint64_t> seen;
  for (const ctrl::BeaconServer* s : servers) {
    const ctrl::BeaconStore& store = s->store();
    const std::size_t limit = store.per_origin_limit();
    for (const topo::IsdAsId origin : store.origins()) {
      const std::vector<ctrl::StoredPcb>& bucket = store.for_origin(origin);
      if (limit > 0 && bucket.size() > limit) ++over_limit;
      for (const ctrl::StoredPcb& e : bucket) {
        // Loop-free: every AS on the path, the holder included, once.
        seen.clear();
        seen.insert(s->self_id().value());
        bool loop = false;
        for (const ctrl::AsEntry& entry : e.pcb->entries()) {
          loop |= !seen.insert(entry.isd_as.value()).second;
        }
        for (const topo::LinkIndex l : e.links) {
          loop |= l >= scion_view.link_count();
        }
        if (loop) ++loops;
      }
    }
  }
  checks.expect(over_limit == 0,
                std::to_string(over_limit) + " buckets over the storage limit");
  checks.expect(loops == 0, std::to_string(loops) + " stored paths with loops");
}

void check_bgp_monitors(const bgp::BgpSim& sim, const Inputs& in,
                        Checks& checks) {
  std::size_t bad = 0;
  std::size_t nonzero = 0;
  for (const topo::AsIndex m : in.bgp_monitors) {
    const double b = sim.monthly_bgp_bytes(m, in.prefix_counts);
    if (b <= 0) continue;
    ++nonzero;
    if (!(sim.monthly_bgpsec_bytes(m, in.prefix_counts) > b)) ++bad;
  }
  checks.expect(nonzero > 0, "no monitor saw BGP bytes");
  checks.expect(bad == 0, std::to_string(bad) +
                              " monitors with BGPsec bytes <= BGP bytes");
}

void check_probe(const ProbeStats& p, const std::string& who, Checks& checks) {
  checks.expect(p.recovered + p.unrecovered == p.outages,
                who + ": recovered + unrecovered != outages");
  checks.expect(p.availability() > 0.0 && p.availability() <= 1.0,
                who + ": availability outside (0, 1]");
}

void fingerprint_scion(const std::vector<const ctrl::BeaconServer*>& servers,
                       const Inputs& in, std::uint64_t events,
                       Fingerprint& fp) {
  ctrl::BeaconServerStats agg;
  std::uint64_t stored = 0;
  for (const ctrl::BeaconServer* s : servers) {
    const ctrl::BeaconServerStats& st = s->stats();
    agg.pcbs_sent += st.pcbs_sent;
    agg.pcbs_received += st.pcbs_received;
    agg.pcbs_originated += st.pcbs_originated;
    agg.store_rejected += st.store_rejected;
    agg.pcbs_quarantined += st.pcbs_quarantined;
    agg.reoriginations += st.reoriginations;
    stored += s->store().total_stored();
  }
  fp.add("scion.events", events);
  fp.add("scion.pcbs_sent", agg.pcbs_sent);
  fp.add("scion.pcbs_received", agg.pcbs_received);
  fp.add("scion.pcbs_originated", agg.pcbs_originated);
  fp.add("scion.store_rejected", agg.store_rejected);
  fp.add("scion.pcbs_quarantined", agg.pcbs_quarantined);
  fp.add("scion.reoriginations", agg.reoriginations);
  fp.add("scion.stored", stored);
  for (const topo::AsIndex m : in.scion_monitors) {
    fp.add("scion.monitor" + std::to_string(m) + ".bytes_received",
           servers[m]->stats().bytes_received.value());
  }
}

void fingerprint_bgp(const bgp::BgpSim& sim, const Inputs& in,
                     Fingerprint& fp) {
  fp.add("bgp.updates_sent", sim.total_updates_sent());
  fp.add("bgp.routes_suppressed", sim.total_routes_suppressed());
  for (const topo::AsIndex m : in.bgp_monitors) {
    fp.add("bgp.monitor" + std::to_string(m) + ".raw_bytes",
           sim.monitor(m).raw_bytes);
  }
}

void fingerprint_probe(const ProbeStats& p, const std::string& who,
                       Fingerprint& fp) {
  fp.add(who + ".probes_up", p.probes_up);
  fp.add(who + ".outages", p.outages);
  fp.add(who + ".recovered", p.recovered);
}

namespace {

const scion::obs::EventLabel kChunkLabel =
    scion::obs::event_label("perfbench.chunk");

/// Chunk markers per simulator run (see main.cpp: wall_s sums, per chunk,
/// the fastest repeat).
constexpr std::int64_t kChunksPerRun = 1000;

/// Schedules the churn probes on a simulator, from the end of warm-up.
template <typename UpFn>
void schedule_probes(sim::Simulator& s, const WorkloadSpec& spec,
                     util::Duration warmup, Prober& prober, UpFn up) {
  const TimePoint start = TimePoint::origin() + warmup;
  s.schedule_periodic(start + spec.probe_interval, spec.probe_interval,
                      kProbeLabel, [&prober, up] { prober.round(up); });
}

/// One constructed workload: inputs, simulators, and the churn probes.
struct Instance {
  std::unique_ptr<Inputs> in;
  std::unique_ptr<ctrl::BeaconingSim> scion;
  std::unique_ptr<bgp::BgpSim> bgp;
  std::unique_ptr<Prober> scion_probe;
  std::unique_ptr<Prober> bgp_probe;
};

std::unique_ptr<Instance> construct(const WorkloadSpec& spec) {
  auto x = std::make_unique<Instance>();
  x->in = build_inputs(spec);
  const Inputs* in = x->in.get();
  x->scion_probe = std::make_unique<Prober>(in->probe_pairs.size());
  x->bgp_probe = std::make_unique<Prober>(in->probe_pairs.size());
  if (spec.scion) {
    ctrl::BeaconingSimConfig config = spec.beaconing;
    if (spec.churn) config.faults = churn_plan(spec, in->scion_view.link_count());
    x->scion = std::make_unique<ctrl::BeaconingSim>(in->scion_view, config);
    if (spec.churn) {
      const ctrl::BeaconingSim* s = x->scion.get();
      schedule_probes(x->scion->simulator(), spec, config.warmup,
                      *x->scion_probe, [s, in](std::size_t i) {
                        const auto [a, b] = in->probe_pairs[i];
                        const topo::Topology& t = in->scion_view;
                        return scion_pair_live(s->server(a).store(), t.as_id(b),
                                               s->network()) ||
                               scion_pair_live(s->server(b).store(), t.as_id(a),
                                               s->network());
                      });
    }
  }
  if (spec.bgp) {
    bgp::BgpSimConfig config = spec.bgp_config;
    if (spec.churn) config.faults = churn_plan(spec, in->scion_view.link_count());
    const topo::Topology& t = spec.bgp_on_internet ? in->internet : in->bgp_view;
    x->bgp = std::make_unique<bgp::BgpSim>(t, config);
    for (const topo::AsIndex m : in->bgp_monitors) x->bgp->add_monitor(m);
    if (spec.churn) {
      const bgp::BgpSim* s = x->bgp.get();
      schedule_probes(x->bgp->simulator(), spec, config.convergence_window,
                      *x->bgp_probe, [s, in](std::size_t i) {
                        const auto [a, b] = in->probe_pairs[i];
                        return s->has_live_route(a, b) &&
                               s->has_live_route(b, a);
                      });
    }
  }
  return x;
}

/// Host-clock marks taken at chunk boundaries.
struct Marks {
  std::vector<double> wall;
  std::vector<double> cpu;
  void take() {
    wall.push_back(host_now_s());
    cpu.push_back(process_cpu_s());
  }
};

/// Splits a simulator run into kChunksPerRun virtual-time slices with a
/// side-effect-free periodic marker: it only reads the host clocks, so
/// event order and every simulation output stay as without it.
void add_chunk_markers(sim::Simulator& s, util::Duration total, Marks& marks) {
  const Duration period =
      Duration::nanoseconds(std::max<std::int64_t>(1, total.ns() / kChunksPerRun));
  s.schedule_periodic(TimePoint::origin() + period, period, kChunkLabel,
                      [&marks] { marks.take(); });
}

}  // namespace

RepeatResult run_timed(const WorkloadSpec& spec, std::size_t setups) {
  RepeatResult r;
  // Set-up-only samples: construction is cheap next to the run, so each
  // repeat measures it several times.
  for (std::size_t i = 1; i < setups; ++i) {
    const double t0 = host_now_s();
    const std::unique_ptr<Instance> x = construct(spec);
    r.setup_s.push_back(host_now_s() - t0);
  }
  const double t0 = host_now_s();
  const std::unique_ptr<Instance> x = construct(spec);
  r.setup_s.push_back(host_now_s() - t0);
  const Inputs& in = *x->in;

  Marks marks;
  marks.wall.reserve(2 * kChunksPerRun + 8);
  marks.cpu.reserve(2 * kChunksPerRun + 8);
  if (x->scion) {
    const ctrl::BeaconingSimConfig& c = spec.beaconing;
    add_chunk_markers(x->scion->simulator(), c.warmup + c.sim_duration, marks);
  }
  if (x->bgp) {
    const bgp::BgpSimConfig& c = spec.bgp_config;
    add_chunk_markers(x->bgp->simulator(),
                      c.convergence_window + c.churn_window, marks);
  }
  marks.take();
  std::size_t scion_markers = 0;
  std::size_t bgp_markers = 0;
  if (x->scion) {
    x->scion->run();
    scion_markers = marks.wall.size() - 1;
    marks.take();
  }
  if (x->bgp) {
    const std::size_t before = marks.wall.size();
    x->bgp->run();
    bgp_markers = marks.wall.size() - before;
    marks.take();
  }
  for (std::size_t i = 1; i < marks.wall.size(); ++i) {
    r.chunk_wall_s.push_back(marks.wall[i] - marks.wall[i - 1]);
    r.chunk_cpu_s.push_back(marks.cpu[i] - marks.cpu[i - 1]);
  }

  // Chunk markers are not simulation events: the fingerprint and
  // ns_per_event count the simulators' own events only.
  if (x->scion) {
    const std::uint64_t events =
        x->scion->simulator().events_processed() - scion_markers;
    r.events += events;
    std::vector<const ctrl::BeaconServer*> servers;
    for (topo::AsIndex i = 0; i < in.scion_view.as_count(); ++i) {
      servers.push_back(&x->scion->server(i));
    }
    check_stores(in.scion_view, servers, r.checks);
    // Send-side PCB conservation over the measurement window: every PCB a
    // server sent either entered the wire or was dropped at the source.
    // (The delivery side needs per-message arrival times; the traced
    // driver checks it exactly.)
    std::uint64_t wire = 0;
    for (const ctrl::InterfaceUsage& u : x->scion->interface_usage()) {
      wire += u.messages;
    }
    const sim::DropStats& d = x->scion->network().drop_stats();
    r.checks.expect(x->scion->total_pcbs_sent() ==
                        wire + d.link_down + d.loss + d.node_down,
                    "PCBs sent != PCBs on the wire + dropped at the source");
    fingerprint_scion(servers, in, events, r.fingerprint);
  }
  if (x->bgp) {
    const std::uint64_t events =
        x->bgp->simulator().events_processed() - bgp_markers;
    r.events += events;
    r.fingerprint.add("bgp.events", events);
    fingerprint_bgp(*x->bgp, in, r.fingerprint);
    if (!in.bgp_monitors.empty()) check_bgp_monitors(*x->bgp, in, r.checks);
    r.checks.expect(x->bgp->total_updates_sent() > 0, "BGP sent no UPDATEs");
  }
  if (spec.churn) {
    const ProbeStats sp = x->scion_probe->finish();
    const ProbeStats bp = x->bgp_probe->finish();
    check_probe(sp, "scion", r.checks);
    check_probe(bp, "bgp", r.checks);
    fingerprint_probe(sp, "scion", r.fingerprint);
    fingerprint_probe(bp, "bgp", r.fingerprint);
  }
  r.checks.expect(r.events > 0, "no events processed");
  return r;
}

}  // namespace perfbench
