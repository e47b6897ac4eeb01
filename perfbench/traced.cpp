// The traced run: per-layer host time of one workload repeat.
//
// SCION: a driver built from public sim::Simulator, sim::Network,
// ctrl::BeaconServer and faults::FaultInjector calls that mirrors
// ctrl::BeaconingSim's construction exactly (same RNG draw order for link
// latencies and phase offsets, same backoff seed, same fault hooks, same
// warm-up reset), with spans around handle_pcb, on_interval, the send hook,
// and the link down/up hooks. Its deterministic fingerprint must equal the
// untraced BeaconingSim run's, so the driver cannot drift from the program
// it explains. It also copies each monitor's store at its fullest, in spans
// of its own, as the kernel replay's input.
//
// BGP: BgpSim construction, run() and monitor accounting are spans; the
// time inside run() is attributed by the simulator's own per-label event
// profile, enabled for the BGP part only.
//
// Spans are kept in memory and written out when the run ends. A span's self
// time is its duration minus the time its child spans cover; the event
// loop's self time is the run's wall time minus every top-level span.
#include <algorithm>
#include <fstream>

#include "bench.hpp"
#include "crypto/signature.hpp"
#include "obs/alloc_track.hpp"
#include "obs/event_profile.hpp"

namespace perfbench {

namespace {

using util::Duration;
using util::TimePoint;

const scion::obs::EventLabel kPropagateLabel =
    scion::obs::event_label("beacon.propagate");
const scion::obs::EventLabel kIntervalLabel =
    scion::obs::event_label("beacon.interval");
const scion::obs::EventLabel kReoriginLabel =
    scion::obs::event_label("beacon.reorigin");
const scion::obs::EventLabel kProbeLabel =
    scion::obs::event_label("experiment.probe");

enum class Kind : std::uint8_t {
  kHandlePcb,
  kOnInterval,
  kSend,
  kFaultHook,
  kLinkDown,
  kLinkUp,
  kProbe,
  kHarvest,
  kBgpConstruct,
  kBgpRun,
  kBgpAccounting,
  kCount,
};
constexpr const char* kKindNames[] = {
    "core.handle_pcb",  "core.on_interval", "simnet.send",
    "faults.hook",      "core.on_link_down", "core.on_link_up",
    "experiment.probe", "perfbench.harvest", "bgp.construct",
    "bgp.run",          "bgp.accounting",
};
static_assert(std::size(kKindNames) == static_cast<std::size_t>(Kind::kCount));

/// In-memory span log with a stack of open spans.
class Spans {
 public:
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};
  struct Span {
    std::int64_t start{0};
    std::int64_t end{0};
    std::int64_t child{0};  // time covered by direct children
    std::uint64_t allocs{0};
    std::uint32_t parent{kNoParent};
    Kind kind{};
    std::int64_t dur() const { return end - start; }
    std::int64_t self() const { return dur() - child; }
  };

  void begin(Kind kind) {
    // Grow first, stamp last: the log's own growth is not charged to the
    // span it opens.
    spans_.push_back(Span{});
    Span& s = spans_.back();
    s.kind = kind;
    s.parent = open_.empty() ? kNoParent : open_.back();
    open_.push_back(static_cast<std::uint32_t>(spans_.size() - 1));
    s.allocs = scion::obs::thread_allocs();
    s.start = host_now_ns();
  }
  void end() {
    const std::int64_t t = host_now_ns();
    Span& s = spans_[open_.back()];
    open_.pop_back();
    s.end = t;
    s.allocs = scion::obs::thread_allocs() - s.allocs;
    if (s.parent != kNoParent) spans_[s.parent].child += s.dur();
  }
  const std::vector<Span>& all() const { return spans_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

class Scope {
 public:
  Scope(Spans& spans, Kind kind) : spans_{spans} { spans_.begin(kind); }
  ~Scope() { spans_.end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
};

/// The traced twin of ctrl::BeaconingSim (see the file comment).
class TracedBeaconing {
 public:
  /// Harvests the stores of `monitors` (see harvest()).
  TracedBeaconing(const topo::Topology& topology,
                  const ctrl::BeaconingSimConfig& config,
                  const std::vector<topo::AsIndex>& monitors, Spans& spans)
      : topology_{topology},
        config_{config},
        net_{sim_},
        spans_{spans},
        harvest_slot_(topology.as_count(), kNotHarvested),
        harvests_(monitors.size()) {
    for (std::size_t k = 0; k < monitors.size(); ++k) {
      harvest_slot_[monitors[k]] = k;
    }
    end_ = TimePoint::origin() + config_.warmup + config_.sim_duration;
    util::Rng rng{config_.seed};
    for (topo::AsIndex i = 0; i < topology_.as_count(); ++i) {
      net_.add_node(topology_.as_id(i).to_string());
    }
    for (topo::LinkIndex l = 0; l < topology_.link_count(); ++l) {
      const topo::Link& link = topology_.link(l);
      const auto latency = Duration::nanoseconds(rng.uniform_int(
          config_.min_latency.ns(), config_.max_latency.ns()));
      net_.add_channel(sim::NodeId{link.a}, sim::NodeId{link.b}, latency);
    }

    keys_ = std::make_unique<scion::crypto::KeyStore>(
        scion::crypto::kDefaultKeyDomainSeed);
    ctrl::BeaconServerConfig server_config = config_.server;
    server_config.schedule = [this](Duration delay,
                                    std::function<void(TimePoint)> fn) {
      sim_.schedule_after(delay, kReoriginLabel,
                          [this, fn = std::move(fn)] { fn(sim_.now()); });
    };
    servers_.reserve(topology_.as_count());
    for (topo::AsIndex i = 0; i < topology_.as_count(); ++i) {
      auto send = [this, i](topo::LinkIndex egress, const ctrl::PcbRef& pcb) {
        Scope span{spans_, Kind::kSend};
        const sim::ChannelId ch{egress};
        const sim::NodeId from{i};
        const std::uint64_t before = net_.stats_from(ch, from).messages;
        net_.send(ch, from, pcb->wire_size(), pcb, kPropagateLabel);
        ++sends_;
        if (net_.stats_from(ch, from).messages != before &&
            sim_.now() + net_.latency(ch) > end_) {
          ++in_flight_at_end_;  // arrives after the run ends
        }
      };
      servers_.push_back(std::make_unique<ctrl::BeaconServer>(
          topology_, i, server_config, *keys_,
          scion::crypto::kDefaultKeyDomainSeed, std::move(send)));
    }
    for (topo::AsIndex i = 0; i < topology_.as_count(); ++i) {
      net_.set_handler(sim::NodeId{i}, [this, i](const sim::Message& msg) {
        Scope span{spans_, Kind::kHandlePcb};
        ++delivered_;
        servers_[i]->handle_pcb(msg.payload.get<ctrl::PcbRef>(),
                                msg.channel.value(), sim_.now());
      });
    }
    for (topo::AsIndex i = 0; i < topology_.as_count(); ++i) {
      const auto offset = Duration::nanoseconds(
          rng.uniform_int(0, config_.server.interval.ns() - 1));
      sim_.schedule_periodic(TimePoint::origin() + offset,
                             config_.server.interval, kIntervalLabel, [this, i] {
                               {
                                 Scope span{spans_, Kind::kOnInterval};
                                 servers_[i]->on_interval(sim_.now());
                               }
                               harvest(i);
                             });
    }
    if (!config_.faults.empty()) {
      faults::FaultInjector::Hooks hooks;
      hooks.on_link_down = [this](topo::LinkIndex l) {
        Scope hook{spans_, Kind::kFaultHook};
        const topo::Link& link = topology_.link(l);
        for (const topo::AsIndex as : {link.a, link.b}) {
          Scope span{spans_, Kind::kLinkDown};
          servers_[as]->on_link_down(l, sim_.now());
        }
      };
      hooks.on_link_up = [this](topo::LinkIndex l) {
        Scope hook{spans_, Kind::kFaultHook};
        const topo::Link& link = topology_.link(l);
        for (const topo::AsIndex as : {link.a, link.b}) {
          Scope span{spans_, Kind::kLinkUp};
          servers_[as]->on_link_up(l, sim_.now());
        }
      };
      injector_ = std::make_unique<faults::FaultInjector>(
          net_, config_.faults, &topology_, std::move(hooks));
    }
  }

  /// BeaconingSim::run(); returns its wall seconds.
  double run() {
    const double t0 = host_now_s();
    if (config_.warmup > Duration::zero()) {
      sim_.run_until(TimePoint::origin() + config_.warmup);
      add_drops(net_.drop_stats());
      net_.reset_stats();
      for (const auto& s : servers_) {
        add_stats(s->stats(), warmup_stats_);
        s->reset_stats();
      }
    }
    if (injector_) injector_->arm(end_);
    sim_.run_until(end_);
    const double wall = host_now_s() - t0;
    add_drops(net_.drop_stats());
    return wall;
  }

  sim::Simulator& simulator() { return sim_; }
  const sim::Network& network() const { return net_; }
  const faults::FaultInjector* injector() const { return injector_.get(); }
  const ctrl::BeaconStore& store(topo::AsIndex as) const {
    return servers_[as]->store();
  }
  std::vector<const ctrl::BeaconServer*> servers() const {
    std::vector<const ctrl::BeaconServer*> out;
    for (const auto& s : servers_) out.push_back(s.get());
    return out;
  }
  TimePoint end() const { return end_; }

  /// The harvested stores, in monitor order; monitors whose store stayed
  /// empty have none.
  std::vector<Harvest> harvests() const {
    std::vector<Harvest> out;
    for (const std::optional<Harvest>& h : harvests_) {
      if (h) out.push_back(*h);
    }
    return out;
  }

  /// Whole-run server counters (warm-up included).
  ctrl::BeaconServerStats whole_run_stats() const {
    ctrl::BeaconServerStats agg = warmup_stats_;
    for (const auto& s : servers_) add_stats(s->stats(), agg);
    return agg;
  }

  /// PCB conservation over the whole run: every PCB handed to the network
  /// was delivered, dropped, or is still in flight at the end.
  void check_conservation(Checks& checks) const {
    const std::uint64_t accounted = delivered_ + drops_ + in_flight_at_end_;
    checks.expect(sends_ == accounted,
                  "PCB conservation: " + std::to_string(sends_) +
                      " sent != " + std::to_string(delivered_) +
                      " delivered + " + std::to_string(drops_) +
                      " dropped + " + std::to_string(in_flight_at_end_) +
                      " in flight");
  }

 private:
  static void add_stats(const ctrl::BeaconServerStats& s,
                        ctrl::BeaconServerStats& agg) {
    agg.pcbs_received += s.pcbs_received;
    agg.pcbs_sent += s.pcbs_sent;
    agg.pcbs_originated += s.pcbs_originated;
    agg.loops_dropped += s.loops_dropped;
    agg.store_rejected += s.store_rejected;
    agg.pcbs_quarantined += s.pcbs_quarantined;
    agg.pcbs_revalidated += s.pcbs_revalidated;
    agg.reoriginations += s.reoriginations;
  }
  void add_drops(const sim::DropStats& d) { drops_ += d.total(); }

  /// After a monitor's interval tick: copies its store and diversity state
  /// if the store holds more paths than at any earlier tick. The kernel
  /// replay thus sees the fullest buckets of the run (the ones admission
  /// mostly works on), not what expiry left at its end.
  void harvest(topo::AsIndex i) {
    if (harvest_slot_[i] == kNotHarvested) return;
    Scope span{spans_, Kind::kHarvest};
    std::optional<Harvest>& h = harvests_[harvest_slot_[i]];
    const ctrl::BeaconServer& s = *servers_[i];
    const std::size_t held = h ? h->store.total_stored() : 0;
    if (s.store().total_stored() <= held) return;
    h.emplace(Harvest{i, sim_.now(), s.store(), std::nullopt});
    if (s.diversity_state() != nullptr) h->diversity = *s.diversity_state();
  }

  static constexpr std::size_t kNotHarvested = ~std::size_t{0};

  const topo::Topology& topology_;
  ctrl::BeaconingSimConfig config_;
  sim::Simulator sim_;
  sim::Network net_;
  Spans& spans_;
  TimePoint end_;
  std::unique_ptr<scion::crypto::KeyStore> keys_;
  std::vector<std::unique_ptr<ctrl::BeaconServer>> servers_;
  std::unique_ptr<faults::FaultInjector> injector_;
  ctrl::BeaconServerStats warmup_stats_;
  std::uint64_t sends_{0};
  std::uint64_t delivered_{0};
  std::uint64_t drops_{0};
  std::uint64_t in_flight_at_end_{0};
  std::vector<std::size_t> harvest_slot_;  // per AS: index in harvests_
  std::vector<std::optional<Harvest>> harvests_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double percentile(std::vector<std::int64_t>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(v.size()));
  return static_cast<double>(v[std::min(rank, v.size() - 1)]);
}

struct KindTotals {
  double dur_s{0};
  double self_s{0};
  std::uint64_t calls{0};
  std::uint64_t allocs{0};
  std::vector<std::int64_t> durs_ns;
};

void write_spans(const std::string& path, const Spans& spans,
                 std::int64_t scion_wall_ns) {
  std::ofstream out{path};
  out << "# perfbench spans v1\n"
         "# kind <id> <name>, then one span per line: <kind id> <start ns "
         "since the first span> <duration ns> <parent line, -1: top level> "
         "<allocations>\n";
  out << "scion_wall_ns " << scion_wall_ns << "\n";
  for (std::size_t k = 0; k < std::size(kKindNames); ++k) {
    out << "kind " << k << ' ' << kKindNames[k] << '\n';
  }
  const std::int64_t t0 = spans.all().empty() ? 0 : spans.all().front().start;
  for (const Spans::Span& s : spans.all()) {
    out << static_cast<int>(s.kind) << ' ' << s.start - t0 << ' ' << s.dur()
        << ' '
        << (s.parent == Spans::kNoParent ? std::int64_t{-1}
                                         : std::int64_t{s.parent})
        << ' ' << s.allocs << '\n';
  }
}

}  // namespace

TracedResult run_traced(const WorkloadSpec& spec, double untraced_wall_s,
                        std::uint64_t untraced_events,
                        const std::string& spans_out) {
  TracedResult r;
  Spans spans;
  // About one span per event plus one per send: reserved up front so the
  // log never reallocates inside a measured span.
  spans.reserve(2 * untraced_events + 4096);
  auto& profiler = scion::obs::EventProfiler::global();

  InputTimes times;
  const std::unique_ptr<Inputs> in = build_inputs(spec, &times);
  double construct_s = 0;
  double scion_wall_s = 0;
  double bgp_run_s = 0;
  std::uint64_t scion_events = 0;
  std::size_t queue_high_water = 0;
  ctrl::BeaconServerStats whole;
  std::uint64_t evaluations = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t fault_transitions = 0;
  Metrics kernels;
  ProbeStats scion_probe_stats;
  ProbeStats bgp_probe_stats;
  std::map<std::string, double> labels_s;  // BGP per-label wall seconds
  double bgp_labelled_s = 0;
  double bgp_accounting_s = 0;
  std::uint64_t bgp_events = 0;
  std::uint64_t bgp_updates = 0;
  std::uint64_t bgp_suppressed = 0;

  // --- SCION core beaconing ------------------------------------------------
  if (spec.scion) {
    ctrl::BeaconingSimConfig config = spec.beaconing;
    if (spec.churn) config.faults = churn_plan(spec, in->scion_view.link_count());
    const double t0 = host_now_s();
    TracedBeaconing driver{in->scion_view, config, in->scion_monitors, spans};
    construct_s += host_now_s() - t0;
    Prober prober{in->probe_pairs.size()};
    if (spec.churn) {
      driver.simulator().schedule_periodic(
          TimePoint::origin() + config.warmup + spec.probe_interval,
          spec.probe_interval, kProbeLabel, [&] {
            Scope span{spans, Kind::kProbe};
            prober.round([&](std::size_t i) {
              const auto [a, b] = in->probe_pairs[i];
              const topo::Topology& t = in->scion_view;
              return scion_pair_live(driver.store(a), t.as_id(b),
                                     driver.network()) ||
                     scion_pair_live(driver.store(b), t.as_id(a),
                                     driver.network());
            });
          });
    }
    scion_wall_s = driver.run();
    scion_events = driver.simulator().events_processed();
    queue_high_water = driver.simulator().queue_high_water();
    const std::vector<const ctrl::BeaconServer*> servers = driver.servers();
    check_stores(in->scion_view, servers, r.checks);
    driver.check_conservation(r.checks);
    fingerprint_scion(servers, *in, scion_events, r.fingerprint);
    whole = driver.whole_run_stats();
    for (const ctrl::BeaconServer* s : servers) {
      if (const ctrl::DiversityState* d = s->diversity_state()) {
        evaluations += d->evaluations();
        suppressed += d->suppressed();
      }
    }
    if (driver.injector() != nullptr) {
      const faults::FaultInjectorStats& fs = driver.injector()->stats();
      fault_transitions += fs.link_down_events + fs.link_up_events;
    }
    if (spec.churn) scion_probe_stats = prober.finish();
    kernels = replay_kernels(in->scion_view, driver.harvests(), config.server,
                             r.checks);
  } else {
    // No harvested stores: the kernel rows report zero calls.
    kernels = replay_kernels(in->scion_view, {}, spec.beaconing.server,
                             r.checks);
  }

  // --- BGP -------------------------------------------------------------------
  if (spec.bgp) {
    bgp::BgpSimConfig config = spec.bgp_config;
    if (spec.churn) config.faults = churn_plan(spec, in->scion_view.link_count());
    const topo::Topology& t = spec.bgp_on_internet ? in->internet : in->bgp_view;
    profiler.reset_counters();
    profiler.set_enabled(true);
    std::unique_ptr<bgp::BgpSim> sim;
    Prober prober{in->probe_pairs.size()};
    {
      const double t0 = host_now_s();
      Scope span{spans, Kind::kBgpConstruct};
      sim = std::make_unique<bgp::BgpSim>(t, config);
      for (const topo::AsIndex m : in->bgp_monitors) sim->add_monitor(m);
      construct_s += host_now_s() - t0;
    }
    if (spec.churn) {
      const bgp::BgpSim* s = sim.get();
      sim->simulator().schedule_periodic(
          TimePoint::origin() + config.convergence_window + spec.probe_interval,
          spec.probe_interval, kProbeLabel, [&, s] {
            prober.round([&](std::size_t i) {
              const auto [a, b] = in->probe_pairs[i];
              return s->has_live_route(a, b) && s->has_live_route(b, a);
            });
          });
    }
    {
      const double t0 = host_now_s();
      Scope span{spans, Kind::kBgpRun};
      sim->run();
      bgp_run_s = host_now_s() - t0;
    }
    profiler.set_enabled(false);
    for (const auto& [label, stats] : profiler.label_snapshot()) {
      const double s = static_cast<double>(stats.wall_ns) * 1e-9;
      labels_s[label] += s;
      bgp_labelled_s += s;
    }
    bgp_events = sim->simulator().events_processed();
    bgp_updates = sim->total_updates_sent();
    bgp_suppressed = sim->total_routes_suppressed();
    r.fingerprint.add("bgp.events", bgp_events);
    fingerprint_bgp(*sim, *in, r.fingerprint);
    {
      const double t0 = host_now_s();
      Scope span{spans, Kind::kBgpAccounting};
      if (!in->bgp_monitors.empty()) check_bgp_monitors(*sim, *in, r.checks);
      bgp_accounting_s = host_now_s() - t0;
    }
    r.checks.expect(bgp_updates > 0, "BGP sent no UPDATEs");
    fault_transitions += sim->injector().stats().link_down_events +
                         sim->injector().stats().link_up_events;
    if (spec.churn) bgp_probe_stats = prober.finish();
  }
  if (spec.churn) {
    check_probe(scion_probe_stats, "scion", r.checks);
    check_probe(bgp_probe_stats, "bgp", r.checks);
    fingerprint_probe(scion_probe_stats, "scion", r.fingerprint);
    fingerprint_probe(bgp_probe_stats, "bgp", r.fingerprint);
  }

  // --- Span aggregation ----------------------------------------------------
  std::vector<KindTotals> kinds(static_cast<std::size_t>(Kind::kCount));
  double top_level_s = 0;
  for (const Spans::Span& s : spans.all()) {
    KindTotals& k = kinds[static_cast<std::size_t>(s.kind)];
    k.dur_s += static_cast<double>(s.dur()) * 1e-9;
    k.self_s += static_cast<double>(s.self()) * 1e-9;
    ++k.calls;
    k.allocs += s.allocs;
    k.durs_ns.push_back(s.dur());
    if (s.parent == Spans::kNoParent && s.kind < Kind::kBgpConstruct) {
      top_level_s += static_cast<double>(s.dur()) * 1e-9;
    }
  }
  const auto kind = [&](Kind k) -> KindTotals& {
    return kinds[static_cast<std::size_t>(k)];
  };
  const double loop_self_s = spec.scion ? scion_wall_s - top_level_s : 0.0;
  const double traced_wall_s = scion_wall_s + bgp_run_s;
  if (!spans_out.empty()) {
    write_spans(spans_out, spans,
                static_cast<std::int64_t>(scion_wall_s * 1e9));
  }
  const auto label = [&](const std::string& name) {
    const auto it = labels_s.find(name);
    return it == labels_s.end() ? 0.0 : it->second;
  };
  double bgp_fault_s = 0;
  for (const auto& [name, s] : labels_s) {
    if (name.rfind("fault.", 0) == 0) bgp_fault_s += s;
  }
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };

  Metrics& m = r.metrics;
  m.push_back({"topology.generate_s", {times.generate_s, "s"}});
  m.push_back({"topology.core_network_s", {times.core_network_s, "s"}});
  m.push_back({"simnet.construct_s", {construct_s, "s"}});
  m.push_back({"simnet.events", {u(scion_events), "count"}});
  m.push_back({"simnet.loop_self_s", {loop_self_s, "s"}});
  m.push_back({"simnet.send_s", {kind(Kind::kSend).self_s, "s"}});
  m.push_back({"simnet.sends", {u(kind(Kind::kSend).calls), "count"}});
  m.push_back({"simnet.queue_high_water", {u(queue_high_water), "count"}});
  KindTotals& handle = kind(Kind::kHandlePcb);
  m.push_back({"core.handle_pcb_s", {handle.self_s, "s"}});
  m.push_back({"core.handle_pcb_calls", {u(handle.calls), "count"}});
  m.push_back({"core.handle_pcb_ns_p50", {percentile(handle.durs_ns, 0.5), "ns"}});
  m.push_back({"core.handle_pcb_ns_p99", {percentile(handle.durs_ns, 0.99), "ns"}});
  m.push_back({"core.store_reject_frac",
               {ratio(u(whole.store_rejected), u(whole.pcbs_received)), "ratio"}});
  m.push_back({"core.loops_dropped_frac",
               {ratio(u(whole.loops_dropped), u(whole.pcbs_received)), "ratio"}});
  m.push_back({"core.allocs_per_pcb_event",
               {ratio(u(handle.allocs), u(handle.calls)), "allocs/event"}});
  KindTotals& interval = kind(Kind::kOnInterval);
  m.push_back({"core.on_interval_self_s", {interval.self_s, "s"}});
  m.push_back({"core.on_interval_calls", {u(interval.calls), "count"}});
  m.push_back({"core.on_interval_ms_p50",
               {percentile(interval.durs_ns, 0.5) * 1e-6, "ms"}});
  m.push_back({"core.on_interval_ms_p99",
               {percentile(interval.durs_ns, 0.99) * 1e-6, "ms"}});
  m.push_back({"core.pcbs_sent", {u(whole.pcbs_sent), "count"}});
  m.push_back({"core.pcbs_originated", {u(whole.pcbs_originated), "count"}});
  m.push_back({"core.diversity_evaluations", {u(evaluations), "count"}});
  m.push_back({"core.diversity_suppressed_frac",
               {ratio(u(suppressed), u(evaluations)), "ratio"}});
  for (auto& k : kernels) m.push_back(std::move(k));
  m.push_back({"bgp.run_s", {bgp_run_s, "s"}});
  m.push_back({"bgp.events", {u(bgp_events), "count"}});
  m.push_back({"bgp.updates_sent", {u(bgp_updates), "count"}});
  m.push_back({"bgp.update_process_s", {label("bgp.update.process"), "s"}});
  m.push_back({"bgp.mrai_s", {label("bgp.timer.mrai"), "s"}});
  m.push_back({"bgp.deliver_s", {label("bgp.update.deliver"), "s"}});
  m.push_back({"bgp.unattributed_s",
               {spec.bgp ? bgp_run_s - bgp_labelled_s : 0.0, "s"}});
  m.push_back({"bgp.accounting_s", {bgp_accounting_s, "s"}});
  m.push_back({"faults.transitions", {u(fault_transitions), "count"}});
  m.push_back({"faults.handler_s", {kind(Kind::kFaultHook).dur_s + bgp_fault_s, "s"}});
  m.push_back({"core.on_link_down_s", {kind(Kind::kLinkDown).dur_s, "s"}});
  m.push_back({"core.on_link_up_s", {kind(Kind::kLinkUp).dur_s, "s"}});
  m.push_back({"core.pcbs_quarantined", {u(whole.pcbs_quarantined), "count"}});
  m.push_back({"core.pcbs_revalidated", {u(whole.pcbs_revalidated), "count"}});
  m.push_back({"core.reoriginations", {u(whole.reoriginations), "count"}});
  m.push_back({"bgp.damping_s", {label("bgp.timer.damping"), "s"}});
  m.push_back({"bgp.routes_suppressed", {u(bgp_suppressed), "count"}});
  m.push_back({"obs.trace_overhead_frac",
               {ratio(traced_wall_s - untraced_wall_s, untraced_wall_s),
                "ratio"}});
  return r;
}

}  // namespace perfbench
