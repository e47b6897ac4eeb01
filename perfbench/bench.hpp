// Shared declarations of the host-time benchmark (see README.md).
//
// The benchmark drives the simulator only through its public API. A timed
// repeat builds a workload's inputs from the seed, constructs the
// simulators, runs them with tracing off, and checks the outputs. The
// traced run (traced.cpp) re-runs the same inputs with spans around the
// calls into each layer; the kernel replay (kernels.cpp) times single
// layer functions on state harvested from that run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bgp/bgp_sim.hpp"
#include "core/beaconing_sim.hpp"
#include "faults/fault_plan.hpp"
#include "topology/topology.hpp"

namespace perfbench {

namespace topo = scion::topo;
namespace ctrl = scion::ctrl;
namespace bgp = scion::bgp;
namespace faults = scion::faults;
namespace sim = scion::sim;
namespace util = scion::util;

/// Monotonic host seconds.
inline double host_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Monotonic host nanoseconds (span timestamps).
inline std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of this process.
double process_cpu_s();

/// ru_maxrss of this process in MiB.
double peak_rss_mb();

enum class Size : std::uint8_t { kFull, kTiny };

/// Everything a workload's simulators are built from; a pure function of
/// (workload, seed, size).
struct WorkloadSpec {
  std::string name;
  bool scion{false};  // runs core beaconing
  bool bgp{false};    // runs BgpSim
  bool churn{false};  // both under one churn plan, with probes

  // Topology.
  std::size_t internet_ases{0};
  std::size_t core_ases{0};
  std::size_t core_isds{0};
  std::size_t monitors{10};
  std::uint64_t seed{1};

  // Core beaconing.
  ctrl::BeaconingSimConfig beaconing{};

  // BGP. `bgp_on_internet`: the full topology (bgp-internet) instead of the
  // core network's business-relationship view (churn).
  bgp::BgpSimConfig bgp_config{};
  bool bgp_on_internet{false};

  // Churn probes: AS pairs whose connectivity is sampled periodically.
  std::size_t probe_pairs{0};
  util::Duration probe_interval{util::Duration::seconds(10)};

  // Host seconds one timed repeat took on the reference machine (see
  // README.md). A constant, so the repeat count --seconds buys is the same
  // for every version of the simulator.
  double nominal_repeat_s{1.0};
};

/// Resolves a workload name; false if unknown.
bool make_spec(const std::string& name, std::uint64_t seed, Size size,
               WorkloadSpec* out);

/// The generated inputs of one repeat.
struct Inputs {
  topo::Topology internet;
  topo::Topology bgp_view;    // core network, business relationships
  topo::Topology scion_view;  // core network, all links core
  std::vector<topo::AsIndex> internet_monitors;
  std::vector<topo::AsIndex> scion_monitors;  // monitors found in scion_view
  std::vector<topo::AsIndex> bgp_monitors;    // in the BGP run's topology
  std::vector<std::uint32_t> prefix_counts;
  std::vector<std::pair<topo::AsIndex, topo::AsIndex>> probe_pairs;
};

/// Host time of the input-generation steps (traced run only).
struct InputTimes {
  double generate_s{0};      // Internet topology
  double core_network_s{0};  // core-network derivation
};

std::unique_ptr<Inputs> build_inputs(const WorkloadSpec& spec,
                                     InputTimes* times = nullptr);

/// Probe state machine of the churn workload (the same one the churn
/// experiment runs): outages, recoveries, and availability over the window.
struct ProbeStats {
  std::uint64_t probes{0};
  std::uint64_t probes_up{0};
  std::uint64_t outages{0};
  std::uint64_t recovered{0};
  std::uint64_t unrecovered{0};
  double availability() const {
    return probes > 0 ? static_cast<double>(probes_up) /
                            static_cast<double>(probes)
                      : 0.0;
  }
};

class Prober {
 public:
  explicit Prober(std::size_t pairs) : states_(pairs) {}
  template <typename UpFn>
  void round(UpFn&& pair_up) {
    for (std::size_t i = 0; i < states_.size(); ++i) observe(i, pair_up(i));
  }
  /// Closes open outages as unrecovered.
  ProbeStats finish() const;

 private:
  struct State {
    bool seen{false};
    bool up{false};
    bool in_outage{false};
  };
  void observe(std::size_t i, bool up);
  std::vector<State> states_;
  ProbeStats stats_;
};

/// True if some stored, non-quarantined path of `store` towards `origin`
/// rides only links that are up in `net`.
bool scion_pair_live(const ctrl::BeaconStore& store, topo::IsdAsId origin,
                     const sim::Network& net);

/// The shared churn scenario of the churn workload.
faults::FaultPlan churn_plan(const WorkloadSpec& spec,
                             std::size_t link_count);

/// Deterministic outputs compared across repeats and against the traced
/// driver. Order matters; names make a mismatch readable.
struct Fingerprint {
  std::vector<std::pair<std::string, std::uint64_t>> values;
  void add(std::string name, std::uint64_t v) {
    values.emplace_back(std::move(name), v);
  }
  bool operator==(const Fingerprint&) const = default;
  /// First differing entry, for failure messages.
  std::string diff(const Fingerprint& other) const;
};

/// Output checks of one repeat; any failure marks the repeat failed.
struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  bool ok() const { return failures.empty(); }
};

/// SCION output checks shared by timed and traced runs: every bucket
/// within its storage limit, every stored path loop-free.
void check_stores(const topo::Topology& scion_view,
                  const std::vector<const ctrl::BeaconServer*>& servers,
                  Checks& checks);

/// BGP output checks: BGPsec bytes exceed BGP bytes at every monitor with
/// nonzero BGP bytes.
void check_bgp_monitors(const bgp::BgpSim& sim, const Inputs& in,
                        Checks& checks);

void check_probe(const ProbeStats& p, const std::string& who, Checks& checks);

/// The fingerprint parts of the simulators (shared by both drivers).
void fingerprint_scion(const std::vector<const ctrl::BeaconServer*>& servers,
                       const Inputs& in, std::uint64_t events,
                       Fingerprint& fp);
void fingerprint_bgp(const bgp::BgpSim& sim, const Inputs& in, Fingerprint& fp);
void fingerprint_probe(const ProbeStats& p, const std::string& who,
                       Fingerprint& fp);

/// One timed repeat (tracing off): `setups` constructions of the workload
/// (the last one is run), the run split into virtual-time chunks, and the
/// output checks.
struct RepeatResult {
  std::vector<double> setup_s;      // one sample per construction
  std::vector<double> chunk_wall_s;  // per chunk of the run, in order
  std::vector<double> chunk_cpu_s;
  std::uint64_t events{0};  // simulation events (chunk markers excluded)
  Fingerprint fingerprint;
  Checks checks;
};

RepeatResult run_timed(const WorkloadSpec& spec, std::size_t setups);

/// Named metric values in emission order.
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// The traced run: per-layer metrics, checks, and the traced driver's
/// fingerprint (must equal the untraced one). `untraced_wall_s` is the
/// median untraced repeat wall time of the same inputs (trace overhead
/// base) and `untraced_events` their event count; `spans_out` (may be
/// empty) receives every span when the run ends.
struct TracedResult {
  Metrics metrics;
  Checks checks;
  Fingerprint fingerprint;
};

/// A monitor's beacon store and diversity state, copied at the interval
/// tick where its store held the most paths in the traced run.
struct Harvest {
  topo::AsIndex self;
  util::TimePoint at;
  ctrl::BeaconStore store;
  std::optional<ctrl::DiversityState> diversity;  // diversity algorithm only
};

/// Replays single layer functions on state harvested from the traced
/// run's monitor stores (kernels.cpp): bucket sizes, then ns/call and call
/// count of each kernel. A replay that cannot set up its state as intended
/// fails `checks`.
Metrics replay_kernels(const topo::Topology& scion_view,
                       const std::vector<Harvest>& harvests,
                       const ctrl::BeaconServerConfig& config, Checks& checks);

TracedResult run_traced(const WorkloadSpec& spec, double untraced_wall_s,
                        std::uint64_t untraced_events,
                        const std::string& spans_out);

}  // namespace perfbench
