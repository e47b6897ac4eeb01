// Allocation budgets for the simulation loops.
//
// Each gate runs a small fixed-seed micro-run of one simulation pipeline
// (tests/micro_runs.hpp), measures operator-new calls with the counting
// allocator (obs/alloc_track.hpp), and divides by the run's event count
// (PCBs received, BGP updates sent, ...). Allocation counts — unlike wall
// times — are deterministic for a fixed seed, so the budgets below gate
// hard: a change that adds one allocation per event to a simulation loop
// fails here with the exact per-event figure in the message.
//
// Each budget is the measured value + 0.5, taking the highest of the
// release and asan-ubsan builds and of a gate run alone or after the
// others. If a legitimate change raises a count, re-measure (the failure
// message prints the observed allocs/event, and every gate records it as
// the `allocs_per_event` property in --gtest_output=xml) and justify the
// new budget in the commit; see DESIGN.md "Allocation-budget recipe".
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "micro_runs.hpp"
#include "obs/alloc_track.hpp"
#include "obs/event_profile.hpp"

namespace scion {
namespace {

using micro::count_allocs;

// --- Budgets (allocs per event) --------------------------------------------------
//
// Measured at the fixed seeds in micro_runs.hpp; release and asan-ubsan
// agree exactly. A gate run alone (as ctest runs it, one process per test)
// also counts the first-use growth of the global metric and label tables,
// which earlier gates have already paid for in a whole-binary run, so each
// figure below is "alone / after the others".

// Beaconing: per PCB received at a beacon server (receive -> verify ->
// resolve -> score -> store admission). Measured 3.910 / 3.910.
constexpr double kBeaconingBudget = 4.41;
// Diversity beaconing: the same, plus Algorithm 1's selection, Sent PCBs
// List and expiry sweep each interval. Measured 5.690 / 5.582. A map node
// and a link vector per sent record measured 6.353 / 6.246, but the link
// vector alone only 6.088 (run alone), inside this budget; so
// DiversityExpiry.SendsIntoFreedSlotsAllocateNothing gates sent records
// exactly.
constexpr double kDiversityBeaconingBudget = 6.19;
// Control plane: per control-plane event (PCBs received by core+intra
// servers plus endpoint lookups; lookup-side path assembly dominates).
// Measured 141.121 / 141.064.
constexpr double kControlPlaneBudget = 141.62;
// BGP: per update sent (handle_update -> reevaluate -> flush -> deliver).
// Measured 6.627 / 6.378.
constexpr double kBgpBudget = 7.13;
// BGP under sustained churn with flap damping + graceful restart enabled:
// the survival bookkeeping (lazy penalty decay, reuse timers, stale
// marking/sweeps) must stay O(1) amortized per UPDATE — damping state nodes
// appear once per flapped adjacency and reuse/GR timers once per episode,
// not per update. Measured 4.266 / 4.179. The budget predates sending
// every queued withdrawal (then 4.201 / 4.115) and is kept, not loosened.
constexpr double kChurnBgpBudget = 4.71;

void expect_within_budget(std::string_view phase, const micro::MicroRun& run,
                          double budget) {
  ASSERT_GT(run.events, 0u);
  const auto r = obs::check_alloc_budget(phase, run.allocs, run.events, budget);
  ::testing::Test::RecordProperty("allocs_per_event",
                                  std::to_string(r.per_event));
  EXPECT_TRUE(r.ok) << r.message;
}

// --- Gates -----------------------------------------------------------------------

TEST(AllocBudget, CountingAllocatorSeesThisThreadsAllocations) {
  const auto [allocs, bytes] = count_allocs([] {
    auto block = std::make_unique<char[]>(4096);
    // Defeat any heroic dead-allocation elimination.
    block[0] = 1;
    ASSERT_EQ(block[0], 1);
  });
  EXPECT_GE(allocs, 1u);
  EXPECT_GE(bytes, 4096u);
}

TEST(AllocBudget, BeaconingStaysWithinBudget) {
  expect_within_budget("beaconing", micro::beaconing(), kBeaconingBudget);
}

TEST(AllocBudget, DiversityBeaconingStaysWithinBudget) {
  expect_within_budget("beaconing-diversity", micro::beaconing_diversity(),
                       kDiversityBeaconingBudget);
}

TEST(AllocBudget, ControlPlaneStaysWithinBudget) {
  expect_within_budget("control-plane", micro::control_plane(),
                       kControlPlaneBudget);
}

TEST(AllocBudget, BgpStaysWithinBudget) {
  expect_within_budget("bgp", micro::bgp(), kBgpBudget);
}

TEST(AllocBudget, ChurnSurvivalMechanismsStayWithinBudget) {
  const micro::MicroRun run = micro::churn_survival();
  // The gate is about the mechanisms, so they must actually have engaged.
  EXPECT_GT(run.routes_suppressed, 0u);
  EXPECT_GT(run.stale_retained, 0u);
  expect_within_budget("bgp-churn-survival", run, kChurnBgpBudget);
}

// --- Failure-message contract ----------------------------------------------------

// A deliberately-exceeded budget must name the phase and the per-event
// count — that message is all a CI log shows, so its contents are part of
// the gate's contract.
TEST(AllocBudget, ExceededBudgetNamesPhaseAndPerEventCount) {
  const auto r = obs::check_alloc_budget("beaconing", 1000, 100, 2.0);
  ASSERT_FALSE(r.ok);
  EXPECT_DOUBLE_EQ(r.per_event, 10.0);
  EXPECT_NE(r.message.find("beaconing"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("10.000 allocs/event"), std::string::npos)
      << r.message;
  EXPECT_NE(r.message.find("budget 2.000"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("1000 allocs"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("100 events"), std::string::npos) << r.message;
}

// A breach must also point at its handler: the message names the top-3
// allocating event labels (from the event profiler) in allocs-descending
// order, so a CI log alone is enough to locate the offending event kind.
TEST(AllocBudget, ExceededBudgetNamesTopAllocatingEventLabels) {
  auto& profiler = obs::EventProfiler::global();
  profiler.reset_counters();
  const obs::EventLabel heavy = profiler.intern("test.budget_heavy");
  const obs::EventLabel mid = profiler.intern("test.budget_mid");
  const obs::EventLabel light = profiler.intern("test.budget_light");
  const obs::EventLabel spare = profiler.intern("test.budget_spare");
  std::vector<obs::LabelStats> stats(profiler.label_count());
  stats[heavy.id()] = obs::LabelStats{10, 500, 8000, 0};
  stats[mid.id()] = obs::LabelStats{10, 200, 3200, 0};
  stats[light.id()] = obs::LabelStats{10, 100, 1600, 0};
  stats[spare.id()] = obs::LabelStats{10, 7, 112, 0};
  profiler.merge(stats, {});

  const auto r = obs::check_alloc_budget("label-contract", 1000, 100, 2.0);
  profiler.reset_counters();
  ASSERT_FALSE(r.ok);
  const std::string& msg = r.message;
  ASSERT_NE(msg.find("top allocating event labels:"), std::string::npos)
      << msg;
  const auto heavy_at = msg.find("test.budget_heavy (500 allocs)");
  const auto mid_at = msg.find("test.budget_mid (200 allocs)");
  const auto light_at = msg.find("test.budget_light (100 allocs)");
  ASSERT_NE(heavy_at, std::string::npos) << msg;
  ASSERT_NE(mid_at, std::string::npos) << msg;
  ASSERT_NE(light_at, std::string::npos) << msg;
  EXPECT_LT(heavy_at, mid_at) << msg;
  EXPECT_LT(mid_at, light_at) << msg;
  // Top-3 means the fourth-heaviest label stays out of the message.
  EXPECT_EQ(msg.find("test.budget_spare"), std::string::npos) << msg;
}

// The labels a breach names come from the run being gated, never from an
// earlier one: count_allocs resets the profiler, so a BGP breach after a
// control-plane run must not blame control-plane or beaconing labels.
TEST(AllocBudget, BreachNamesOnlyTheGatedRunsLabels) {
  ASSERT_GT(micro::control_plane().events, 0u);
  const micro::MicroRun run = micro::bgp();
  const auto r = obs::check_alloc_budget("bgp", run.allocs, run.events, 0.0);
  ASSERT_FALSE(r.ok);
  const std::string& msg = r.message;
  ASSERT_NE(msg.find("top allocating event labels:"), std::string::npos)
      << msg;
  EXPECT_EQ(msg.find("path.lookup"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("beacon."), std::string::npos) << msg;
}

TEST(AllocBudget, RealRunExceedsZeroBudget) {
  // An impossible budget of 0 allocs/event must trip on any real run,
  // proving the gate is live (not vacuously green).
  const auto [allocs, bytes] = count_allocs([] {
    auto v = std::make_unique<int>(7);
    ASSERT_EQ(*v, 7);
  });
  const auto r = obs::check_alloc_budget("deliberate-exceed", allocs, 1, 0.0);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.message.find("deliberate-exceed"), std::string::npos)
      << r.message;
}

TEST(AllocBudget, ZeroEventsGatesAbsoluteAllocs) {
  EXPECT_TRUE(obs::check_alloc_budget("idle", 0, 0, 0.0).ok);
  EXPECT_FALSE(obs::check_alloc_budget("idle", 3, 0, 0.0).ok);
}

}  // namespace
}  // namespace scion
