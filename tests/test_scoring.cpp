#include <gtest/gtest.h>

#include <array>

#include "core/scoring.hpp"

namespace scion::ctrl {
namespace {

using util::Duration;

const DiversityParams kParams{};  // defaults

std::vector<topo::LinkIndex> links(std::initializer_list<topo::LinkIndex> l) {
  return l;
}

TEST(LinkHistoryTable, CountersTrackPaths) {
  LinkHistoryTable table;
  table.add_path(links({1, 2, 3}));
  table.add_path(links({2, 3, 4}));
  EXPECT_EQ(table.counter(1), 1);
  EXPECT_EQ(table.counter(2), 2);
  EXPECT_EQ(table.counter(9), 0);
  EXPECT_EQ(table.distinct_links(), 4u);
}

TEST(LinkHistoryTable, RemoveDecrementsAndClamps) {
  LinkHistoryTable table;
  table.add_path(links({1, 2}));
  table.add_path(links({2}));
  table.remove_path(links({1, 2}));
  EXPECT_EQ(table.counter(1), 0);
  EXPECT_EQ(table.counter(2), 1);
  table.remove_path(links({1}));  // already zero: no underflow
  EXPECT_EQ(table.counter(1), 0);
  EXPECT_EQ(table.distinct_links(), 1u);
}

TEST(LinkHistoryTable, GeometricMeanZeroWithAnyNewLink) {
  LinkHistoryTable table;
  table.add_path(links({1, 2}));
  EXPECT_DOUBLE_EQ(table.geometric_mean(links({1, 2, 3})), 0.0)
      << "a path with one never-used link counts as fully fresh";
  EXPECT_DOUBLE_EQ(table.geometric_mean(links({1, 2})), 1.0);
}

TEST(LinkHistoryTable, GeometricMeanOfMixedCounters) {
  LinkHistoryTable table;
  for (int i = 0; i < 4; ++i) table.add_path(links({1}));
  table.add_path(links({2}));
  // counters: 1 -> 4, 2 -> 1; gm = sqrt(4 * 1) = 2
  EXPECT_DOUBLE_EQ(table.geometric_mean(links({1, 2})), 2.0);
}

TEST(LinkHistoryTable, ZeroedLinkCountsAgainWhenReused) {
  LinkHistoryTable table;
  table.add_path(links({4, 5}));
  table.remove_path(links({4}));
  EXPECT_EQ(table.counter(4), 0);
  EXPECT_EQ(table.distinct_links(), 1u) << "only nonzero counters count";
  EXPECT_DOUBLE_EQ(table.geometric_mean(links({4, 5})), 0.0);
  table.add_path(links({4}));
  EXPECT_EQ(table.counter(4), 1);
  EXPECT_EQ(table.distinct_links(), 2u);
}

TEST(LinkHistoryTable, ManySparseLinksSurviveGrowth) {
  LinkHistoryTable table;
  std::vector<topo::LinkIndex> all;
  for (topo::LinkIndex i = 0; i < 1000; ++i) {
    // Sparse ids, several colliding in their low bits.
    all.push_back(i * 4096 + (i % 7));
  }
  table.add_path(all);
  table.add_path(std::span<const topo::LinkIndex>(all).first(300));
  EXPECT_EQ(table.distinct_links(), 1000u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(table.counter(all[i]), i < 300 ? 2 : 1) << "link " << all[i];
  }
  EXPECT_EQ(table.counter(3), 0);
  EXPECT_EQ(table.counter(4096 * 2000), 0);
  table.remove_path(all);
  EXPECT_EQ(table.distinct_links(), 300u);
  EXPECT_EQ(table.counter(all[299]), 1);
  EXPECT_EQ(table.counter(all[300]), 0);
}

TEST(DiversityScore, FullyFreshPathScoresOne) {
  LinkHistoryTable table;
  EXPECT_DOUBLE_EQ(diversity_score(table, links({5, 6}), kParams), 1.0);
}

TEST(DiversityScore, SaturatesAtZero) {
  LinkHistoryTable table;
  for (int i = 0; i < 10; ++i) table.add_path(links({1}));  // counter 10 > gm_max 5
  EXPECT_DOUBLE_EQ(diversity_score(table, links({1}), kParams), 0.0);
}

TEST(DiversityScore, DecreasesWithReuse) {
  LinkHistoryTable table;
  table.add_path(links({1, 2}));
  const double once = diversity_score(table, links({1, 2}), kParams);
  table.add_path(links({1, 2}));
  const double twice = diversity_score(table, links({1, 2}), kParams);
  EXPECT_GT(once, twice);
  EXPECT_GT(once, 0.0);
  EXPECT_LT(once, 1.0);
}

// --- Eq. 2 (not previously sent) ----------------------------------------------

TEST(ScoreFresh, BrandNewPcbScoresDiversityIndependent) {
  // age 0 => exponent 0 => score 1 for any positive diversity.
  EXPECT_DOUBLE_EQ(score_fresh(0.3, Duration::zero(), Duration::hours(6), kParams), 1.0);
  EXPECT_DOUBLE_EQ(score_fresh(1.0, Duration::zero(), Duration::hours(6), kParams), 1.0);
}

TEST(ScoreFresh, ZeroDiversityNeverSends) {
  EXPECT_DOUBLE_EQ(score_fresh(0.0, Duration::zero(), Duration::hours(6), kParams), 0.0);
  EXPECT_DOUBLE_EQ(
      score_fresh(0.0, Duration::hours(1), Duration::hours(6), kParams), 0.0);
}

TEST(ScoreFresh, DecaysWithAge) {
  const Duration lifetime = Duration::hours(6);
  const double young =
      score_fresh(0.5, Duration::minutes(10), lifetime, kParams);
  const double old = score_fresh(0.5, Duration::hours(3), lifetime, kParams);
  EXPECT_GT(young, old);
  EXPECT_GT(old, 0.0);
}

TEST(ScoreFresh, FullyDisjointImmuneToAge) {
  const Duration lifetime = Duration::hours(6);
  EXPECT_DOUBLE_EQ(score_fresh(1.0, Duration::hours(5), lifetime, kParams), 1.0);
}

TEST(ScoreFresh, HigherDiversityScoresHigher) {
  const Duration lifetime = Duration::hours(6);
  const Duration age = Duration::hours(1);
  EXPECT_GT(score_fresh(0.9, age, lifetime, kParams),
            score_fresh(0.4, age, lifetime, kParams));
}

// --- Eq. 3 (previously sent) -----------------------------------------------------

TEST(ScorePreviouslySent, FreshlySentIsSuppressed) {
  // Both instances fresh: ratio ~1 -> exponent beta^gamma = 9 with defaults;
  // even a diversity of 0.8 drops well below the 0.5 threshold.
  const double score = score_previously_sent(0.8, Duration::hours(6),
                                             Duration::hours(6), kParams);
  EXPECT_LT(score, kParams.score_threshold);
}

TEST(ScorePreviouslySent, RecoversAsSentInstanceExpires) {
  const Duration current = Duration::hours(6);
  const double near_expiry =
      score_previously_sent(0.8, Duration::minutes(10), current, kParams);
  const double half_life =
      score_previously_sent(0.8, Duration::hours(3), current, kParams);
  EXPECT_GT(near_expiry, half_life);
  EXPECT_GT(near_expiry, kParams.score_threshold)
      << "connectivity preservation: resend before the old instance dies";
}

TEST(ScorePreviouslySent, MonotoneInRemainingRatio) {
  const Duration current = Duration::hours(6);
  double prev = 2.0;
  for (int h = 0; h <= 6; ++h) {
    const double s =
        score_previously_sent(0.8, Duration::hours(h), current, kParams);
    EXPECT_LT(s, prev);
    prev = s;
  }
}

TEST(ScorePreviouslySent, ZeroStoredDiversityNeverResends) {
  EXPECT_DOUBLE_EQ(score_previously_sent(0.0, Duration::zero(),
                                         Duration::hours(6), kParams),
                   0.0);
}

TEST(ScorePreviouslySent, OlderCurrentInstanceSuppressedHarder) {
  // If the candidate instance expires sooner than what we already sent,
  // the ratio exceeds 1 and the score collapses.
  const double score = score_previously_sent(0.8, Duration::hours(6),
                                             Duration::hours(1), kParams);
  EXPECT_LT(score, 0.01);
}

// --- Objective interplay (the three goals of Section 4.2) -----------------------

TEST(Scoring, NewPathBeatsFreshlySentPath) {
  // "Discover new paths": a not-previously-sent fully disjoint path at any
  // age scores 1, above any freshly re-sent path's score.
  const double new_path =
      score_fresh(1.0, Duration::hours(2), Duration::hours(6), kParams);
  const double sent_path = score_previously_sent(
      0.8, Duration::hours(5), Duration::hours(6), kParams);
  EXPECT_GT(new_path, sent_path);
}

TEST(Scoring, ExpiringSentPathBeatsRedundantNewPath) {
  // "Preserve connectivity": about-to-expire sent path recovers to ~1,
  // beating a heavily overlapping fresh path.
  const double expiring = score_previously_sent(
      0.8, Duration::minutes(5), Duration::hours(6), kParams);
  const double redundant =
      score_fresh(0.2, Duration::hours(1), Duration::hours(6), kParams);
  EXPECT_GT(expiring, redundant);
}

// Parameterized sweep: score_fresh stays within [0, 1] and is monotone in
// diversity across the parameter grid used by the grid search.
class ScoreGrid : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(ScoreGrid, ScoresBoundedAndMonotone) {
  const auto [alpha, beta, gamma] = GetParam();
  DiversityParams p;
  p.alpha = alpha;
  p.beta = beta;
  p.gamma = gamma;
  const Duration lifetime = Duration::hours(6);
  double prev_fresh = -1.0;
  for (double d = 0.0; d <= 1.0; d += 0.25) {
    const double s = score_fresh(d, Duration::hours(1), lifetime, p);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
    EXPECT_GE(s, prev_fresh) << "monotone in diversity";
    prev_fresh = s;
    const double s2 =
        score_previously_sent(d, Duration::hours(3), lifetime, p);
    EXPECT_GE(s2, 0.0);
    EXPECT_LE(s2, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParamGrid, ScoreGrid,
    ::testing::Combine(::testing::Values(0.5, 2.0, 8.0),
                       ::testing::Values(1.0, 3.0, 6.0),
                       ::testing::Values(1.0, 2.0, 4.0)));

}  // namespace
}  // namespace scion::ctrl
