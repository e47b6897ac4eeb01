#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>

#include "core/scoring.hpp"
#include "util/rng.hpp"

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

// Every table entry, and the first counts past the table, must equal the
// libm logarithm bit for bit: scores may not depend on which side of the
// table a counter falls.
TEST(LinkHistoryTable, LogTableMatchesLibmBitForBit) {
  for (std::int32_t c = 1; c < kLogTableSize + 64; ++c) {
    volatile double x = static_cast<double>(c);  // forces a runtime libm call
    ASSERT_EQ(std::bit_cast<std::uint64_t>(log_count(c)),
              std::bit_cast<std::uint64_t>(std::log(x)))
        << "count " << c;
  }
}

// --- Sent PCBs List ------------------------------------------------------------

// Equal records, doubles compared bit for bit.
void expect_same_record(const SentRecord& got, const SentRecord& want) {
  EXPECT_EQ(got.origin, want.origin);
  EXPECT_EQ(got.neighbor, want.neighbor);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.diversity),
            std::bit_cast<std::uint64_t>(want.diversity));
  EXPECT_EQ(got.instance_timestamp, want.instance_timestamp);
  EXPECT_EQ(got.instance_expiry, want.instance_expiry);
  EXPECT_EQ(got.links, want.links);
}

using SentReference = std::unordered_map<SentKey, SentRecord, SentKeyHash>;

void expect_same_list(const SentPcbsList& list, const SentReference& ref) {
  ASSERT_EQ(list.size(), ref.size());
  EXPECT_EQ(list.empty(), ref.empty());
  for (const auto& [key, record] : ref) {
    const SentRecord* got = list.find(key);
    ASSERT_NE(got, nullptr) << key.path_key << "/" << key.egress;
    expect_same_record(*got, record);
  }
}

SentRecord random_record(util::Rng& rng) {
  SentRecord r;
  r.origin = topo::IsdAsId::make(1, static_cast<std::uint64_t>(rng.uniform_int(1, 9)));
  r.neighbor =
      topo::IsdAsId::make(2, static_cast<std::uint64_t>(rng.uniform_int(1, 9)));
  r.diversity = rng.uniform();
  r.instance_timestamp =
      util::TimePoint::origin() + Duration::seconds(rng.uniform_int(0, 1000));
  r.instance_expiry = r.instance_timestamp + Duration::hours(6);
  const auto n = static_cast<std::size_t>(rng.uniform_int(0, 4));
  for (std::size_t i = 0; i < n; ++i) {
    r.links.push_back(static_cast<topo::LinkIndex>(rng.uniform_int(0, 50)));
  }
  return r;
}

// Seeded insert / refresh / erase / lookup sequences against a
// std::unordered_map reference. The key universe is small enough that keys
// come and go many times, and large enough that the index grows several
// times over.
TEST(SentPcbsList, MatchesUnorderedMapReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    util::Rng rng{seed};
    SentPcbsList list;
    SentReference ref;
    const auto universe = static_cast<std::int64_t>(64u << seed);
    const auto random_key = [&] {
      // Path keys spread like hash values; few egress links, as in a server.
      const auto i = static_cast<std::uint64_t>(rng.uniform_int(0, universe));
      return SentKey{(i >> 2) * 0x9E3779B97F4A7C15ULL,
                     static_cast<topo::LinkIndex>(i & 3)};
    };
    for (int op = 0; op < 20000; ++op) {
      const SentKey key = random_key();
      const double dice = rng.uniform();
      // Inserts outnumber erases early on, so the list grows, then shrinks.
      const double insert_share = op < 10000 ? 0.7 : 0.3;
      if (dice < insert_share) {
        const auto [record, inserted] = list.try_emplace(key);
        const auto [it, ref_inserted] = ref.try_emplace(key);
        ASSERT_EQ(inserted, ref_inserted);
        if (inserted) expect_same_record(*record, SentRecord{});
        if (inserted || rng.bernoulli(0.5)) {
          *record = random_record(rng);  // first send or re-send
        } else {
          record->instance_expiry = record->instance_expiry + Duration::minutes(10);
        }
        it->second = *record;
      } else if (dice < insert_share + 0.25) {
        ASSERT_EQ(list.erase(key), ref.erase(key) == 1);
      } else {
        const SentRecord* got = list.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got != nullptr, it != ref.end());
        EXPECT_EQ(list.count(key), ref.count(key));
        if (got != nullptr) expect_same_record(*got, it->second);
      }
      ASSERT_EQ(list.size(), ref.size());
      if (op % 997 == 0) expect_same_list(list, ref);
    }
    expect_same_list(list, ref);
    // Drain it completely, then refill: ids come back off the free list.
    std::vector<SentKey> keys;
    for (const auto& [key, record] : ref) keys.push_back(key);
    for (const SentKey& key : keys) ASSERT_TRUE(list.erase(key));
    EXPECT_TRUE(list.empty());
    EXPECT_FALSE(list.erase(keys.front()));
    for (const SentKey& key : keys) ASSERT_TRUE(list.try_emplace(key).second);
    EXPECT_EQ(list.size(), keys.size());
  }
}

// Probe runs that wrap from the last index slot to the first: erasing any
// member must keep every other member reachable (backward-shift erase).
TEST(SentPcbsList, EraseAcrossTheWrapAround) {
  // A fresh list indexes up to 8 records in 16 slots; find keys whose home
  // (the top hash bits, as SentPcbsList uses them) is one of the last two.
  std::vector<SentKey> tail;
  for (std::uint64_t k = 1; tail.size() < 6; ++k) {
    const SentKey key{k, 7};
    if (((SentKeyHash{}(key) >> 32) & 15) >= 14) tail.push_back(key);
  }
  for (std::size_t victim = 0; victim < tail.size(); ++victim) {
    SentPcbsList list;
    for (const SentKey& key : tail) {
      list.try_emplace(key).first->diversity = static_cast<double>(key.path_key);
    }
    ASSERT_TRUE(list.erase(tail[victim]));
    EXPECT_EQ(list.find(tail[victim]), nullptr);
    for (std::size_t i = 0; i < tail.size(); ++i) {
      if (i == victim) continue;
      const SentRecord* r = list.find(tail[i]);
      ASSERT_NE(r, nullptr) << "lost key " << i << " erasing " << victim;
      EXPECT_EQ(r->diversity, static_cast<double>(tail[i].path_key));
    }
    EXPECT_EQ(list.size(), tail.size() - 1);
  }
}

TEST(SentPcbsList, AtThrowsForMissingKeys) {
  SentPcbsList list;
  EXPECT_THROW(list.at(SentKey{1, 2}), std::out_of_range);
  list.try_emplace(SentKey{1, 2}).first->diversity = 0.25;
  EXPECT_EQ(list.at(SentKey{1, 2}).diversity, 0.25);
  EXPECT_THROW(list.at(SentKey{1, 3}), std::out_of_range);
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
