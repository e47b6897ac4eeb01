#include <gtest/gtest.h>

#include <algorithm>

#include "core/beacon_store.hpp"
#include "util/rng.hpp"

namespace scion::ctrl {
namespace {

using util::Duration;
using util::TimePoint;

const Duration kLifetime = Duration::hours(6);

/// Builds a stored PCB whose entry chain is synthesized from the link ids
/// (so different link sequences give different path keys).
StoredPcb make_stored(IsdAsId origin, std::vector<topo::LinkIndex> links,
                      TimePoint timestamp) {
  Pcb pcb = Pcb::originate_unsigned(
      origin, static_cast<topo::IfId>(links.front() + 1), timestamp, kLifetime);
  for (std::size_t i = 1; i < links.size(); ++i) {
    pcb = pcb.extend_unsigned(
        IsdAsId::make(9, 100 + links[i - 1]),
        static_cast<topo::IfId>(links[i - 1] + 1),
        static_cast<topo::IfId>(links[i] + 1), {});
  }
  StoredPcb stored;
  stored.pcb = std::make_shared<const Pcb>(std::move(pcb));
  stored.links = std::move(links);
  stored.received_at = timestamp;
  stored.path_key = stored.pcb->path_key();
  return stored;
}

const IsdAsId kOrigin = IsdAsId::make(1, 1);

TEST(BeaconStore, InsertAndQuery) {
  BeaconStore store{10};
  EXPECT_EQ(store.insert(make_stored(kOrigin, {1}, TimePoint::origin())),
            BeaconStore::InsertOutcome::kInserted);
  EXPECT_EQ(store.for_origin(kOrigin).size(), 1u);
  EXPECT_EQ(store.total_stored(), 1u);
  EXPECT_TRUE(store.for_origin(IsdAsId::make(2, 2)).empty());
}

TEST(BeaconStore, RefreshReplacesOlderInstance) {
  BeaconStore store{10};
  store.insert(make_stored(kOrigin, {1, 2}, TimePoint::origin()));
  const TimePoint newer = TimePoint::origin() + Duration::minutes(10);
  EXPECT_EQ(store.insert(make_stored(kOrigin, {1, 2}, newer)),
            BeaconStore::InsertOutcome::kRefreshed);
  ASSERT_EQ(store.for_origin(kOrigin).size(), 1u);
  EXPECT_EQ(store.for_origin(kOrigin)[0].pcb->timestamp(), newer);
}

TEST(BeaconStore, StaleInstanceIgnored) {
  BeaconStore store{10};
  const TimePoint newer = TimePoint::origin() + Duration::minutes(10);
  store.insert(make_stored(kOrigin, {1, 2}, newer));
  EXPECT_EQ(store.insert(make_stored(kOrigin, {1, 2}, TimePoint::origin())),
            BeaconStore::InsertOutcome::kStale);
  EXPECT_EQ(store.for_origin(kOrigin)[0].pcb->timestamp(), newer);
}

TEST(BeaconStore, RespectsPerOriginLimit) {
  BeaconStore store{2};
  store.insert(make_stored(kOrigin, {1}, TimePoint::origin()));
  store.insert(make_stored(kOrigin, {2}, TimePoint::origin()));
  // Worse (longer) candidate is rejected when full.
  EXPECT_EQ(store.insert(make_stored(kOrigin, {3, 4}, TimePoint::origin())),
            BeaconStore::InsertOutcome::kRejected);
  EXPECT_EQ(store.total_stored(), 2u);
}

TEST(BeaconStore, ShortestFreshEvictsLongerPath) {
  BeaconStore store{2, StorePolicy::kShortestFresh};
  store.insert(make_stored(kOrigin, {1, 2, 3}, TimePoint::origin()));
  store.insert(make_stored(kOrigin, {4}, TimePoint::origin()));
  // A 2-hop path beats the 3-hop one.
  EXPECT_EQ(store.insert(make_stored(kOrigin, {5, 6}, TimePoint::origin())),
            BeaconStore::InsertOutcome::kReplaced);
  for (const StoredPcb& s : store.for_origin(kOrigin)) {
    EXPECT_LE(s.links.size(), 2u);
  }
}

TEST(BeaconStore, UnlimitedStorage) {
  BeaconStore store{0};
  for (topo::LinkIndex l = 0; l < 100; ++l) {
    store.insert(make_stored(kOrigin, {l}, TimePoint::origin()));
  }
  EXPECT_EQ(store.total_stored(), 100u);
}

TEST(BeaconStore, DiversityAwareEvictsRedundantPath) {
  BeaconStore store{3, StorePolicy::kDiversityAware};
  // Three paths, two of which share links {1,2}.
  store.insert(make_stored(kOrigin, {1, 2, 3}, TimePoint::origin()));
  store.insert(make_stored(kOrigin, {1, 2, 4}, TimePoint::origin()));
  store.insert(make_stored(kOrigin, {7, 8}, TimePoint::origin()));
  // A fully fresh path should replace one of the overlapping pair, not the
  // disjoint {7,8} one.
  EXPECT_EQ(store.insert(make_stored(kOrigin, {10, 11}, TimePoint::origin())),
            BeaconStore::InsertOutcome::kReplaced);
  bool kept_disjoint = false;
  int overlapping = 0;
  for (const StoredPcb& s : store.for_origin(kOrigin)) {
    if (s.links == std::vector<topo::LinkIndex>{7, 8}) kept_disjoint = true;
    if (s.links.size() == 3) ++overlapping;
  }
  EXPECT_TRUE(kept_disjoint);
  EXPECT_EQ(overlapping, 1);
}

TEST(BeaconStore, DiversityAwareRejectsRedundantCandidate) {
  BeaconStore store{2, StorePolicy::kDiversityAware};
  store.insert(make_stored(kOrigin, {1, 2}, TimePoint::origin()));
  store.insert(make_stored(kOrigin, {3, 4}, TimePoint::origin()));
  // Candidate overlapping both stored paths is worse than either.
  EXPECT_EQ(store.insert(make_stored(kOrigin, {1, 3}, TimePoint::origin())),
            BeaconStore::InsertOutcome::kRejected);
}

TEST(BeaconStore, ExpireDropsOnlyExpired) {
  BeaconStore store{10};
  store.insert(make_stored(kOrigin, {1}, TimePoint::origin()));
  store.insert(
      make_stored(kOrigin, {2}, TimePoint::origin() + Duration::hours(3)));
  store.expire(TimePoint::origin() + kLifetime);
  ASSERT_EQ(store.for_origin(kOrigin).size(), 1u);
  EXPECT_EQ(store.for_origin(kOrigin)[0].links, std::vector<topo::LinkIndex>{2});
}

TEST(BeaconStore, OriginsSortedAndLive) {
  BeaconStore store{10};
  const IsdAsId o2 = IsdAsId::make(2, 5);
  store.insert(make_stored(o2, {1}, TimePoint::origin()));
  store.insert(make_stored(kOrigin, {2}, TimePoint::origin()));
  EXPECT_EQ(store.origins(), (std::vector<IsdAsId>{kOrigin, o2}));
  store.expire(TimePoint::origin() + kLifetime);
  EXPECT_TRUE(store.origins().empty());
}

TEST(BeaconStore, SeparateBucketsPerOrigin) {
  BeaconStore store{1};
  const IsdAsId o2 = IsdAsId::make(2, 5);
  EXPECT_EQ(store.insert(make_stored(kOrigin, {1}, TimePoint::origin())),
            BeaconStore::InsertOutcome::kInserted);
  EXPECT_EQ(store.insert(make_stored(o2, {2}, TimePoint::origin())),
            BeaconStore::InsertOutcome::kInserted);
  EXPECT_EQ(store.total_stored(), 2u);
}

// --- kDiversityAware victim selection against a reference --------------------

/// The kDiversityAware victim pick as first written: link coverage tallied
/// in a list of (link, count) pairs searched linearly. Kept verbatim as the
/// reference the store's dense-table version must match exactly.
std::size_t reference_diversity_victim(
    const std::vector<StoredPcb>& bucket,
    std::span<const topo::LinkIndex> candidate_links, bool& candidate_wins) {
  const auto shortest_fresh_better = [](const StoredPcb& x, const StoredPcb& y) {
    if (x.pcb->hops() != y.pcb->hops()) return x.pcb->hops() < y.pcb->hops();
    return x.pcb->expiry() > y.pcb->expiry();
  };
  std::vector<std::pair<topo::LinkIndex, int>> coverage;
  const auto coverage_of = [&coverage](topo::LinkIndex l) {
    for (const auto& [link, n] : coverage) {
      if (link == l) return n;
    }
    return 0;
  };
  for (const StoredPcb& e : bucket) {
    for (topo::LinkIndex l : e.links) {
      bool found = false;
      for (auto& [link, n] : coverage) {
        if (link == l) {
          ++n;
          found = true;
          break;
        }
      }
      if (!found) coverage.emplace_back(l, 1);
    }
  }
  std::size_t worst = 0;
  double worst_red = -1.0;
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    double sum = 0.0;
    for (topo::LinkIndex l : bucket[i].links) {
      sum += static_cast<double>(coverage_of(l) - 1);
    }
    const double red =
        bucket[i].links.empty()
            ? 0.0
            : sum / static_cast<double>(bucket[i].links.size());
    if (red > worst_red ||
        (red == worst_red && shortest_fresh_better(bucket[worst], bucket[i]))) {
      worst_red = red;
      worst = i;
    }
  }
  double cand_red = 0.0;
  if (!candidate_links.empty()) {
    double sum = 0.0;
    for (topo::LinkIndex l : candidate_links) {
      sum += static_cast<double>(coverage_of(l));
    }
    cand_red = sum / static_cast<double>(candidate_links.size());
  }
  candidate_wins = cand_red < worst_red;
  return worst;
}

TEST(BeaconStore, DiversityAwareVictimMatchesReference) {
  // PCBs shared across entries by (hops, timestamp): the pick reads only
  // hops and expiry from the PCB, so a small pool yields frequent ties.
  constexpr std::size_t kMaxHops = 5;
  constexpr int kTimestamps = 3;
  std::vector<PcbRef> pool;
  for (std::size_t hops = 1; hops <= kMaxHops; ++hops) {
    for (int t = 0; t < kTimestamps; ++t) {
      std::vector<topo::LinkIndex> links(hops);
      for (std::size_t h = 0; h < hops; ++h) {
        links[h] = static_cast<topo::LinkIndex>(h);
      }
      pool.push_back(make_stored(kOrigin, links,
                                 TimePoint::origin() + Duration::minutes(10 * t))
                         .pcb);
    }
  }
  const auto pcb_for = [&](std::size_t hops, int t) {
    return pool[(hops - 1) * kTimestamps + static_cast<std::size_t>(t)];
  };

  util::Rng rng{2021};
  BeaconStore store{60, StorePolicy::kDiversityAware};
  std::size_t wins = 0;
  std::size_t nonzero_victims = 0;
  constexpr int kBuckets = 1200;
  for (int round = 0; round < kBuckets; ++round) {
    const std::size_t size = round % 2 == 0 ? 15 : 60;
    // Link universes: dense (heavy overlap), sparse (large, scattered ids),
    // and tied (every entry a copy of one of two paths, so redundancies tie
    // and the shortest-fresh order decides).
    const int mode = (round / 2) % 3;
    const auto draw_link = [&]() -> topo::LinkIndex {
      if (mode == 1) return static_cast<topo::LinkIndex>(rng.index(1'000'000));
      return static_cast<topo::LinkIndex>(rng.index(24));
    };
    std::vector<StoredPcb> bucket;
    std::vector<std::vector<topo::LinkIndex>> templates;
    for (int k = 0; k < 2; ++k) {
      std::vector<topo::LinkIndex> links(1 + rng.index(kMaxHops));
      for (topo::LinkIndex& l : links) l = draw_link();
      templates.push_back(std::move(links));
    }
    topo::LinkIndex max_stored = 0;
    for (std::size_t i = 0; i < size; ++i) {
      StoredPcb e;
      if (mode == 2) {
        e.links = templates[rng.index(2)];
      } else {
        e.links.resize(1 + rng.index(kMaxHops));
        for (topo::LinkIndex& l : e.links) l = draw_link();
      }
      e.pcb = pcb_for(e.links.size(), static_cast<int>(rng.index(kTimestamps)));
      for (topo::LinkIndex l : e.links) max_stored = std::max(max_stored, l);
      bucket.push_back(std::move(e));
    }
    // Candidates: drawn like the stored links, with some links beyond every
    // stored index (they have no coverage at all).
    std::vector<topo::LinkIndex> cand_links(1 + rng.index(kMaxHops));
    for (topo::LinkIndex& l : cand_links) {
      l = rng.bernoulli(0.3)
              ? max_stored + 1 + static_cast<topo::LinkIndex>(rng.index(5000))
              : draw_link();
    }
    const PcbRef cand = pcb_for(cand_links.size(), 0);

    bool want_wins = false;
    const std::size_t want =
        reference_diversity_victim(bucket, cand_links, want_wins);
    bool got_wins = !want_wins;
    const std::size_t got = store.pick_victim(bucket, cand, cand_links, got_wins);
    ASSERT_EQ(got, want) << "round " << round;
    ASSERT_EQ(got_wins, want_wins) << "round " << round;
    wins += got_wins ? 1 : 0;
    nonzero_victims += got != 0 ? 1 : 0;
  }
  // The rounds exercise both outcomes and more than the first slot.
  EXPECT_GT(wins, 0u);
  EXPECT_LT(wins, static_cast<std::size_t>(kBuckets));
  EXPECT_GT(nonzero_victims, 0u);
}

}  // namespace
}  // namespace scion::ctrl
