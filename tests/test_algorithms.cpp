#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "core/algorithms.hpp"
#include "obs/alloc_track.hpp"
#include "util/rng.hpp"

namespace scion::ctrl {
namespace {

using util::Duration;
using util::TimePoint;

const Duration kLifetime = Duration::hours(6);
const IsdAsId kOrigin = IsdAsId::make(1, 1);
const IsdAsId kNeighbor = IsdAsId::make(1, 99);

StoredPcb make_stored(std::vector<topo::LinkIndex> links, TimePoint timestamp,
                      IsdAsId origin = kOrigin) {
  Pcb pcb = Pcb::originate_unsigned(
      origin, static_cast<topo::IfId>(links.front() + 1), timestamp, kLifetime);
  for (std::size_t i = 1; i < links.size(); ++i) {
    pcb = pcb.extend_unsigned(IsdAsId::make(9, 100 + links[i - 1]),
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

StoredPcb make_stored_through(IsdAsId via, std::vector<topo::LinkIndex> links,
                              TimePoint timestamp) {
  Pcb pcb = Pcb::originate_unsigned(
      kOrigin, static_cast<topo::IfId>(links.front() + 1), timestamp, kLifetime);
  for (std::size_t i = 1; i < links.size(); ++i) {
    pcb = pcb.extend_unsigned(via, static_cast<topo::IfId>(links[i - 1] + 1),
                              static_cast<topo::IfId>(links[i] + 1), {});
  }
  StoredPcb stored;
  stored.pcb = std::make_shared<const Pcb>(std::move(pcb));
  stored.links = std::move(links);
  stored.received_at = timestamp;
  stored.path_key = stored.pcb->path_key();
  return stored;
}

// --- Baseline -------------------------------------------------------------------

TEST(BaselineSelect, ShortestFirstUpToLimit) {
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1, 2, 3}, TimePoint::origin()));
  bucket.push_back(make_stored({4}, TimePoint::origin()));
  bucket.push_back(make_stored({5, 6}, TimePoint::origin()));
  const auto selected =
      baseline_select(bucket, kNeighbor, 77, 2, TimePoint::origin());
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0].stored->links.size(), 1u);
  EXPECT_EQ(selected[1].stored->links.size(), 2u);
  EXPECT_EQ(selected[0].egress, 77u);
}

TEST(BaselineSelect, FresherInstanceBreaksTies) {
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1}, TimePoint::origin()));
  bucket.push_back(
      make_stored({2}, TimePoint::origin() + Duration::minutes(10)));
  const auto selected = baseline_select(bucket, kNeighbor, 7, 1,
                                        TimePoint::origin() + Duration::minutes(10));
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0].stored->links, std::vector<topo::LinkIndex>{2});
}

TEST(BaselineSelect, SkipsExpiredAndLooping) {
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1}, TimePoint::origin()));
  bucket.push_back(make_stored_through(kNeighbor, {2, 3}, TimePoint::origin()));
  const TimePoint later = TimePoint::origin() + kLifetime + Duration::seconds(1);
  // First PCB expired by `later`; second contains the neighbor.
  bucket[0] = make_stored({1}, TimePoint::origin());
  const auto selected = baseline_select(bucket, kNeighbor, 7, 5, later);
  EXPECT_TRUE(selected.empty());
}

TEST(BaselineSelect, ResendsEveryCall) {
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1}, TimePoint::origin()));
  const auto first = baseline_select(bucket, kNeighbor, 7, 5, TimePoint::origin());
  const auto second = baseline_select(bucket, kNeighbor, 7, 5, TimePoint::origin());
  EXPECT_EQ(first.size(), 1u);
  EXPECT_EQ(second.size(), 1u) << "baseline has no memory of prior sends";
}

// --- Diversity (Algorithm 1) ------------------------------------------------------

TEST(DiversitySelect, RespectsDisseminationLimit) {
  DiversityState state{DiversityParams{}};
  std::vector<StoredPcb> bucket;
  for (topo::LinkIndex l = 0; l < 10; ++l) {
    bucket.push_back(make_stored({l}, TimePoint::origin()));
  }
  const std::vector<topo::LinkIndex> egress{100, 101};
  const auto selected = state.select_and_commit(bucket, kOrigin, kNeighbor,
                                                egress, 5, TimePoint::origin());
  EXPECT_EQ(selected.size(), 5u);
}

TEST(DiversitySelect, PrefersDisjointPaths) {
  DiversityState state{DiversityParams{}};
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1, 2}, TimePoint::origin()));
  bucket.push_back(make_stored({1, 3}, TimePoint::origin()));
  bucket.push_back(make_stored({4, 5}, TimePoint::origin()));
  const std::vector<topo::LinkIndex> egress{100};
  const auto selected = state.select_and_commit(bucket, kOrigin, kNeighbor,
                                                egress, 2, TimePoint::origin());
  ASSERT_EQ(selected.size(), 2u);
  // Whatever is picked first, the second pick must not overlap it on
  // non-egress links (both fully disjoint options exist).
  const auto& first = selected[0].stored->links;
  const auto& second = selected[1].stored->links;
  for (topo::LinkIndex l : first) {
    EXPECT_EQ(std::count(second.begin(), second.end(), l), 0)
        << "greedy pick must prefer the disjoint alternative";
  }
}

TEST(DiversitySelect, NoDuplicateSelectionWithinInterval) {
  DiversityState state{DiversityParams{}};
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1}, TimePoint::origin()));
  const std::vector<topo::LinkIndex> egress{100, 101};
  const auto selected = state.select_and_commit(bucket, kOrigin, kNeighbor,
                                                egress, 5, TimePoint::origin());
  // One stored path x two egress links = at most 2 distinct combinations.
  EXPECT_LE(selected.size(), 2u);
  std::set<std::pair<std::uint64_t, topo::LinkIndex>> seen;
  for (const Candidate& c : selected) {
    EXPECT_TRUE(seen.insert({c.stored->path_key, c.egress}).second);
  }
}

TEST(DiversitySelect, SuppressesResendNextInterval) {
  DiversityState state{DiversityParams{}};
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1, 2}, TimePoint::origin()));
  const std::vector<topo::LinkIndex> egress{100};
  const auto first = state.select_and_commit(bucket, kOrigin, kNeighbor,
                                             egress, 5, TimePoint::origin());
  EXPECT_EQ(first.size(), 1u);

  // Next interval: a fresh instance of the same path arrives.
  const TimePoint next = TimePoint::origin() + Duration::minutes(10);
  bucket[0] = make_stored({1, 2}, next);
  const auto second =
      state.select_and_commit(bucket, kOrigin, kNeighbor, egress, 5, next);
  EXPECT_TRUE(second.empty()) << "freshly sent path must be suppressed";
  EXPECT_GT(state.suppressed(), 0u);
}

TEST(DiversitySelect, ResendsWhenSentInstanceNearsExpiry) {
  DiversityState state{DiversityParams{}};
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1, 2}, TimePoint::origin()));
  const std::vector<topo::LinkIndex> egress{100};
  state.select_and_commit(bucket, kOrigin, kNeighbor, egress, 5,
                          TimePoint::origin());

  // 5.5 hours later the sent instance is close to its 6-hour expiry; a
  // fresh instance of the same path must be re-disseminated.
  const TimePoint later = TimePoint::origin() + Duration::minutes(330);
  bucket[0] = make_stored({1, 2}, later);
  const auto again =
      state.select_and_commit(bucket, kOrigin, kNeighbor, egress, 5, later);
  EXPECT_EQ(again.size(), 1u)
      << "connectivity preservation: resend before expiry";
}

TEST(DiversitySelect, ExpiredSentRecordsRollBackCountersWhenConfigured) {
  DiversityParams params;
  params.decrement_on_expiry = true;  // the ablation variant
  DiversityState state{params};
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1, 2}, TimePoint::origin()));
  const std::vector<topo::LinkIndex> egress{100};
  state.select_and_commit(bucket, kOrigin, kNeighbor, egress, 5,
                          TimePoint::origin());
  EXPECT_EQ(state.history(kOrigin, kNeighbor).counter(1), 1);

  state.expire(TimePoint::origin() + kLifetime + Duration::seconds(1));
  EXPECT_EQ(state.history(kOrigin, kNeighbor).counter(1), 0);
  EXPECT_TRUE(state.sent().empty());
}

TEST(DiversitySelect, CumulativeCountersSurviveExpiryByDefault) {
  DiversityState state{DiversityParams{}};
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1, 2}, TimePoint::origin()));
  const std::vector<topo::LinkIndex> egress{100};
  state.select_and_commit(bucket, kOrigin, kNeighbor, egress, 5,
                          TimePoint::origin());
  state.expire(TimePoint::origin() + kLifetime + Duration::seconds(1));
  EXPECT_EQ(state.history(kOrigin, kNeighbor).counter(1), 1)
      << "default Link History counters are cumulative";
  EXPECT_TRUE(state.sent().empty());
}

TEST(DiversitySelect, RefreshKeepsOriginalDiversityScore) {
  DiversityState state{DiversityParams{}};
  const SentKey key{99, 5};
  const std::vector<topo::LinkIndex> links{1, 5};
  state.commit_send(key, kOrigin, kNeighbor, links, TimePoint::origin(),
                    TimePoint::origin() + kLifetime, TimePoint::origin());
  const double original = state.sent().at(key).diversity;
  EXPECT_GT(original, 0.0);

  // Other sends crowd the same links; a later refresh of the original path
  // must keep its original score (only timers update).
  const SentKey other{42, 5};
  state.commit_send(other, kOrigin, kNeighbor, links, TimePoint::origin(),
                    TimePoint::origin() + kLifetime, TimePoint::origin());
  const TimePoint later = TimePoint::origin() + Duration::hours(4);
  state.commit_send(key, kOrigin, kNeighbor, links, later, later + kLifetime,
                    later);
  EXPECT_DOUBLE_EQ(state.sent().at(key).diversity, original);
  EXPECT_EQ(state.sent().at(key).instance_timestamp, later);
}

TEST(DiversitySelect, LoopPreventionSkipsNeighborPaths) {
  DiversityState state{DiversityParams{}};
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored_through(kNeighbor, {1, 2}, TimePoint::origin()));
  const std::vector<topo::LinkIndex> egress{100};
  const auto selected = state.select_and_commit(bucket, kOrigin, kNeighbor,
                                                egress, 5, TimePoint::origin());
  EXPECT_TRUE(selected.empty());
}

TEST(DiversitySelect, ThresholdStopsSelectionEarly) {
  DiversityParams params;
  params.max_geometric_mean = 1.0;  // any reuse saturates
  DiversityState state{params};
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1, 2}, TimePoint::origin()));
  bucket.push_back(make_stored({1, 3}, TimePoint::origin()));
  const std::vector<topo::LinkIndex> egress{100};
  const auto selected = state.select_and_commit(bucket, kOrigin, kNeighbor,
                                                egress, 5, TimePoint::origin());
  // After the first pick, link 1 and the egress link are saturated; the
  // second path shares link 1 but has fresh link 3 — its geometric mean is
  // 0, so it still scores 1. Then nothing is left above threshold.
  EXPECT_LE(selected.size(), 2u);
  EXPECT_GE(selected.size(), 1u);
}

TEST(DiversitySelect, PerNeighborHistoryIsolated) {
  DiversityState state{DiversityParams{}};
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1, 2}, TimePoint::origin()));
  const std::vector<topo::LinkIndex> egress{100};
  state.select_and_commit(bucket, kOrigin, kNeighbor, egress, 5,
                          TimePoint::origin());
  const IsdAsId other = IsdAsId::make(3, 3);
  const std::vector<topo::LinkIndex> egress2{200};
  const auto selected = state.select_and_commit(bucket, kOrigin, other,
                                                egress2, 5, TimePoint::origin());
  EXPECT_EQ(selected.size(), 1u)
      << "sending to one neighbor must not suppress another";
}

TEST(DiversitySelect, CommitSendIdempotentWhileValid) {
  DiversityState state{DiversityParams{}};
  const SentKey key{1234, 7};
  const std::vector<topo::LinkIndex> links{1, 2, 7};
  state.commit_send(key, kOrigin, kNeighbor, links, TimePoint::origin(),
                    TimePoint::origin() + kLifetime, TimePoint::origin());
  EXPECT_EQ(state.history(kOrigin, kNeighbor).counter(1), 1);
  // Re-sending the same valid path updates timers but not counters.
  state.commit_send(key, kOrigin, kNeighbor, links,
                    TimePoint::origin() + Duration::minutes(10),
                    TimePoint::origin() + Duration::minutes(10) + kLifetime,
                    TimePoint::origin() + Duration::minutes(10));
  EXPECT_EQ(state.history(kOrigin, kNeighbor).counter(1), 1);
}

TEST(DiversitySelect, EvaluationCounterAdvances) {
  DiversityState state{DiversityParams{}};
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1}, TimePoint::origin()));
  const std::vector<topo::LinkIndex> egress{100};
  state.select_and_commit(bucket, kOrigin, kNeighbor, egress, 5,
                          TimePoint::origin());
  EXPECT_GT(state.evaluations(), 0u);
}

// Pins Algorithm 1's multi-pass behaviour, including its processing-cost
// counters, on a scenario that exercises every candidate class: two parallel
// egress links, a previously-sent path (constant, suppressed score), a path
// that falls to the threshold after the first commit, and fresh paths that
// stay above it. The expected values were recorded from the reference
// implementation that re-scores every candidate on every greedy pass.
TEST(DiversitySelect, MultiPassSequenceAndCountersPinned) {
  DiversityState state{DiversityParams{}};
  const TimePoint t0 = TimePoint::origin() + Duration::hours(1);
  const TimePoint now = t0 + Duration::minutes(30);
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1, 2}, t0));     // A: previously sent on 100
  bucket.push_back(make_stored({3, 4}, t0));     // B
  bucket.push_back(make_stored({1, 5}, t0));     // C: falls after A on 101
  bucket.push_back(make_stored({6}, t0 - Duration::minutes(10)));  // D: older
  bucket.push_back(make_stored({7, 8, 9}, t0));  // E
  const std::vector<topo::LinkIndex> egress{100, 101};

  // A was sent on link 100 at t0; link 5 is already counted.
  const std::vector<topo::LinkIndex> sent_links{1, 2, 100};
  state.commit_send(SentKey{bucket[0].path_key, 100}, kOrigin, kNeighbor,
                    sent_links, t0, t0 + kLifetime, t0);
  const std::vector<topo::LinkIndex> counted{5};
  state.history(kOrigin, kNeighbor).add_path(counted);

  const auto selected =
      state.select_and_commit(bucket, kOrigin, kNeighbor, egress, 5, now);
  std::vector<std::pair<std::uint64_t, topo::LinkIndex>> got;
  for (const Candidate& c : selected) got.emplace_back(c.stored->path_key, c.egress);
  const auto key = [&](std::size_t i) { return bucket[i].path_key; };
  const std::vector<std::pair<std::uint64_t, topo::LinkIndex>> want{
      {key(0), 101}, {key(1), 100}, {key(4), 100}, {key(3), 100}};
  EXPECT_EQ(got, want);
  // Five passes over 10, 9, 8, 7 and 6 unchosen combinations; the last pass
  // finds nothing above the threshold and stops short of the limit.
  EXPECT_EQ(state.evaluations(), 40u);
  EXPECT_EQ(state.suppressed(), 20u);
}

// --- Sent PCBs List expiry --------------------------------------------------------

TEST(DiversityExpiry, RefreshedRecordSurvivesItsOldExpiry) {
  DiversityParams params;
  params.decrement_on_expiry = true;
  DiversityState state{params};
  const SentKey key{7, 100};
  const std::vector<topo::LinkIndex> links{1, 2, 100};
  const TimePoint t0 = TimePoint::origin();
  state.commit_send(key, kOrigin, kNeighbor, links, t0, t0 + kLifetime, t0);
  const TimePoint t1 = t0 + Duration::hours(1);
  state.commit_send(key, kOrigin, kNeighbor, links, t1, t1 + kLifetime, t1);

  state.expire(t0 + kLifetime);  // the first instance's expiry
  ASSERT_EQ(state.sent().count(key), 1u) << "refreshed to a later expiry";
  EXPECT_EQ(state.sent().at(key).instance_expiry, t1 + kLifetime);
  EXPECT_EQ(state.history(kOrigin, kNeighbor).counter(1), 1);

  state.expire(t1 + kLifetime - Duration::seconds(1));
  EXPECT_EQ(state.sent().count(key), 1u);
  state.expire(t1 + kLifetime);
  EXPECT_TRUE(state.sent().empty());
  EXPECT_EQ(state.history(kOrigin, kNeighbor).counter(1), 0);
}

TEST(DiversityExpiry, RefreshToEarlierExpiryExpiresAtTheEarlierTime) {
  DiversityState state{DiversityParams{}};
  const SentKey key{7, 100};
  const std::vector<topo::LinkIndex> links{1, 100};
  const TimePoint t0 = TimePoint::origin();
  state.commit_send(key, kOrigin, kNeighbor, links, t0, t0 + kLifetime, t0);
  const TimePoint shorter = t0 + Duration::hours(2);
  state.commit_send(key, kOrigin, kNeighbor, links, t0, shorter, t0);
  state.expire(shorter);
  EXPECT_TRUE(state.sent().empty());
  state.expire(t0 + kLifetime);  // the superseded entry finds nothing
  EXPECT_TRUE(state.sent().empty());
}

TEST(DiversityExpiry, DecrementingCountersDropExactlyAtExpiry) {
  DiversityParams params;
  params.decrement_on_expiry = true;
  DiversityState state{params};
  const TimePoint t0 = TimePoint::origin();
  const TimePoint t1 = t0 + Duration::minutes(10);
  const std::vector<topo::LinkIndex> first{1, 2, 100};
  const std::vector<topo::LinkIndex> second{2, 3, 100};
  state.commit_send(SentKey{1, 100}, kOrigin, kNeighbor, first, t0,
                    t0 + kLifetime, t0);
  state.commit_send(SentKey{2, 100}, kOrigin, kNeighbor, second, t1,
                    t1 + kLifetime, t1);
  const LinkHistoryTable& table = state.history(kOrigin, kNeighbor);
  EXPECT_EQ(table.distinct_links(), 4u);
  EXPECT_EQ(table.counter(2), 2);

  state.expire(t0 + kLifetime - Duration::seconds(1));
  EXPECT_EQ(table.counter(1), 1);
  EXPECT_EQ(state.sent().size(), 2u);

  state.expire(t0 + kLifetime);
  EXPECT_EQ(table.counter(1), 0);
  EXPECT_EQ(table.counter(2), 1);
  EXPECT_EQ(table.counter(100), 1);
  EXPECT_EQ(table.distinct_links(), 3u);
  EXPECT_EQ(state.sent().size(), 1u);

  state.expire(t1 + kLifetime);
  EXPECT_EQ(table.distinct_links(), 0u);
  EXPECT_TRUE(state.sent().empty());
}

TEST(DiversityExpiry, KeySentAgainAfterExpiryCountsAfresh) {
  DiversityParams params;
  params.decrement_on_expiry = true;
  DiversityState state{params};
  const SentKey key{7, 100};
  const std::vector<topo::LinkIndex> links{1, 100};
  const TimePoint t0 = TimePoint::origin();
  state.commit_send(key, kOrigin, kNeighbor, links, t0, t0 + kLifetime, t0);
  const double first_diversity = state.sent().at(key).diversity;
  state.expire(t0 + kLifetime);
  ASSERT_TRUE(state.sent().empty());
  EXPECT_EQ(state.history(kOrigin, kNeighbor).counter(1), 0);

  const TimePoint t1 = t0 + kLifetime + Duration::minutes(10);
  state.commit_send(key, kOrigin, kNeighbor, links, t1, t1 + kLifetime, t1);
  EXPECT_EQ(state.history(kOrigin, kNeighbor).counter(1), 1);
  EXPECT_DOUBLE_EQ(state.sent().at(key).diversity, first_diversity);
  state.expire(t1 + kLifetime - Duration::seconds(1));
  EXPECT_EQ(state.sent().count(key), 1u) << "the new send has its own expiry";
  state.expire(t1 + kLifetime);
  EXPECT_TRUE(state.sent().empty());
  EXPECT_EQ(state.history(kOrigin, kNeighbor).counter(1), 0);
}

TEST(DiversityExpiry, CopyExpiresIndependently) {
  DiversityParams params;
  params.decrement_on_expiry = true;
  DiversityState original{params};
  const TimePoint t0 = TimePoint::origin();
  const std::vector<topo::LinkIndex> links{1, 100};
  original.commit_send(SentKey{7, 100}, kOrigin, kNeighbor, links, t0,
                       t0 + kLifetime, t0);
  DiversityState copy = original;

  copy.expire(t0 + kLifetime);
  EXPECT_TRUE(copy.sent().empty());
  EXPECT_EQ(copy.history(kOrigin, kNeighbor).counter(1), 0);
  EXPECT_EQ(original.sent().size(), 1u);
  EXPECT_EQ(original.history(kOrigin, kNeighbor).counter(1), 1);

  // The copy's later sends do not reach the original's queue either.
  copy.commit_send(SentKey{8, 100}, kOrigin, kNeighbor, links, t0,
                   t0 + Duration::hours(1), t0);
  original.expire(t0 + kLifetime);
  EXPECT_TRUE(original.sent().empty());
  EXPECT_EQ(original.history(kOrigin, kNeighbor).counter(1), 0);
  EXPECT_EQ(copy.sent().size(), 1u);
}

// With cumulative counters a sent record holds no heap memory of its own:
// once the list has grown, a send into a freed slot allocates nothing.
TEST(DiversityExpiry, SendsIntoFreedSlotsAllocateNothing) {
  DiversityState state{DiversityParams{}};
  const std::vector<topo::LinkIndex> links{1, 2, 100};
  const auto send_round = [&](std::uint64_t first_key, TimePoint at) {
    for (std::uint64_t k = first_key; k < first_key + 1000; ++k) {
      state.commit_send(SentKey{k, 100}, kOrigin, kNeighbor, links, at,
                        at + kLifetime, at);
    }
  };
  const TimePoint t0 = TimePoint::origin();
  send_round(0, t0);
  state.expire(t0 + kLifetime);
  ASSERT_TRUE(state.sent().empty());

  const std::uint64_t before = obs::thread_allocs();
  send_round(1'000'000, t0 + kLifetime);
  EXPECT_EQ(obs::thread_allocs() - before, 0u);
  EXPECT_EQ(state.sent().size(), 1000u);
}

// --- Equivalence with the map-based implementation --------------------------------

/// The diversity algorithm as it stood with the Sent PCBs List in a
/// std::unordered_map, record links always kept and every logarithm taken by
/// std::log: select_and_commit, commit_canonical and expire verbatim, the
/// rest reduced to what they need.
class MapDiversityState {
 public:
  using Map = std::unordered_map<SentKey, SentRecord, SentKeyHash>;

  MapDiversityState(DiversityParams params, LinkCanonicalizer canonicalizer)
      : params_{params}, canonicalizer_{std::move(canonicalizer)} {}

  std::uint64_t evaluations() const { return evaluations_; }
  std::uint64_t suppressed() const { return suppressed_; }
  const Map& sent() const { return sent_; }

  LinkHistoryTable& history(topo::IsdAsId origin, topo::IsdAsId neighbor_as) {
    return history_[{origin.value(), neighbor_as.value()}];
  }

  void expire(TimePoint now) {
    while (!expiry_queue_.empty() && expiry_queue_.front().expiry <= now) {
      std::pop_heap(expiry_queue_.begin(), expiry_queue_.end(), kExpiresLater);
      const SentKey key = expiry_queue_.back().key;
      expiry_queue_.pop_back();
      const auto it = sent_.find(key);
      if (it == sent_.end()) continue;  // already purged by an earlier entry
      if (it->second.instance_expiry > now) {
        // Refreshed since this entry was queued: due at its new expiry.
        schedule_expiry(it->second.instance_expiry, key);
        continue;
      }
      // remove_path decrements commute, so expiry order is irrelevant.
      if (params_.decrement_on_expiry) {
        history(it->second.origin, it->second.neighbor)
            .remove_path(it->second.links);
      }
      sent_.erase(it);
    }
  }

  std::vector<Candidate> select_and_commit(
      std::span<const StoredPcb> bucket, topo::IsdAsId origin,
      topo::IsdAsId neighbor_as, std::span<const topo::LinkIndex> egress_links,
      std::size_t limit, TimePoint now) {
    std::vector<Candidate> selected;
    if (egress_links.empty() || bucket.empty()) return selected;

    LinkHistoryTable& table = history(origin, neighbor_as);
    using Kind = Combination::Kind;

    combinations_.clear();
    combination_links_.clear();
    for (const StoredPcb& s : bucket) {
      if (s.pcb->expired(now)) continue;
      if (s.stale()) continue;  // quarantined: a link on the path is down
      if (s.pcb->contains_as(neighbor_as)) continue;  // loop prevention
      const double latency =
          params_.latency_weight > 0.0
              ? latency_factor(s.pcb->total_latency_us(), params_)
              : 1.0;
      for (topo::LinkIndex egress : egress_links) {
        Combination c{&s, egress, Kind::kFresh, 0.0, s.pcb->age(now),
                      s.pcb->lifetime(), latency, 0, 0};
        const auto sent_it = sent_.find(SentKey{s.path_key, egress});
        if (sent_it != sent_.end() && sent_it->second.instance_expiry > now) {
          c.kind = Kind::kFixed;
          c.score = score_previously_sent(
              sent_it->second.diversity, sent_it->second.instance_expiry - now,
              s.pcb->remaining_lifetime(now), params_);
        } else {
          c.links_begin = static_cast<std::uint32_t>(combination_links_.size());
          for (topo::LinkIndex l : s.links) combination_links_.push_back(canon(l));
          combination_links_.push_back(canon(egress));
          c.links_size = static_cast<std::uint32_t>(s.links.size() + 1);
        }
        combinations_.push_back(c);
      }
    }

    while (selected.size() < limit) {
      Combination* best = nullptr;
      double best_score = 0.0;
      for (Combination& c : combinations_) {
        if (c.kind == Kind::kChosen) continue;
        ++evaluations_;
        double score = c.score;
        if (c.kind == Kind::kFresh) {
          const std::span<const topo::LinkIndex> links{
              combination_links_.data() + c.links_begin, c.links_size};
          const double d = libm_diversity_score(table, links, params_);
          score = score_fresh(d, c.age, c.lifetime, params_) * c.latency;
          if (score <= params_.score_threshold) {
            c.kind = Kind::kFixed;
            c.score = score;
          }
        }
        if (score <= params_.score_threshold) {
          ++suppressed_;
          continue;
        }
        bool better = score > best_score;
        if (!better && score == best_score && best != nullptr) {
          const Pcb& x = *c.stored->pcb;
          const Pcb& y = *best->stored->pcb;
          if (x.expiry() != y.expiry()) {
            better = x.expiry() > y.expiry();
          } else if (x.hops() != y.hops()) {
            better = x.hops() < y.hops();
          } else {
            better = c.stored->path_key < best->stored->path_key;
          }
        }
        if (better) {
          best = &c;
          best_score = score;
        }
      }

      if (best == nullptr) break;  // nothing above the threshold

      const StoredPcb& s = *best->stored;
      const SentKey key{s.path_key, best->egress};
      commit_links_.clear();
      for (topo::LinkIndex l : s.links) commit_links_.push_back(canon(l));
      commit_links_.push_back(canon(best->egress));
      commit_canonical(key, origin, neighbor_as, commit_links_,
                       s.pcb->timestamp(), s.pcb->expiry(), now);
      selected.push_back(Candidate{&s, best->egress});
      for (Combination& c : combinations_) {
        if (c.stored->path_key == key.path_key && c.egress == key.egress) {
          c.kind = Kind::kChosen;
        }
      }
    }
    return selected;
  }

  void commit_send(const SentKey& key, topo::IsdAsId origin,
                   topo::IsdAsId neighbor_as,
                   std::span<const topo::LinkIndex> links,
                   TimePoint instance_timestamp, TimePoint instance_expiry,
                   TimePoint now) {
    commit_links_.clear();
    for (topo::LinkIndex l : links) commit_links_.push_back(canon(l));
    commit_canonical(key, origin, neighbor_as, commit_links_,
                     instance_timestamp, instance_expiry, now);
  }

 private:
  struct PairKey {
    std::uint64_t origin;
    std::uint64_t neighbor;
    bool operator==(const PairKey&) const = default;
  };
  struct PairKeyHash {
    std::size_t operator()(const PairKey& k) const noexcept {
      return static_cast<std::size_t>(
          (k.origin * 0x9E3779B97F4A7C15ULL) ^ (k.neighbor + 0x7F4A7C15ULL));
    }
  };
  struct ExpiryEntry {
    TimePoint expiry;
    SentKey key;
  };
  struct Combination {
    enum class Kind : std::uint8_t { kFresh, kFixed, kChosen };
    const StoredPcb* stored;
    topo::LinkIndex egress;
    Kind kind;
    double score;
    Duration age;
    Duration lifetime;
    double latency;
    std::uint32_t links_begin;
    std::uint32_t links_size;
  };

  static constexpr auto kExpiresLater = [](const ExpiryEntry& x,
                                           const ExpiryEntry& y) {
    return x.expiry > y.expiry;
  };

  /// diversity_score with the geometric mean taken through std::log.
  static double libm_diversity_score(const LinkHistoryTable& history,
                                     std::span<const topo::LinkIndex> links,
                                     const DiversityParams& params) {
    double gm = 0.0;
    if (!links.empty()) {
      double log_sum = 0.0;
      bool fresh = false;
      for (topo::LinkIndex l : links) {
        const int c = history.counter(l);
        if (c == 0) {
          fresh = true;
          break;
        }
        log_sum += std::log(static_cast<double>(c));
      }
      if (!fresh) gm = std::exp(log_sum / static_cast<double>(links.size()));
    }
    return 1.0 - std::min(1.0, gm / params.max_geometric_mean);
  }

  void schedule_expiry(TimePoint expiry, const SentKey& key) {
    expiry_queue_.push_back(ExpiryEntry{expiry, key});
    std::push_heap(expiry_queue_.begin(), expiry_queue_.end(), kExpiresLater);
  }

  topo::LinkIndex canon(topo::LinkIndex l) const {
    return canonicalizer_.empty() ? l : canonicalizer_[l];
  }

  void commit_canonical(const SentKey& key, topo::IsdAsId origin,
                        topo::IsdAsId neighbor_as,
                        std::span<const topo::LinkIndex> canonical,
                        TimePoint instance_timestamp,
                        TimePoint instance_expiry, TimePoint now) {
    const auto sent_it = sent_.find(key);
    if (sent_it != sent_.end()) {
      SentRecord& record = sent_it->second;
      if (instance_expiry < record.instance_expiry) {
        schedule_expiry(instance_expiry, key);
      }
      if (record.instance_expiry > now) {
        record.instance_timestamp = instance_timestamp;
        record.instance_expiry = instance_expiry;
        return;
      }
    } else {
      schedule_expiry(instance_expiry, key);
    }

    LinkHistoryTable& table = history(origin, neighbor_as);
    table.add_path(canonical);
    SentRecord record;
    record.origin = origin;
    record.neighbor = neighbor_as;
    record.diversity = libm_diversity_score(table, canonical, params_);
    record.instance_timestamp = instance_timestamp;
    record.instance_expiry = instance_expiry;
    record.links.assign(canonical.begin(), canonical.end());
    sent_[key] = std::move(record);
  }

  DiversityParams params_;
  LinkCanonicalizer canonicalizer_;
  std::unordered_map<PairKey, LinkHistoryTable, PairKeyHash> history_;
  Map sent_;
  std::vector<ExpiryEntry> expiry_queue_;
  std::uint64_t evaluations_{0};
  std::uint64_t suppressed_{0};
  std::vector<Combination> combinations_;
  std::vector<topo::LinkIndex> combination_links_;
  std::vector<topo::LinkIndex> commit_links_;
};

using Selection = std::vector<std::pair<std::uint64_t, topo::LinkIndex>>;

Selection keys_of(const std::vector<Candidate>& selected) {
  Selection out;
  for (const Candidate& c : selected) {
    out.emplace_back(c.stored->path_key, c.egress);
  }
  return out;
}

struct EquivalenceCase {
  bool decrement_on_expiry;
  bool as_pairs;  // canonicalize links pairwise, as as_pair_canonicalizer does
  std::uint64_t seed;
};

/// Drives DiversityState and MapDiversityState through the same seeded
/// 16 hours of 10-minute intervals: three origins, buckets of up to 12
/// paths re-stamped with fresh, old, expired and stale instances, three
/// neighbours with one to three parallel egress links (some neighbours lie
/// on stored paths, for loop prevention), and origin-style commit_sends.
/// After every interval the selections, counters, sent records and link
/// counters must agree exactly.
void expect_equivalent_runs(const EquivalenceCase& tc) {
  constexpr topo::LinkIndex kLinks = 48;  // path links 0..39, egress 40..47
  DiversityParams params;
  params.decrement_on_expiry = tc.decrement_on_expiry;
  params.max_geometric_mean = 3.0;  // explore more redundant paths
  LinkCanonicalizer canonicalizer;
  if (tc.as_pairs) {
    for (topo::LinkIndex l = 0; l < kLinks; ++l) canonicalizer.push_back(l & ~1u);
  }
  DiversityState state{params, canonicalizer};
  MapDiversityState ref{params, canonicalizer};

  util::Rng rng{tc.seed};
  const auto link = [&](topo::LinkIndex lo, topo::LinkIndex hi) {
    return static_cast<topo::LinkIndex>(rng.uniform_int(lo, hi));
  };
  const std::vector<IsdAsId> origins{IsdAsId::make(1, 1), IsdAsId::make(1, 2),
                                     IsdAsId::make(1, 3)};
  // make_stored puts AS 9-(100 + l) behind link l, so these neighbours lie
  // on every path through links 3, 7 or 11.
  const std::vector<IsdAsId> neighbors{
      IsdAsId::make(9, 103), IsdAsId::make(9, 107), IsdAsId::make(9, 111)};
  const std::vector<std::vector<topo::LinkIndex>> egress{
      {40}, {41, 42}, {43, 44, 45}};
  std::vector<std::vector<std::vector<topo::LinkIndex>>> pools(origins.size());
  for (auto& pool : pools) {
    for (int p = 0; p < 12; ++p) {
      // Distinct links: make_stored puts one AS behind each, and a PCB
      // must not visit an AS twice.
      std::vector<topo::LinkIndex> path;
      const auto hops = static_cast<std::size_t>(rng.uniform_int(1, 5));
      while (path.size() < hops) {
        const topo::LinkIndex l = link(0, 39);
        if (std::find(path.begin(), path.end(), l) == path.end()) {
          path.push_back(l);
        }
      }
      pool.push_back(std::move(path));
    }
  }

  TimePoint now = TimePoint::origin() + Duration::hours(7);
  for (int interval = 0; interval < 96; ++interval) {
    now = now + Duration::minutes(10);
    state.expire(now);
    ref.expire(now);
    for (std::size_t o = 0; o < origins.size(); ++o) {
      std::vector<StoredPcb> bucket;
      for (const auto& path : pools[o]) {
        if (rng.bernoulli(0.2)) continue;  // not stored this interval
        // Mostly young instances, some past their lifetime.
        const TimePoint stamp = now - Duration::minutes(rng.uniform_int(0, 420));
        bucket.push_back(make_stored(path, stamp, origins[o]));
        if (rng.bernoulli(0.05)) bucket.back().stale_links = 1;
      }
      for (std::size_t n = 0; n < neighbors.size(); ++n) {
        const auto limit = static_cast<std::size_t>(rng.uniform_int(1, 5));
        const Selection got = keys_of(state.select_and_commit(
            bucket, origins[o], neighbors[n], egress[n], limit, now));
        const Selection want = keys_of(ref.select_and_commit(
            bucket, origins[o], neighbors[n], egress[n], limit, now));
        ASSERT_EQ(got, want) << "interval " << interval << " origin " << o
                             << " neighbour " << n;
        if (rng.bernoulli(0.3)) {
          // An origin-style send: a one-link path on an egress link.
          const topo::LinkIndex l = egress[n][static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(egress[n].size()) - 1))];
          const std::vector<topo::LinkIndex> one{l};
          const SentKey key{1000 + o, l};
          const TimePoint expiry = now + Duration::minutes(rng.uniform_int(5, 360));
          state.commit_send(key, origins[o], neighbors[n], one, now, expiry, now);
          ref.commit_send(key, origins[o], neighbors[n], one, now, expiry, now);
        }
      }
    }
    ASSERT_EQ(state.evaluations(), ref.evaluations()) << "interval " << interval;
    ASSERT_EQ(state.suppressed(), ref.suppressed()) << "interval " << interval;
    ASSERT_EQ(state.sent().size(), ref.sent().size()) << "interval " << interval;
    for (const auto& [key, want] : ref.sent()) {
      const SentRecord* got = state.sent().find(key);
      ASSERT_NE(got, nullptr) << "interval " << interval;
      EXPECT_EQ(got->origin, want.origin);
      EXPECT_EQ(got->neighbor, want.neighbor);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got->diversity),
                std::bit_cast<std::uint64_t>(want.diversity));
      EXPECT_EQ(got->instance_timestamp, want.instance_timestamp);
      EXPECT_EQ(got->instance_expiry, want.instance_expiry);
      // Links are kept only where expiry reads them.
      EXPECT_EQ(got->links, tc.decrement_on_expiry
                                ? want.links
                                : std::vector<topo::LinkIndex>{});
    }
    for (const IsdAsId origin : origins) {
      for (const IsdAsId neighbor : neighbors) {
        const LinkHistoryTable& got = state.history(origin, neighbor);
        const LinkHistoryTable& want = ref.history(origin, neighbor);
        ASSERT_EQ(got.distinct_links(), want.distinct_links());
        for (topo::LinkIndex l = 0; l < kLinks; ++l) {
          ASSERT_EQ(got.counter(l), want.counter(l)) << "link " << l;
        }
      }
    }
  }
  // The scenario must exercise selection, suppression and expiry.
  EXPECT_GT(state.evaluations(), 1000u);
  EXPECT_GT(state.suppressed(), 100u);
}

TEST(DiversityEquivalence, MatchesMapImplementation) {
  for (const bool decrement : {false, true}) {
    for (const bool as_pairs : {false, true}) {
      for (const std::uint64_t seed : {11u, 12u, 13u}) {
        SCOPED_TRACE(::testing::Message()
                     << "decrement " << decrement << " as_pairs " << as_pairs
                     << " seed " << seed);
        expect_equivalent_runs({decrement, as_pairs, seed});
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace scion::ctrl
