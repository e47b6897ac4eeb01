#include <gtest/gtest.h>

#include "core/algorithms.hpp"

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

}  // namespace
}  // namespace scion::ctrl
