#include "core/algorithms.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace scion::ctrl {

LinkCanonicalizer as_pair_canonicalizer(const topo::Topology& topology) {
  // Representative (lowest) link index per AS pair.
  LinkCanonicalizer mapping(topology.link_count(), topo::kInvalidLinkIndex);
  for (topo::LinkIndex l = 0; l < topology.link_count(); ++l) {
    const topo::Link& link = topology.link(l);
    const auto parallel = topology.links_between(link.a, link.b);
    mapping[l] = *std::min_element(parallel.begin(), parallel.end());
  }
  return mapping;
}

const char* to_string(AlgorithmKind k) {
  switch (k) {
    case AlgorithmKind::kBaseline:
      return "baseline";
    case AlgorithmKind::kDiversity:
      return "diversity";
  }
  return "?";
}

std::vector<Candidate> baseline_select(std::span<const StoredPcb> bucket,
                                       topo::IsdAsId neighbor_as,
                                       topo::LinkIndex egress,
                                       std::size_t limit, TimePoint now) {
  std::vector<const StoredPcb*> eligible;
  eligible.reserve(bucket.size());
  for (const StoredPcb& s : bucket) {
    if (s.pcb->expired(now)) continue;
    if (s.stale()) continue;  // quarantined: a link on the path is down
    if (s.pcb->contains_as(neighbor_as)) continue;  // loop prevention
    eligible.push_back(&s);
  }
  // Shortest path first; among equal lengths prefer the freshest instance;
  // final tie on the unique path key, so the order is total and a partial
  // sort yields the same first `limit` as a full one.
  const auto keep = eligible.begin() +
                    static_cast<std::ptrdiff_t>(std::min(limit, eligible.size()));
  std::partial_sort(eligible.begin(), keep, eligible.end(),
                    [](const StoredPcb* x, const StoredPcb* y) {
                      if (x->pcb->hops() != y->pcb->hops())
                        return x->pcb->hops() < y->pcb->hops();
                      if (x->pcb->timestamp() != y->pcb->timestamp())
                        return x->pcb->timestamp() > y->pcb->timestamp();
                      return x->path_key < y->path_key;
                    });
  eligible.erase(keep, eligible.end());

  std::vector<Candidate> out;
  out.reserve(eligible.size());
  for (const StoredPcb* s : eligible) out.push_back(Candidate{s, egress});
  return out;
}

LinkHistoryTable& DiversityState::history(topo::IsdAsId origin,
                                          topo::IsdAsId neighbor_as) {
  return history_[PairKey{origin.value(), neighbor_as.value()}];
}

namespace {

/// Heap order of the expiry queue: the earliest expiry on top.
constexpr auto kExpiresLater = [](const auto& x, const auto& y) {
  return x.expiry > y.expiry;
};

}  // namespace

void DiversityState::expire(TimePoint now) {
  // Entries pushed below are due after `now`, so the loop terminates.
  while (!expiry_queue_.empty() && expiry_queue_.front().expiry <= now) {
    std::pop_heap(expiry_queue_.begin(), expiry_queue_.end(), kExpiresLater);
    const SentKey key = expiry_queue_.back().key;
    expiry_queue_.pop_back();
    const SentRecord* record = sent_.find(key);
    if (record == nullptr) continue;  // already purged by an earlier entry
    if (record->instance_expiry > now) {
      // Refreshed since this entry was queued: due at its new expiry.
      schedule_expiry(record->instance_expiry, key);
      continue;
    }
    // remove_path decrements commute, so expiry order is irrelevant.
    if (params_.decrement_on_expiry) {
      history(record->origin, record->neighbor).remove_path(record->links);
    }
    sent_.erase(key);
  }
}

void DiversityState::schedule_expiry(TimePoint expiry, const SentKey& key) {
  expiry_queue_.push_back(ExpiryEntry{expiry, key});
  std::push_heap(expiry_queue_.begin(), expiry_queue_.end(), kExpiresLater);
}

std::vector<Candidate> DiversityState::select_and_commit(
    std::span<const StoredPcb> bucket, topo::IsdAsId origin,
    topo::IsdAsId neighbor_as, std::span<const topo::LinkIndex> egress_links,
    std::size_t limit, TimePoint now) {
  std::vector<Candidate> selected;
  if (egress_links.empty() || bucket.empty()) return selected;

  LinkHistoryTable& table = history(origin, neighbor_as);
  using Kind = Combination::Kind;

  // Everything about a combination except its fresh diversity is fixed for
  // the call: eligibility, the sent record (commits only touch the records
  // of chosen combinations), the age and lifetime, the latency factor.
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
      const SentRecord* sent = sent_.find(SentKey{s.path_key, egress});
      if (sent != nullptr && sent->instance_expiry > now) {
        c.kind = Kind::kFixed;
        c.score = score_previously_sent(sent->diversity,
                                        sent->instance_expiry - now,
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

    // Every unchosen combination counts as one evaluation per pass, as in
    // the plain greedy loop, whether or not its score had to be recomputed.
    for (Combination& c : combinations_) {
      if (c.kind == Kind::kChosen) continue;
      ++evaluations_;
      double score = c.score;
      if (c.kind == Kind::kFresh) {
        const std::span<const topo::LinkIndex> links{
            combination_links_.data() + c.links_begin, c.links_size};
        const double d = diversity_score(table, links, params_);
        // Latency extension: penalize high-latency candidates before the
        // threshold check (a factor of 1 when latency_weight is 0).
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
      // Strictly-greater comparison plus deterministic tie-breaks:
      // longer remaining lifetime, then fewer hops, then stable key.
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

    // Never reselect a combination within this call; the fresh sent record
    // already suppresses it for sane parameters, but user-chosen parameters
    // must not be able to produce duplicates.
    for (Combination& c : combinations_) {
      if (c.stored->path_key == key.path_key && c.egress == key.egress) {
        c.kind = Kind::kChosen;
      }
    }
  }
  return selected;
}

void DiversityState::commit_send(const SentKey& key, topo::IsdAsId origin,
                                 topo::IsdAsId neighbor_as,
                                 std::span<const topo::LinkIndex> links,
                                 TimePoint instance_timestamp,
                                 TimePoint instance_expiry, TimePoint now) {
  commit_links_.clear();
  for (topo::LinkIndex l : links) commit_links_.push_back(canon(l));
  commit_canonical(key, origin, neighbor_as, commit_links_, instance_timestamp,
                   instance_expiry, now);
}

void DiversityState::commit_canonical(
    const SentKey& key, topo::IsdAsId origin, topo::IsdAsId neighbor_as,
    std::span<const topo::LinkIndex> canonical, TimePoint instance_timestamp,
    TimePoint instance_expiry, TimePoint now) {
  // "If a path is sent again, its corresponding timers in Sent PCBs List
  // get updated": a refresh of a still-valid sent path updates the
  // instance timers only — counters are not re-incremented and the stored
  // diversity score persists from the original send (recomputing it under
  // the since-grown counters would drive refreshed paths' scores to zero
  // and connectivity maintenance would die out after a few lifetimes).
  const auto [record, inserted] = sent_.try_emplace(key);
  if (inserted) {
    schedule_expiry(instance_expiry, key);
  } else {
    // An earlier expiry needs an earlier queue entry; a later one is
    // re-queued when the current entry comes due.
    if (instance_expiry < record->instance_expiry) {
      schedule_expiry(instance_expiry, key);
    }
    if (record->instance_expiry > now) {
      record->instance_timestamp = instance_timestamp;
      record->instance_expiry = instance_expiry;
      return;
    }
  }

  LinkHistoryTable& table = history(origin, neighbor_as);
  table.add_path(canonical);
  record->origin = origin;
  record->neighbor = neighbor_as;
  record->diversity = diversity_score(table, canonical, params_);
  record->instance_timestamp = instance_timestamp;
  record->instance_expiry = instance_expiry;
  // Canonicalized: expire() must decrement exactly what was incremented.
  if (params_.decrement_on_expiry) {
    record->links.assign(canonical.begin(), canonical.end());
  }
}

topo::LinkIndex DiversityState::canon(topo::LinkIndex l) const {
  if (canonicalizer_.empty()) return l;
  SCION_DCHECK(l < canonicalizer_.size(), "link outside the canonicalizer");
  return canonicalizer_[l];
}

}  // namespace scion::ctrl
