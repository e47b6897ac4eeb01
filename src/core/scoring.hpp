// Link-diversity scoring for the path-diversity-based path construction
// algorithm (Section 4.2 and Appendix A).
//
// Per [origin AS, neighbor AS] pair the beacon server keeps a Link History
// Table mapping each inter-AS link to a counter: the number of valid
// (previously sent, unexpired) paths from that origin to that neighbor that
// contain the link. The diversity score of a candidate path is derived from
// the geometric mean of its links' counters; the final score additionally
// weighs the PCB's age/lifetime (Eq. 2) or, for previously sent paths, the
// remaining lifetimes of the sent vs the current instance (Eq. 3):
//
//     score = diversity^g   if previously sent          (Eq. 1)
//     score = diversity^f   otherwise
//     f = alpha * age / lifetime                        (Eq. 2)
//     g = (beta * sent_remaining / current_remaining)^gamma   (Eq. 3)
//
// Orientation note: the paper scales the geometric mean into [0, 1] by the
// "maximum acceptable geometric mean" but leaves the polarity implicit. We
// resolve it from the three stated objectives (preserve connectivity /
// discover new paths / save bandwidth), which require score 1 to be best:
//     diversity = 1 - min(1, geometric_mean / max_geometric_mean)
// so a path containing any never-used link has geometric mean 0 and
// diversity 1 (the "prefer PCBs containing new links" rationale), and a
// fully redundant path scores 0 and is never sent. The score recorded in
// the Sent PCBs List is computed *after* that send's counter increments, so
// a just-sent path always has diversity < 1 and is suppressed while fresh —
// otherwise the bandwidth-saving objective could never trigger for fully
// disjoint paths.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "topology/ids.hpp"
#include "util/time.hpp"

namespace scion::ctrl {

using util::Duration;
using util::TimePoint;

/// Tunables of the diversity algorithm. Defaults were fitted with
/// GridSearch (see grid_search.hpp) on the generated core topologies; the
/// paper likewise fits them per topology with a coarse-then-fine grid
/// search.
struct DiversityParams {
  /// Age sensitivity for not-previously-sent paths (Eq. 2). The paper
  /// fits this per topology *and PCB lifetime*: with a 10-minute interval
  /// and 6-hour lifetime, age/lifetime advances in steps of 1/36, so alpha
  /// must be of order lifetime/interval for age to suppress redundant
  /// paths within a few intervals — otherwise every young PCB scores ~1
  /// and the whole footprint re-floods each lifetime.
  double alpha{20.0};
  /// Remaining-lifetime-ratio scale for previously sent paths (Eq. 3).
  double beta{3.0};
  /// Exponent sharpening the previously-sent suppression (Eq. 3).
  double gamma{2.0};
  /// Minimum final score a candidate must reach to be disseminated.
  double score_threshold{0.5};
  /// Latency-optimization extension (Section 4.2, "Optimizing for other
  /// Criteria"): 0 disables it; otherwise candidate scores are multiplied
  /// by latency_factor() computed from the PCB's disseminated latency
  /// metadata, steering dissemination towards low-latency paths.
  double latency_weight{0.0};
  /// "Maximum acceptable geometric mean" of link counters; higher means a
  /// link may be reused by more paths before its redundancy saturates.
  /// This is the main overhead/coverage knob: at 1.0 only paths containing
  /// a never-used link are disseminated (cheapest); larger values explore
  /// more redundant paths. Default fitted on the generated core networks.
  double max_geometric_mean{2.0};
  /// Whether a sent path's expiry decrements its links' counters. The
  /// paper's "number of times the link is part of a valid path" is
  /// ambiguous; decrementing makes every stored path's coverage lapse once
  /// per lifetime, so the entire footprint re-floods cyclically and the
  /// overhead win over the baseline collapses to a small factor (kept as
  /// an ablation). Cumulative counters (default) converge to refreshing a
  /// minimal link-covering set — the behavior consistent with the paper's
  /// measured two-orders-of-magnitude reduction.
  bool decrement_on_expiry{false};
};

/// Optional remapping of link ids before they enter the Link History
/// Tables: entry `l` is the id link `l` counts as. Identity (empty) gives
/// the paper's link-disjointness; mapping all parallel links of an AS pair
/// to one id gives AS-disjointness — the alternative Section 4.2 argues
/// against ("we choose link instead of AS disjointness ... since AS
/// failures are unlikely events"), kept as an ablation axis.
using LinkCanonicalizer = std::vector<topo::LinkIndex>;

/// Link History Table for one [origin AS, neighbor AS] pair: an
/// open-addressed table of {link, counter} slots (power-of-two capacity,
/// linear probing, load at most 3/4). A link whose counter drops back to
/// zero keeps its slot, so lookups never meet a tombstone.
class LinkHistoryTable {
 public:
  /// Increments the counter of every link on a sent path.
  void add_path(std::span<const topo::LinkIndex> links);

  /// Decrements the counters when a sent path expires; counters never go
  /// below zero.
  void remove_path(std::span<const topo::LinkIndex> links);

  int counter(topo::LinkIndex link) const;

  /// Geometric mean of the counters of `links`; 0 if any counter is 0.
  double geometric_mean(std::span<const topo::LinkIndex> links) const;

  /// Links with a nonzero counter.
  std::size_t distinct_links() const { return nonzero_; }

 private:
  struct Slot {
    topo::LinkIndex link{topo::kInvalidLinkIndex};  // invalid = empty slot
    std::int32_t count{0};
  };

  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  /// Index of the slot holding `link`, or of the empty slot ending its
  /// probe sequence. Requires a non-empty table.
  std::size_t probe(topo::LinkIndex link) const;
  /// Index of the slot holding `link`, or kNoSlot when it has none.
  std::size_t find(topo::LinkIndex link) const;
  /// The slot holding `link`, claiming an empty one (and doubling the
  /// table before it would pass 3/4 load) when it has none.
  Slot& find_or_insert(topo::LinkIndex link);

  std::vector<Slot> slots_;
  std::size_t used_{0};     // slots holding a link
  std::size_t nonzero_{0};  // slots holding a nonzero counter
};

/// Counts below this take their logarithm from a table (log_count).
inline constexpr std::int32_t kLogTableSize = 1024;

/// std::log(count) for a positive counter: read from a table filled at
/// start-up by the same std::log call for counts below kLogTableSize, so
/// the result is bit-identical either way.
double log_count(std::int32_t count);

/// Diversity score in [0, 1]; 1 = fully disjoint from previously sent
/// paths, 0 = at or beyond the acceptable redundancy.
double diversity_score(const LinkHistoryTable& history,
                       std::span<const topo::LinkIndex> path_links,
                       const DiversityParams& params);

/// Final score for a path never sent before (Eqs. 1 and 2).
double score_fresh(double diversity, Duration age, Duration lifetime,
                   const DiversityParams& params);

/// Final score for a previously sent path (Eqs. 1 and 3); `stored_diversity`
/// is the diversity recorded at send time.
double score_previously_sent(double stored_diversity, Duration sent_remaining,
                             Duration current_remaining,
                             const DiversityParams& params);

/// Multiplier in (0, 1] applied to a candidate's score when the latency
/// extension is active: halves per (latency_weight x 50 ms) of accumulated
/// path latency, so low-latency paths win ties and high-latency detours
/// fall below the threshold sooner.
double latency_factor(std::uint64_t path_latency_us,
                      const DiversityParams& params);

/// One record in the Sent PCBs List of an egress interface.
struct SentRecord {
  topo::IsdAsId origin;
  topo::IsdAsId neighbor;
  /// Diversity score at send time (after its own counter increments).
  double diversity{0.0};
  /// Timestamps of the instance that was sent.
  TimePoint instance_timestamp;
  TimePoint instance_expiry;
  /// The path's canonical links including the egress link, for the counter
  /// decrement at expiry. Filled only when decrement_on_expiry is set;
  /// empty otherwise.
  std::vector<topo::LinkIndex> links;
};

/// Key of a sent path: the stored PCB's path identity plus the egress link
/// it was sent on.
struct SentKey {
  std::uint64_t path_key{0};
  topo::LinkIndex egress{topo::kInvalidLinkIndex};

  bool operator==(const SentKey&) const = default;
};

struct SentKeyHash {
  std::size_t operator()(const SentKey& k) const noexcept {
    return static_cast<std::size_t>(
        (k.path_key ^ (static_cast<std::uint64_t>(k.egress) + 1)) *
        0x9E3779B97F4A7C15ULL);
  }
};

/// The Sent PCBs Lists of one beacon server, all egress interfaces in one
/// table keyed by path+egress. Records live in a dense vector (erased ones
/// are reused through a free list) behind an open-addressed index of
/// record ids: power-of-two capacity, linear probing, load at most 1/2,
/// and backward-shift erase, so lookups never meet a tombstone. A record
/// pointer stays valid until the next try_emplace.
class SentPcbsList {
 public:
  /// The record of `key`, or null when there is none.
  const SentRecord* find(const SentKey& key) const;

  /// The record of `key`; throws std::out_of_range when there is none.
  const SentRecord& at(const SentKey& key) const;

  std::size_t count(const SentKey& key) const { return find(key) ? 1 : 0; }
  std::size_t size() const { return entries_.size() - free_.size(); }
  bool empty() const { return size() == 0; }

  /// The record of `key` and true when this call inserted it (a
  /// value-initialized record), or the existing record and false.
  std::pair<SentRecord*, bool> try_emplace(const SentKey& key);

  /// Removes the record of `key`; returns whether there was one.
  bool erase(const SentKey& key);

 private:
  struct Entry {
    SentKey key;  // egress kInvalidLinkIndex: erased, its id on free_
    SentRecord record;
  };

  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  /// Home slot of `key` in the index.
  std::size_t home(const SentKey& key) const;
  /// Index slot holding `key`'s record id, or the empty slot ending its
  /// probe sequence. Requires a non-empty index.
  std::size_t probe(const SentKey& key) const;

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> free_;   // ids of erased entries
  std::vector<std::uint32_t> index_;  // record ids; kEmpty = empty slot
};

}  // namespace scion::ctrl
