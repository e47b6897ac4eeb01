#include "bgp/speaker.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace scion::bgp {

namespace {

bool contains(const AsPath& path, topo::AsIndex as) {
  return path && std::find(path->begin(), path->end(), as) != path->end();
}

bool same_path(const AsPath& a, const AsPath& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  return *a == *b;
}

std::size_t length(const AsPath& path) { return path ? path->size() : 0; }

/// The candidate path of an own prefix: empty.
const AsPath kNoPath;

/// lower_bound comparator over the prefix-sorted row index.
constexpr auto kRowBefore = [](const auto& ref, Prefix p) {
  return ref.prefix < p;
};

}  // namespace

Speaker::Speaker(topo::AsIndex self, std::vector<NeighborInfo> neighbors,
                 SpeakerOptions options, SendFn send, ScheduleFn schedule,
                 ClockFn clock, std::uint64_t seed)
    : self_{self},
      options_{options},
      send_{std::move(send)},
      schedule_{std::move(schedule)},
      clock_{std::move(clock)},
      rng_{seed} {
  SCION_CHECK(send_ && schedule_, "speaker needs send and schedule hooks");
  SCION_CHECK(!options_.damping.enabled || clock_,
              "flap damping needs the simulator clock for penalty decay");
  if (options_.damping.enabled) {
    const DampingConfig& d = options_.damping;
    SCION_CHECK(d.penalty_per_flap > 0.0 && d.reuse_threshold > 0.0 &&
                    d.suppress_threshold > d.reuse_threshold &&
                    d.half_life > util::Duration::zero(),
                "damping thresholds inverted");
    // RFC 2439 penalty ceiling: a fully charged penalty decays to the
    // reuse threshold within max_suppress.
    penalty_cap_ = d.reuse_threshold *
                   std::exp2(d.max_suppress / d.half_life);
  }
  neighbors_.reserve(neighbors.size());
  for (const NeighborInfo& info : neighbors) {
    neighbor_index_.emplace(info.as, neighbors_.size());
    neighbors_.push_back(NeighborState{info, true, false, {}, {}, 0});
  }
}

std::size_t Speaker::index_of(topo::AsIndex neighbor) const {
  const auto it = neighbor_index_.find(neighbor);
  SCION_CHECK(it != neighbor_index_.end(), "unknown neighbor");
  return it->second;
}

const Speaker::Row* Speaker::find_row(Prefix p) const {
  const auto it = std::lower_bound(
      row_index_.begin(), row_index_.end(), p, kRowBefore);
  if (it == row_index_.end() || it->prefix != p) return nullptr;
  return &rows_[it->row];
}

Speaker::Row* Speaker::find_row(Prefix p) {
  return const_cast<Row*>(std::as_const(*this).find_row(p));
}

Speaker::Row& Speaker::row_for(Prefix p) {
  const auto it = std::lower_bound(
      row_index_.begin(), row_index_.end(), p, kRowBefore);
  if (it != row_index_.end() && it->prefix == p) return rows_[it->row];
  // First sight of the prefix: one row with its slot table. Later UPDATEs
  // for the prefix hit this row.
  row_index_.insert(it, RowRef{p, static_cast<std::uint32_t>(rows_.size())});
  Row& row = rows_.emplace_back();
  row.prefix = p;
  row.slots.resize(neighbors_.size());
  return row;
}

std::uint32_t Speaker::row_id(const Row& row) const {
  return static_cast<std::uint32_t>(&row - rows_.data());
}

const AsPath& Speaker::path_of(const Row& row, std::uint32_t cand) const {
  return cand == kOwnBest ? kNoPath : row.slots[cand].in;
}

Relationship Speaker::rel_of(std::uint32_t cand) const {
  // Self-originated routes are treated as customer routes for export.
  return cand == kOwnBest ? Relationship::kCustomer : neighbors_[cand].info.rel;
}

topo::AsIndex Speaker::as_of(std::uint32_t cand) const {
  return cand == kOwnBest ? self_ : neighbors_[cand].info.as;
}

bool Speaker::better(const Row& row, std::uint32_t x, std::uint32_t y) const {
  const int px = local_pref(rel_of(x));
  const int py = local_pref(rel_of(y));
  if (px != py) return px > py;
  const std::size_t lx = length(path_of(row, x));
  const std::size_t ly = length(path_of(row, y));
  if (lx != ly) return lx < ly;
  return as_of(x) < as_of(y);
}

void Speaker::originate(Prefix p) {
  Row& row = row_for(p);
  row.own = true;
  reevaluate(row);
}

std::uint32_t Speaker::compute_best(const Row& row) const {
  std::uint32_t best = row.own ? kOwnBest : kNoBest;
  for (std::uint32_t idx = 0; idx < row.slots.size(); ++idx) {
    if (!row.slots[idx].in) continue;
    // Damping removes suppressed adjacencies from the decision process;
    // graceful-restart stale routes stay eligible (that is the point).
    if (slot_suppressed(idx, row.prefix)) continue;
    if (best == kNoBest || better(row, idx, best)) best = idx;
  }
  return best;
}

bool Speaker::slot_suppressed(std::size_t idx, Prefix p) const {
  if (!options_.damping.enabled) return false;
  // One per candidate slot of a re-decision, damping-enabled runs only.
  const auto it = neighbors_[idx].damping.find(p);
  return it != neighbors_[idx].damping.end() && it->second.suppressed;
}

bool Speaker::is_suppressed(topo::AsIndex neighbor, Prefix p) const {
  return slot_suppressed(index_of(neighbor), p);
}

double Speaker::decayed_penalty(const DampingState& st,
                                util::TimePoint now) const {
  const double half_lives =
      (now - st.last_charge) / options_.damping.half_life;
  return st.penalty * std::exp2(-half_lives);
}

void Speaker::damping_charge(std::size_t idx, Prefix p) {
  SCION_DCHECK(options_.damping.enabled, "charge with damping off");
  const util::TimePoint now = clock_();
  // Entries appear the first time a prefix flaps on this adjacency;
  // steady-state charges hit the existing node.
  DampingState& st = neighbors_[idx].damping[p];
  st.penalty = std::min(decayed_penalty(st, now) +
                            options_.damping.penalty_per_flap,
                        penalty_cap_);
  st.last_charge = now;
  if (!st.suppressed && st.penalty >= options_.damping.suppress_threshold) {
    st.suppressed = true;
    ++st.epoch;
    ++routes_suppressed_;
    SCION_METRIC_COUNT("bgp.routes_suppressed", 1);
    arm_reuse_timer(idx, p, st);
  }
}

void Speaker::arm_reuse_timer(std::size_t idx, Prefix p, DampingState& st) {
  // Deterministic reuse instant: when the penalty decays to the reuse
  // threshold (capped by max_suppress via the penalty ceiling). Ceil, not
  // truncate: a timer landing a sub-nanosecond early finds the penalty
  // still above threshold and re-arms for 0 ns, looping at one virtual
  // instant without ever decaying.
  const double half_lives =
      std::log2(st.penalty / options_.damping.reuse_threshold);
  const auto delay = util::Duration::nanoseconds(
      static_cast<std::int64_t>(std::ceil(
          static_cast<double>(options_.damping.half_life.ns()) *
          std::max(half_lives, 0.0))));
  const std::uint32_t epoch = st.epoch;
  schedule_(delay, TimerKind::kDamping,
            [this, idx, p, epoch] { damping_reuse(idx, p, epoch); });
}

void Speaker::damping_reuse(std::size_t idx, Prefix p, std::uint32_t epoch) {
  const auto it = neighbors_[idx].damping.find(p);
  if (it == neighbors_[idx].damping.end()) return;
  DampingState& st = it->second;
  if (!st.suppressed || st.epoch != epoch) return;  // re-armed meanwhile
  const util::TimePoint now = clock_();
  if (decayed_penalty(st, now) > options_.damping.reuse_threshold) {
    // Charged again while waiting; re-arm for the new decay horizon.
    st.penalty = decayed_penalty(st, now);
    st.last_charge = now;
    arm_reuse_timer(idx, p, st);
    return;
  }
  st.suppressed = false;
  ++st.epoch;
  ++routes_reused_;
  SCION_METRIC_COUNT("bgp.routes_reused", 1);
  reevaluate(p);  // the adjacency's route is eligible again
}

AsPath Speaker::make_export_path(const AsPath& path) const {
  auto out = std::make_shared<std::vector<topo::AsIndex>>();
  out->reserve(1 + length(path));
  out->push_back(self_);
  if (path) out->insert(out->end(), path->begin(), path->end());
  return out;
}

void Speaker::queue_change(std::size_t idx, Row& row, AsPath path) {
  NeighborState& n = neighbors_[idx];
  Slot& slot = row.slots[idx];
  if (slot.pending != 0) {
    // Already queued since the last flush: the newer change replaces it.
    PendingChange& change = n.pending[slot.pending - 1];
    change.path = std::move(path);
  } else {
    n.pending.push_back(
        PendingChange{row.prefix, row_id(row), std::move(path)});
    slot.pending = static_cast<std::uint32_t>(n.pending.size());
  }
  arm_mrai(idx);
}

void Speaker::clear_pending(std::size_t idx) {
  NeighborState& n = neighbors_[idx];
  for (const PendingChange& change : n.pending) {
    rows_[change.row].slots[idx].pending = 0;
  }
  n.pending.clear();
}

void Speaker::sync_neighbor(std::size_t idx, Row& row) {
  const NeighborState& n = neighbors_[idx];
  if (!n.up) return;
  const bool should = row.best != kNoBest &&
                      may_export(rel_of(row.best), n.info.rel) &&
                      n.info.as != as_of(row.best);
  Slot& slot = row.slots[idx];
  if (should) {
    if (slot.out && same_path(slot.out, row.export_path)) {
      return;  // neighbor already has this exact route
    }
    slot.out = row.export_path;
    queue_change(idx, row, row.export_path);
  } else if (slot.out) {
    slot.out = nullptr;
    queue_change(idx, row, nullptr);  // withdraw
  }
  // Otherwise nothing is advertised and nothing is to be: a pending change
  // here can only be a withdrawal, which must still go out.
}

void Speaker::reevaluate(Prefix p) {
  Row* row = find_row(p);
  SCION_DCHECK(row != nullptr, "re-decision for a prefix never seen");
  reevaluate(*row);
}

void Speaker::reevaluate(Row& row) {
  const std::uint32_t best = compute_best(row);
  const bool had = row.best != kNoBest;
  const bool has = best != kNoBest;
  const bool changed =
      has != had || (has && (best != row.best ||
                             !same_path(path_of(row, best), row.best_path)));
  if (!changed) return;

  ++best_changes_;
  // Loc-RIB consistency: the winning route must be self-originated,
  // learned over a session that is still up, or a graceful-restart stale
  // survivor (session_down without GR flushes its Adj-RIB-In slots before
  // re-deciding; with GR the stale flag licenses the down session).
  SCION_DCHECK(!has || best == kOwnBest || row.slots[best].stale ||
                   neighbors_[best].up,
               "best route learned from a session that is down");
  if (has != had) {
    if (has) {
      ++loc_rib_routes_;
    } else {
      --loc_rib_routes_;
    }
  }
  row.best = best;
  row.best_path = has ? path_of(row, best) : nullptr;
  row.best_stale = has && best != kOwnBest && row.slots[best].stale;
  row.export_path = has ? make_export_path(row.best_path) : nullptr;
  for (std::size_t idx = 0; idx < neighbors_.size(); ++idx) {
    sync_neighbor(idx, row);
  }
}

// Once per delivered UPDATE. The row table is the protocol state itself:
// per-event lookups there are the decision process, and a row is added
// only on a prefix's first sight.
void Speaker::handle_update(topo::AsIndex from, const BgpUpdateMsg& msg) {
  const std::size_t idx = index_of(from);
  NeighborState& n = neighbors_[idx];
  if (!n.up) return;
  ++updates_received_;
  SCION_METRIC_COUNT("bgp.updates_received", 1);
  SCION_METRIC_COUNT("bgp.prefixes_withdrawn", msg.withdrawn.size());
  SCION_METRIC_COUNT("bgp.prefixes_announced", msg.announced.size());

  for (Prefix p : msg.withdrawn) {
    Row* row = find_row(p);
    if (row == nullptr || !row->slots[idx].in) continue;
    row->slots[idx].in = nullptr;
    row->slots[idx].stale = false;
    // A withdrawal of a previously held route is one flap (RFC 2439).
    if (options_.damping.enabled) damping_charge(idx, p);
    reevaluate(*row);
  }

  if (!msg.announced.empty()) {
    SCION_CHECK(msg.path, "announcement without an AS path");
    if (contains(msg.path, self_)) return;  // AS-path loop, discard
    for (Prefix p : msg.announced) {
      Row& row = row_for(p);
      if (!row.learned) {
        row.learned = true;
        ++rib_in_prefixes_;
      }
      Slot& slot = row.slots[idx];
      // A path change over a held route is one flap; a fresh announcement
      // (including a graceful-restart refresh of the same path) is not.
      if (options_.damping.enabled && slot.in && !slot.stale &&
          !same_path(slot.in, msg.path)) {
        damping_charge(idx, p);
      }
      slot.in = msg.path;
      slot.stale = false;
      reevaluate(row);
    }
  }
  SCION_METRIC_GAUGE_MAX("bgp.loc_rib_routes", loc_rib_routes_);
  SCION_METRIC_GAUGE_MAX("bgp.rib_in_prefixes", rib_in_prefixes_);
}

void Speaker::session_down(topo::AsIndex neighbor, bool forwarding_preserved) {
  const std::size_t idx = index_of(neighbor);
  NeighborState& n = neighbors_[idx];
  if (!n.up) return;
  n.up = false;
  clear_pending(idx);
  for (Row& row : rows_) row.slots[idx].out = nullptr;
  ++n.gr_epoch;

  // Graceful restart only helps when the data plane through the neighbor
  // still works (a process restart, not a link loss): retaining a stale
  // route through a dead link would mask live alternatives in the decision
  // process instead of preserving anything.
  if (options_.graceful_restart.enabled && forwarding_preserved) {
    // Preserve forwarding: mark this neighbor's routes stale instead of
    // flushing. They stay in the decision process; the stale timer flushes
    // them if the session never comes back.
    std::size_t retained = 0;
    for (Row& row : rows_) {
      Slot& slot = row.slots[idx];
      if (slot.in && !slot.stale) {
        slot.stale = true;
        ++retained;
      }
    }
    stale_retained_ += retained;
    SCION_METRIC_COUNT("bgp.gr_stale_retained", retained);
    if (retained > 0) {
      const std::uint32_t epoch = n.gr_epoch;
      schedule_(options_.graceful_restart.stale_timer, TimerKind::kGrStale,
                [this, idx, epoch] { flush_stale(idx, epoch); });
    }
    return;
  }

  // Drop everything learned from this neighbor and re-decide in prefix
  // order. Each lost route counts as one flap against its adjacency.
  for (const RowRef& ref : row_index_) {
    Row& row = rows_[ref.row];
    if (row.slots[idx].in) {
      row.slots[idx].in = nullptr;
      row.slots[idx].stale = false;
      if (options_.damping.enabled) damping_charge(idx, ref.prefix);
      reevaluate(row);
    }
  }
}

void Speaker::session_up(topo::AsIndex neighbor) {
  const std::size_t idx = index_of(neighbor);
  NeighborState& n = neighbors_[idx];
  if (n.up) return;
  n.up = true;
  ++n.gr_epoch;

  if (options_.graceful_restart.enabled) {
    // Re-sync: the peer replays its full table, refreshing stale routes as
    // the announcements land. Whatever is still stale once the replay
    // window closes no longer exists on the peer and must be swept.
    const bool any_stale = std::any_of(
        rows_.begin(), rows_.end(),
        [idx](const Row& row) { return row.slots[idx].stale; });
    if (any_stale) {
      const std::uint32_t epoch = n.gr_epoch;
      schedule_(options_.graceful_restart.resync_flush_delay,
                TimerKind::kGrStale,
                [this, idx, epoch] { flush_stale(idx, epoch); });
    }
  }

  // Full table export towards the restored session, reusing each row's
  // export path.
  for (const RowRef& ref : row_index_) {
    Row& row = rows_[ref.row];
    if (row.best != kNoBest) sync_neighbor(idx, row);
  }
}

void Speaker::flush_stale(std::size_t idx, std::uint32_t epoch) {
  NeighborState& n = neighbors_[idx];
  if (n.gr_epoch != epoch) return;  // session flipped since this was armed
  for (const RowRef& ref : row_index_) {
    Row& row = rows_[ref.row];
    if (row.slots[idx].stale) {
      row.slots[idx].in = nullptr;
      row.slots[idx].stale = false;
      ++stale_expired_;
      SCION_METRIC_COUNT("bgp.gr_stale_expired", 1);
      reevaluate(row);
    }
  }
}

bool Speaker::session_is_up(topo::AsIndex neighbor) const {
  return neighbors_[index_of(neighbor)].up;
}

std::optional<Speaker::Route> Speaker::best(Prefix p) const {
  const Row* row = find_row(p);
  if (row == nullptr || row->best == kNoBest) return std::nullopt;
  return Route{row->best_path, rel_of(row->best), as_of(row->best),
               row->best_stale};
}

std::vector<Speaker::Route> Speaker::multipath(Prefix p) const {
  std::vector<Route> out;
  const std::optional<Route> best = this->best(p);
  if (!best) return out;
  if (best->neighbor == self_) {
    out.push_back(*best);  // own prefix
    return out;
  }
  const Row& row = *find_row(p);
  for (std::uint32_t idx = 0; idx < row.slots.size(); ++idx) {
    if (!row.slots[idx].in) continue;
    if (slot_suppressed(idx, p)) continue;
    if (local_pref(rel_of(idx)) == local_pref(best->learned_from) &&
        length(row.slots[idx].in) == best->length()) {
      out.push_back(Route{row.slots[idx].in, rel_of(idx), as_of(idx),
                          row.slots[idx].stale});
    }
  }
  return out;
}

void Speaker::arm_mrai(std::size_t idx) {
  NeighborState& n = neighbors_[idx];
  if (n.mrai_armed) return;
  n.mrai_armed = true;
  // Seeded jitter desynchronizes neighbors, as deployed MRAI timers do
  // (+/-20% by default). The draw happens even for zero jitter so the RNG
  // stream is identical across jitter settings.
  const double j = options_.mrai_jitter;
  const auto delay = util::Duration::nanoseconds(static_cast<std::int64_t>(
      static_cast<double>(options_.mrai.ns()) * rng_.uniform(1.0 - j, 1.0 + j)));
  schedule_(delay, TimerKind::kMrai, [this, idx] {
    neighbors_[idx].mrai_armed = false;
    flush(idx);
  });
}

void Speaker::flush(std::size_t idx) {
  NeighborState& n = neighbors_[idx];
  if (!n.up || n.pending.empty()) {
    clear_pending(idx);
    return;
  }

  // One UPDATE per announced prefix, in prefix order; withdrawals ride
  // along with the first one (RFC 4271 allows both in one UPDATE) or form
  // their own if there is nothing to announce. Sorting by prefix makes the
  // UPDATE sequence a pure function of the pending set.
  std::sort(n.pending.begin(), n.pending.end(),
            [](const PendingChange& a, const PendingChange& b) {
              return a.prefix < b.prefix;
            });
  std::vector<Prefix> withdrawals;
  for (const PendingChange& change : n.pending) {
    rows_[change.row].slots[idx].pending = 0;
    if (!change.path) withdrawals.push_back(change.prefix);
  }
  bool first = true;
  for (PendingChange& change : n.pending) {
    if (!change.path) continue;
    // An announced path is the prefix's own Adj-RIB-Out entry, built by its
    // row: paths to different prefixes are different objects, so grouping
    // announcements by path could never merge two prefixes into one UPDATE.
    SCION_DCHECK(change.path == rows_[change.row].slots[idx].out,
                 "pending announcement is not the prefix's Adj-RIB-Out path");
    BgpUpdateMsg msg;
    msg.announced.push_back(change.prefix);
    msg.path = std::move(change.path);
    if (first) msg.withdrawn = std::move(withdrawals);
    first = false;
    ++updates_sent_;
    SCION_METRIC_COUNT("bgp.updates_sent", 1);
    send_(n.info.as, std::move(msg));
  }
  if (first && !withdrawals.empty()) {
    BgpUpdateMsg msg;
    msg.withdrawn = std::move(withdrawals);
    ++updates_sent_;
    SCION_METRIC_COUNT("bgp.updates_sent", 1);
    send_(n.info.as, std::move(msg));
  }
  n.pending.clear();  // keeps its capacity for the next MRAI round
}

}  // namespace scion::bgp
