#include "core/scoring.hpp"

#include "util/check.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace scion::ctrl {

namespace {

/// Home slot of a link in a table of `mask + 1` slots (Fibonacci hashing:
/// nearby link ids spread across the table).
std::size_t home_slot(topo::LinkIndex link, std::size_t mask) {
  return static_cast<std::size_t>(
             (static_cast<std::uint64_t>(link) * 0x9E3779B97F4A7C15ULL) >> 32) &
         mask;
}

/// log(c) for 0 < c < kLogTableSize (entry 0 unused).
const std::array<double, kLogTableSize> kLogTable = [] {
  std::array<double, kLogTableSize> t{};
  for (std::int32_t c = 1; c < kLogTableSize; ++c) {
    t[c] = std::log(static_cast<double>(c));
  }
  return t;
}();

}  // namespace

double log_count(std::int32_t count) {
  SCION_DCHECK(count > 0, "log of a zero counter");
  return count < kLogTableSize ? kLogTable[count]
                               : std::log(static_cast<double>(count));
}

std::size_t LinkHistoryTable::probe(topo::LinkIndex link) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home_slot(link, mask);
  while (slots_[i].link != link && slots_[i].link != topo::kInvalidLinkIndex) {
    i = (i + 1) & mask;
  }
  return i;
}

std::size_t LinkHistoryTable::find(topo::LinkIndex link) const {
  if (slots_.empty()) return kNoSlot;
  const std::size_t i = probe(link);
  return slots_[i].link == link ? i : kNoSlot;
}

LinkHistoryTable::Slot& LinkHistoryTable::find_or_insert(
    topo::LinkIndex link) {
  SCION_DCHECK(link != topo::kInvalidLinkIndex,
               "the invalid link id marks empty slots");
  if (4 * (used_ + 1) > 3 * slots_.size()) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 8 : 2 * old.size(), Slot{});
    for (const Slot& s : old) {
      if (s.link != topo::kInvalidLinkIndex) slots_[probe(s.link)] = s;
    }
  }
  Slot& slot = slots_[probe(link)];
  if (slot.link != link) {
    slot.link = link;
    ++used_;
  }
  return slot;
}

void LinkHistoryTable::add_path(std::span<const topo::LinkIndex> links) {
  for (topo::LinkIndex l : links) {
    if (find_or_insert(l).count++ == 0) ++nonzero_;
  }
}

void LinkHistoryTable::remove_path(std::span<const topo::LinkIndex> links) {
  for (topo::LinkIndex l : links) {
    const std::size_t i = find(l);
    if (i == kNoSlot || slots_[i].count == 0) continue;
    if (--slots_[i].count == 0) --nonzero_;
  }
}

int LinkHistoryTable::counter(topo::LinkIndex link) const {
  const std::size_t i = find(link);
  return i == kNoSlot ? 0 : slots_[i].count;
}

double LinkHistoryTable::geometric_mean(
    std::span<const topo::LinkIndex> links) const {
  if (links.empty()) return 0.0;
  double log_sum = 0.0;
  for (topo::LinkIndex l : links) {
    const int c = counter(l);
    if (c == 0) return 0.0;  // a single new link makes the path fully fresh
    log_sum += log_count(c);
  }
  return std::exp(log_sum / static_cast<double>(links.size()));
}

double diversity_score(const LinkHistoryTable& history,
                       std::span<const topo::LinkIndex> path_links,
                       const DiversityParams& params) {
  SCION_CHECK(params.max_geometric_mean > 0.0,
              "diversity normalization needs a positive maximum");
  const double gm = history.geometric_mean(path_links);
  return 1.0 - std::min(1.0, gm / params.max_geometric_mean);
}

double score_fresh(double diversity, Duration age, Duration lifetime,
                   const DiversityParams& params) {
  SCION_CHECK(lifetime > Duration::zero(), "PCB lifetime must be positive");
  diversity = std::clamp(diversity, 0.0, 1.0);
  // Zero diversity means the path is at/beyond the acceptable redundancy;
  // it must never be sent (std::pow(0, 0) == 1 would say otherwise for a
  // brand-new PCB).
  if (diversity == 0.0) return 0.0;
  const double ratio =
      std::clamp(age / lifetime, 0.0, 1.0);
  const double f = params.alpha * ratio;  // Eq. 2
  return std::pow(diversity, f);          // Eq. 1, not-previously-sent branch
}

double score_previously_sent(double stored_diversity, Duration sent_remaining,
                             Duration current_remaining,
                             const DiversityParams& params) {
  stored_diversity = std::clamp(stored_diversity, 0.0, 1.0);
  if (stored_diversity == 0.0) return 0.0;
  // A sent instance that already expired is handled by the caller (the
  // record is purged); clamp defensively anyway.
  const double sent_rem = std::max(0.0, sent_remaining.as_seconds());
  const double cur_rem = std::max(1e-9, current_remaining.as_seconds());
  const double g = std::pow(params.beta * sent_rem / cur_rem, params.gamma);  // Eq. 3
  return std::pow(stored_diversity, g);  // Eq. 1, previously-sent branch
}

double latency_factor(std::uint64_t path_latency_us,
                      const DiversityParams& params) {
  if (params.latency_weight <= 0.0) return 1.0;
  const double latency_ms = static_cast<double>(path_latency_us) / 1000.0;
  return std::pow(2.0, -params.latency_weight * latency_ms / 50.0);
}

std::size_t SentPcbsList::home(const SentKey& key) const {
  return static_cast<std::size_t>(SentKeyHash{}(key) >> 32) &
         (index_.size() - 1);
}

std::size_t SentPcbsList::probe(const SentKey& key) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(key);
  while (index_[i] != kEmpty && !(entries_[index_[i]].key == key)) {
    i = (i + 1) & mask;
  }
  return i;
}

const SentRecord* SentPcbsList::find(const SentKey& key) const {
  if (index_.empty()) return nullptr;
  const std::uint32_t id = index_[probe(key)];
  return id == kEmpty ? nullptr : &entries_[id].record;
}

const SentRecord& SentPcbsList::at(const SentKey& key) const {
  const SentRecord* record = find(key);
  if (record == nullptr) throw std::out_of_range("SentPcbsList::at");
  return *record;
}

std::pair<SentRecord*, bool> SentPcbsList::try_emplace(const SentKey& key) {
  SCION_DCHECK(key.egress != topo::kInvalidLinkIndex,
               "the invalid egress marks erased entries");
  if (2 * (size() + 1) > index_.size()) {
    // Re-index every live entry into a doubled index.
    index_.assign(index_.empty() ? 16 : 2 * index_.size(), kEmpty);
    for (std::uint32_t id = 0; id < entries_.size(); ++id) {
      if (entries_[id].key.egress != topo::kInvalidLinkIndex) {
        index_[probe(entries_[id].key)] = id;
      }
    }
  }
  const std::size_t slot = probe(key);
  if (index_[slot] != kEmpty) return {&entries_[index_[slot]].record, false};
  std::uint32_t id = static_cast<std::uint32_t>(entries_.size());
  if (free_.empty()) {
    SCION_CHECK(entries_.size() < kEmpty, "Sent PCBs List id space exhausted");
    entries_.push_back(Entry{key, SentRecord{}});
  } else {
    id = free_.back();
    free_.pop_back();
    entries_[id] = Entry{key, SentRecord{}};
  }
  index_[slot] = id;
  return {&entries_[id].record, true};
}

bool SentPcbsList::erase(const SentKey& key) {
  if (index_.empty()) return false;
  std::size_t hole = probe(key);
  const std::uint32_t id = index_[hole];
  if (id == kEmpty) return false;
  entries_[id].key.egress = topo::kInvalidLinkIndex;
  free_.push_back(id);
  // Backward-shift deletion: pull later members of the probe run into the
  // hole unless that would move them before their home slot.
  const std::size_t mask = index_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; index_[j] != kEmpty;
       j = (j + 1) & mask) {
    const std::size_t h = home(entries_[index_[j]].key);
    if (((j - h) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = kEmpty;
  return true;
}

}  // namespace scion::ctrl
