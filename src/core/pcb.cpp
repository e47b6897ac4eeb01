#include "core/pcb.hpp"

#include <span>

#include "util/check.hpp"

namespace scion::ctrl {

namespace {

/// Serializes the signed fields of an entry into a hasher.
void hash_entry_fields(crypto::Sha256& h, const AsEntry& e) {
  h.update_u64(e.isd_as.value());
  h.update_u16(e.in_if.value());
  h.update_u16(e.out_if.value());
  h.update_u32(e.ingress_latency_us);
  h.update(std::span<const std::uint8_t>{e.hop_mac.data(), e.hop_mac.size()});
  h.update_u16(static_cast<std::uint16_t>(e.peers.size()));
  for (const PeerEntry& p : e.peers) {
    h.update_u64(p.peer_as.value());
    h.update_u16(p.peer_if.value());
    h.update(std::span<const std::uint8_t>{p.hop_mac.data(), p.hop_mac.size()});
  }
}

std::uint32_t expiry_unix(TimePoint expiry) {
  return static_cast<std::uint32_t>(expiry.ns() / 1'000'000'000);
}

/// Digest covering the segment info, `prefix` in full, and `candidate`'s
/// fields without its signature.
crypto::Sha256Digest signing_digest_over(TimePoint timestamp, TimePoint expiry,
                                         std::span<const AsEntry> prefix,
                                         const AsEntry& candidate) {
  crypto::Sha256 h;
  h.update("scion-mpr/pcb/v1");
  // Segment info. The origin id lives in prefix[0] once present; hashing
  // the timestamps here binds every signature to the instance.
  h.update_u64(timestamp.ns() < 0 ? 0 : static_cast<std::uint64_t>(timestamp.ns()));
  h.update_u64(expiry.ns() < 0 ? 0 : static_cast<std::uint64_t>(expiry.ns()));
  for (const AsEntry& e : prefix) {
    hash_entry_fields(h, e);
    h.update(std::span<const std::uint8_t>{e.signature.bytes});
  }
  hash_entry_fields(h, candidate);
  return h.finalize();
}

}  // namespace

Pcb::Pcb(TimePoint timestamp, TimePoint expiry)
    : timestamp_{timestamp}, expiry_{expiry} {
  key_prefix_.update("scion-mpr/path-key/v1");
}

Pcb::Pcb(const Pcb& parent, std::size_t capacity)
    : timestamp_{parent.timestamp_},
      expiry_{parent.expiry_},
      carries_latency_{parent.carries_latency_},
      entry_bytes_{parent.entry_bytes_},
      total_latency_us_{parent.total_latency_us_},
      as_summary_{parent.as_summary_},
      key_prefix_{parent.key_prefix_},
      path_key_{parent.path_key_} {
  entries_.reserve(capacity);
  entries_.assign(parent.entries_.begin(), parent.entries_.end());
}

void Pcb::append(AsEntry entry) {
  entry_bytes_ += kAsEntryFixedBytes + crypto::kSignatureBytes +
                  entry.peers.size() * kPeerEntryBytes;
  total_latency_us_ += entry.ingress_latency_us;
  as_summary_ |= as_summary_bit(entry.isd_as);
  // The key hashes the AS+interface sequence: the prefix absorbs this
  // entry's 12 bytes and a copy finalizes, leaving the prefix extendable.
  key_prefix_.update_u64(entry.isd_as.value());
  key_prefix_.update_u16(entry.in_if.value());
  key_prefix_.update_u16(entry.out_if.value());
  crypto::Sha256 key = key_prefix_;
  path_key_ = key.finalize().prefix64();
  entries_.push_back(std::move(entry));
}

Pcb Pcb::originate(IsdAsId origin, IfId out_if, TimePoint timestamp,
                   Duration lifetime, const crypto::SigningKey& signing_key,
                   const crypto::ForwardingKey& forwarding_key) {
  SCION_CHECK(lifetime > Duration::zero(), "PCB lifetime must be positive");
  Pcb pcb{timestamp, timestamp + lifetime};
  AsEntry entry;
  entry.isd_as = origin;
  entry.in_if = topo::kNoInterface;
  entry.out_if = out_if;
  entry.hop_mac = crypto::hop_mac(forwarding_key, entry.in_if.value(), entry.out_if.value(),
                                  expiry_unix(pcb.expiry_), crypto::HopMac{});
  entry.signature = crypto::sign(signing_key, pcb.signing_digest(entry));
  pcb.append(std::move(entry));
  return pcb;
}

Pcb Pcb::originate_unsigned(IsdAsId origin, IfId out_if, TimePoint timestamp,
                            Duration lifetime) {
  SCION_CHECK(lifetime > Duration::zero(), "PCB lifetime must be positive");
  Pcb pcb{timestamp, timestamp + lifetime};
  AsEntry entry;
  entry.isd_as = origin;
  entry.in_if = topo::kNoInterface;
  entry.out_if = out_if;
  pcb.append(std::move(entry));
  return pcb;
}

Pcb Pcb::extend_unsigned(IsdAsId as, IfId in_if, IfId out_if,
                         std::vector<PeerEntry> peers,
                         std::uint32_t ingress_latency_us) const {
  SCION_CHECK(!entries_.empty(), "cannot extend an empty PCB");
  AsEntry entry;
  entry.isd_as = as;
  entry.in_if = in_if;
  entry.out_if = out_if;
  entry.ingress_latency_us = ingress_latency_us;
  entry.peers = std::move(peers);
  return extend(std::move(entry));
}

bool Pcb::contains_as(IsdAsId as) const {
  if ((as_summary_ & as_summary_bit(as)) == 0) return false;
  for (const AsEntry& e : entries_) {
    if (e.isd_as == as) return true;
  }
  return false;
}

Pcb Pcb::extend(AsEntry next) const {
  SCION_CHECK(!entries_.empty(), "cannot extend an empty PCB");
  // Propagation must filter looping PCBs before extending; a loop here
  // would invalidate the hop-field chain downstream.
  SCION_DCHECK(!contains_as(next.isd_as), "AS already on the PCB path");
  Pcb out{*this, entries_.size() + 1};
  out.append(std::move(next));
  return out;
}

crypto::Sha256Digest Pcb::signing_digest(const AsEntry& candidate) const {
  return signing_digest_over(timestamp_, expiry_, entries_, candidate);
}

Pcb Pcb::extend_signed(IsdAsId as, IfId in_if, IfId out_if,
                       std::vector<PeerEntry> peers,
                       const crypto::SigningKey& signing_key,
                       const crypto::ForwardingKey& forwarding_key,
                       std::uint32_t ingress_latency_us) const {
  SCION_CHECK(!entries_.empty(), "cannot extend an empty PCB");
  AsEntry entry;
  entry.isd_as = as;
  entry.in_if = in_if;
  entry.out_if = out_if;
  entry.ingress_latency_us = ingress_latency_us;
  entry.peers = std::move(peers);
  entry.hop_mac = crypto::hop_mac(forwarding_key, in_if.value(), out_if.value(),
                                  expiry_unix(expiry_), entries_.back().hop_mac);
  // Peer hop fields authorize entering this AS over the peering interface
  // instead of in_if; their MACs chain off the same predecessor.
  for (PeerEntry& p : entry.peers) {
    p.hop_mac = crypto::hop_mac(forwarding_key, p.peer_if.value(), out_if.value(),
                                expiry_unix(expiry_), entries_.back().hop_mac);
  }
  entry.signature = crypto::sign(signing_key, signing_digest(entry));
  return extend(std::move(entry));
}

bool Pcb::verify(crypto::KeyStore& keys) const {
  // Rebuild the chain of signing digests prefix by prefix.
  const std::span<const AsEntry> entries{entries_};
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const crypto::Sha256Digest digest = signing_digest_over(
        timestamp_, expiry_, entries.first(i), entries[i]);
    if (!keys.verify_by(entries[i].isd_as.value(), digest, entries[i].signature))
      return false;
  }
  return !entries_.empty();
}

}  // namespace scion::ctrl
