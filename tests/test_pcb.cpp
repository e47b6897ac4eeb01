#include <gtest/gtest.h>

#include <functional>

#include "core/pcb.hpp"
#include "util/rng.hpp"

namespace scion::ctrl {
namespace {

using util::Duration;
using util::TimePoint;

constexpr std::uint64_t kDomain = 77;

struct PcbFixture : ::testing::Test {
  crypto::KeyStore keys{kDomain};
  IsdAsId origin = IsdAsId::make(1, 10);
  IsdAsId middle = IsdAsId::make(1, 20);
  IsdAsId last = IsdAsId::make(2, 30);
  TimePoint t0 = TimePoint::origin() + Duration::minutes(5);
  Duration lifetime = Duration::hours(6);

  crypto::SigningKey sk(IsdAsId as) { return keys.key_for(as.value()); }
  crypto::ForwardingKey fk(IsdAsId as) {
    return crypto::ForwardingKey::derive(as.value(), kDomain);
  }

  Pcb make_chain() {
    const Pcb p0 = Pcb::originate(origin, IfId{3}, t0, lifetime, sk(origin), fk(origin));
    const Pcb p1 = p0.extend_signed(middle, IfId{1}, IfId{2}, {}, sk(middle), fk(middle));
    return p1.extend_signed(last, IfId{4}, IfId{5}, {}, sk(last), fk(last));
  }
};

TEST_F(PcbFixture, OriginateFields) {
  const Pcb pcb = Pcb::originate(origin, IfId{3}, t0, lifetime, sk(origin), fk(origin));
  EXPECT_EQ(pcb.origin(), origin);
  EXPECT_EQ(pcb.timestamp(), t0);
  EXPECT_EQ(pcb.expiry(), t0 + lifetime);
  EXPECT_EQ(pcb.lifetime(), lifetime);
  EXPECT_EQ(pcb.hops(), 1u);
  ASSERT_EQ(pcb.entries().size(), 1u);
  EXPECT_EQ(pcb.entries()[0].in_if, topo::kNoInterface);
  EXPECT_EQ(pcb.entries()[0].out_if, IfId{3});
}

TEST_F(PcbFixture, AgeAndExpiry) {
  const Pcb pcb = Pcb::originate(origin, IfId{3}, t0, lifetime, sk(origin), fk(origin));
  const TimePoint later = t0 + Duration::hours(2);
  EXPECT_EQ(pcb.age(later), Duration::hours(2));
  EXPECT_EQ(pcb.remaining_lifetime(later), Duration::hours(4));
  EXPECT_FALSE(pcb.expired(later));
  EXPECT_TRUE(pcb.expired(t0 + lifetime));
}

TEST_F(PcbFixture, ExtendAppendsAndPreservesTimestamps) {
  const Pcb pcb = make_chain();
  EXPECT_EQ(pcb.hops(), 3u);
  EXPECT_EQ(pcb.origin(), origin);
  EXPECT_EQ(pcb.timestamp(), t0);
  EXPECT_EQ(pcb.entries()[1].isd_as, middle);
  EXPECT_EQ(pcb.entries()[2].out_if, IfId{5});
}

TEST_F(PcbFixture, ContainsAs) {
  const Pcb pcb = make_chain();
  EXPECT_TRUE(pcb.contains_as(origin));
  EXPECT_TRUE(pcb.contains_as(middle));
  EXPECT_FALSE(pcb.contains_as(IsdAsId::make(9, 9)));
}

TEST_F(PcbFixture, WireSizeFollowsLayout) {
  const Pcb p0 = Pcb::originate(origin, IfId{3}, t0, lifetime, sk(origin), fk(origin));
  EXPECT_EQ(p0.wire_size(),
            util::Bytes{kPcbHeaderBytes + kAsEntryFixedBytes +
                        crypto::kSignatureBytes});
  const Pcb p1 = p0.extend_signed(middle, IfId{1}, IfId{2}, {}, sk(middle), fk(middle));
  EXPECT_EQ(p1.wire_size(),
            p0.wire_size() + util::Bytes{kAsEntryFixedBytes +
                                         crypto::kSignatureBytes});

  std::vector<PeerEntry> peers(2);
  peers[0].peer_as = last;
  peers[1].peer_as = origin;
  const Pcb p2 = p1.extend_signed(last, IfId{4}, IfId{5}, peers, sk(last), fk(last));
  EXPECT_EQ(p2.wire_size(),
            p1.wire_size() + util::Bytes{kAsEntryFixedBytes +
                                         crypto::kSignatureBytes +
                                         2 * kPeerEntryBytes});
}

TEST_F(PcbFixture, VerifyAcceptsChain) {
  EXPECT_TRUE(make_chain().verify(keys));
}

TEST_F(PcbFixture, VerifyRejectsWrongKeyDomain) {
  const Pcb pcb = make_chain();
  crypto::KeyStore other{kDomain + 1};
  EXPECT_FALSE(pcb.verify(other));
}

TEST_F(PcbFixture, VerifyRejectsTamperedInterface) {
  Pcb pcb = make_chain();
  // Re-extend with a modified middle entry: simulate tampering by building
  // a PCB whose middle interface was altered after signing.
  const Pcb p0 = Pcb::originate(origin, IfId{3}, t0, lifetime, sk(origin), fk(origin));
  AsEntry forged;
  forged.isd_as = middle;
  forged.in_if = IfId{1};
  forged.out_if = IfId{99};  // altered
  // Copy the legitimate signature from the honest chain.
  forged.signature = pcb.entries()[1].signature;
  forged.hop_mac = pcb.entries()[1].hop_mac;
  const Pcb tampered = p0.extend(forged);
  EXPECT_FALSE(tampered.verify(keys));
}

TEST_F(PcbFixture, VerifyRejectsRemovedMiddleEntry) {
  const Pcb pcb = make_chain();
  const Pcb p0 = Pcb::originate(origin, IfId{3}, t0, lifetime, sk(origin), fk(origin));
  // Splice the last entry directly after the origin (cutting out middle).
  const Pcb spliced = p0.extend(pcb.entries()[2]);
  EXPECT_FALSE(spliced.verify(keys));
}

TEST_F(PcbFixture, PathKeyIgnoresTimestamps) {
  const Pcb a = Pcb::originate(origin, IfId{3}, t0, lifetime, sk(origin), fk(origin));
  const Pcb b = Pcb::originate(origin, IfId{3}, t0 + Duration::minutes(10), lifetime,
                               sk(origin), fk(origin));
  EXPECT_EQ(a.path_key(), b.path_key());
}

TEST_F(PcbFixture, PathKeyDistinguishesPathsAndInterfaces) {
  const Pcb a = Pcb::originate(origin, IfId{3}, t0, lifetime, sk(origin), fk(origin));
  const Pcb b = Pcb::originate(origin, IfId{4}, t0, lifetime, sk(origin), fk(origin));
  EXPECT_NE(a.path_key(), b.path_key());
  const Pcb c = a.extend_signed(middle, IfId{1}, IfId{2}, {}, sk(middle), fk(middle));
  EXPECT_NE(a.path_key(), c.path_key());
}

TEST_F(PcbFixture, UnsignedVariantsMatchWireSizeOfSigned) {
  const Pcb signed_pcb = make_chain();
  const Pcb u0 = Pcb::originate_unsigned(origin, IfId{3}, t0, lifetime);
  const Pcb u1 = u0.extend_unsigned(middle, IfId{1}, IfId{2}, {});
  const Pcb u2 = u1.extend_unsigned(last, IfId{4}, IfId{5}, {});
  EXPECT_EQ(u2.wire_size(), signed_pcb.wire_size());
  EXPECT_EQ(u2.path_key(), signed_pcb.path_key());
  EXPECT_FALSE(u2.verify(keys)) << "zeroed signatures must not verify";
}

TEST_F(PcbFixture, PeerEntryMacsChainFromPredecessor) {
  const Pcb p0 = Pcb::originate(origin, IfId{3}, t0, lifetime, sk(origin), fk(origin));
  std::vector<PeerEntry> peers(1);
  peers[0].peer_as = last;
  peers[0].peer_if = IfId{9};
  const Pcb p1 = p0.extend_signed(middle, IfId{1}, IfId{2}, peers, sk(middle), fk(middle));
  const auto& entry = p1.entries()[1];
  ASSERT_EQ(entry.peers.size(), 1u);
  const crypto::HopMac expected = crypto::hop_mac(
      fk(middle), 9, 2,
      static_cast<std::uint32_t>(p1.expiry().ns() / 1'000'000'000),
      p0.entries()[0].hop_mac);
  EXPECT_EQ(entry.peers[0].hop_mac, expected);
}

// --- Cached derivations against the walking originals -------------------------
//
// The references below are verbatim copies of the walking implementations
// that the cached fields replaced (wire size, latency, loop check, the
// from-scratch path key, and the prefix-by-prefix signature check).

std::size_t ref_wire_size(const Pcb& pcb) {
  std::size_t size = kPcbHeaderBytes;
  for (const AsEntry& e : pcb.entries()) {
    size += kAsEntryFixedBytes + crypto::kSignatureBytes +
            e.peers.size() * kPeerEntryBytes;
    if (pcb.carries_latency()) size += kLatencyMetadataBytes;
  }
  return size;
}

std::uint64_t ref_total_latency_us(const Pcb& pcb) {
  std::uint64_t total = 0;
  for (const AsEntry& e : pcb.entries()) total += e.ingress_latency_us;
  return total;
}

bool ref_contains_as(const Pcb& pcb, IsdAsId as) {
  for (const AsEntry& e : pcb.entries()) {
    if (e.isd_as == as) return true;
  }
  return false;
}

std::uint64_t ref_path_key(const Pcb& pcb) {
  crypto::Sha256 h;
  h.update("scion-mpr/path-key/v1");
  for (const AsEntry& e : pcb.entries()) {
    h.update_u64(e.isd_as.value());
    h.update_u16(e.in_if.value());
    h.update_u16(e.out_if.value());
  }
  return h.finalize().prefix64();
}

void ref_hash_entry_fields(crypto::Sha256& h, const AsEntry& e) {
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

bool ref_verify(const Pcb& pcb, crypto::KeyStore& keys) {
  const std::vector<AsEntry>& entries = pcb.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    crypto::Sha256 h;
    h.update("scion-mpr/pcb/v1");
    h.update_u64(pcb.timestamp().ns() < 0
                     ? 0 : static_cast<std::uint64_t>(pcb.timestamp().ns()));
    h.update_u64(pcb.expiry().ns() < 0
                     ? 0 : static_cast<std::uint64_t>(pcb.expiry().ns()));
    for (std::size_t j = 0; j < i; ++j) {
      ref_hash_entry_fields(h, entries[j]);
      h.update(std::span<const std::uint8_t>{entries[j].signature.bytes});
    }
    ref_hash_entry_fields(h, entries[i]);
    if (!keys.verify_by(entries[i].isd_as.value(), h.finalize(),
                        entries[i].signature)) {
      return false;
    }
  }
  return !entries.empty();
}

void expect_matches_references(const Pcb& pcb) {
  EXPECT_EQ(pcb.wire_size(), util::Bytes{ref_wire_size(pcb)});
  EXPECT_EQ(pcb.total_latency_us(), ref_total_latency_us(pcb));
  EXPECT_EQ(pcb.path_key(), ref_path_key(pcb));
  for (const AsEntry& e : pcb.entries()) EXPECT_TRUE(pcb.contains_as(e.isd_as));
}

/// A random AS not yet on `pcb`'s path.
IsdAsId fresh_as(util::Rng& rng, const Pcb& pcb) {
  for (;;) {
    const IsdAsId as = IsdAsId::make(
        static_cast<std::uint16_t>(rng.uniform_int(1, 3)),
        static_cast<std::uint64_t>(rng.uniform_int(1, 100000)));
    if (!ref_contains_as(pcb, as)) return as;
  }
}

IfId random_if(util::Rng& rng) {
  return IfId{static_cast<std::uint16_t>(rng.uniform_int(1, 500))};
}

std::vector<PeerEntry> random_peers(util::Rng& rng, double p) {
  std::vector<PeerEntry> peers;
  if (!rng.bernoulli(p)) return peers;
  peers.resize(static_cast<std::size_t>(rng.uniform_int(1, 3)));
  for (PeerEntry& peer : peers) {
    peer.peer_as = IsdAsId::make(4, static_cast<std::uint64_t>(rng.uniform_int(1, 1000)));
    peer.peer_if = random_if(rng);
  }
  return peers;
}

/// A random chain of `hops` entries; `extend` appends one hop.
using ExtendFn = std::function<Pcb(const Pcb&, util::Rng&)>;

Pcb random_chain(util::Rng& rng, Pcb pcb, std::size_t hops,
                 const ExtendFn& extend) {
  while (pcb.hops() < hops) {
    pcb = extend(pcb, rng);
    expect_matches_references(pcb);
  }
  return pcb;
}

TEST_F(PcbFixture, CachedDerivationsMatchReferencesOnUnsignedChains) {
  util::Rng rng{2024};
  const ExtendFn extend = [](const Pcb& pcb, util::Rng& r) {
    const IsdAsId as = fresh_as(r, pcb);
    const IfId in_if = random_if(r);
    const IfId out_if = random_if(r);
    std::vector<PeerEntry> peers = random_peers(r, 0.3);
    const auto latency = static_cast<std::uint32_t>(r.uniform_int(0, 200000));
    return pcb.extend_unsigned(as, in_if, out_if, std::move(peers), latency);
  };
  for (std::size_t hops = 1; hops <= 40; ++hops) {
    const IsdAsId as = IsdAsId::make(
        1, static_cast<std::uint64_t>(rng.uniform_int(1, 100000)));
    const Pcb p0 = Pcb::originate_unsigned(as, random_if(rng), t0, lifetime);
    expect_matches_references(p0);
    random_chain(rng, p0, hops, extend);
  }
}

TEST_F(PcbFixture, CachedDerivationsMatchReferencesOnSignedChainsWithPeers) {
  util::Rng rng{7};
  const ExtendFn extend = [this](const Pcb& pcb, util::Rng& r) {
    const IsdAsId as = fresh_as(r, pcb);
    const IfId in_if = random_if(r);
    const IfId out_if = random_if(r);
    std::vector<PeerEntry> peers = random_peers(r, 0.5);
    const auto latency = static_cast<std::uint32_t>(r.uniform_int(0, 200000));
    return pcb.extend_signed(as, in_if, out_if, std::move(peers), sk(as),
                             fk(as), latency);
  };
  for (std::size_t hops = 1; hops <= 40; hops += 3) {
    const Pcb p0 =
        Pcb::originate(origin, random_if(rng), t0, lifetime, sk(origin), fk(origin));
    expect_matches_references(p0);
    const Pcb chain = random_chain(rng, p0, hops, extend);
    EXPECT_TRUE(chain.verify(keys));
    EXPECT_TRUE(ref_verify(chain, keys));
  }
}

TEST_F(PcbFixture, LatencyExtensionEnabledAfterExtensionCountsEveryEntry) {
  util::Rng rng{99};
  Pcb pcb = Pcb::originate_unsigned(origin, IfId{1}, t0, lifetime);
  for (int i = 0; i < 12; ++i) {
    pcb = pcb.extend_unsigned(fresh_as(rng, pcb), random_if(rng), random_if(rng),
                              random_peers(rng, 0.4),
                              static_cast<std::uint32_t>(rng.uniform_int(0, 5000)));
  }
  const util::Bytes without = pcb.wire_size();
  EXPECT_FALSE(pcb.carries_latency());
  pcb.enable_latency_extension();
  expect_matches_references(pcb);
  EXPECT_EQ(pcb.wire_size(),
            without + util::Bytes{pcb.hops() * kLatencyMetadataBytes});
  // Extensions of a carrying PCB keep carrying it.
  const Pcb next = pcb.extend_unsigned(fresh_as(rng, pcb), IfId{2}, IfId{3}, {});
  EXPECT_TRUE(next.carries_latency());
  expect_matches_references(next);
}

TEST_F(PcbFixture, ContainsAsRejectsSummaryBitCollisions) {
  util::Rng rng{31};
  Pcb pcb = Pcb::originate_unsigned(origin, IfId{1}, t0, lifetime);
  for (int i = 0; i < 5; ++i) {
    pcb = pcb.extend_unsigned(fresh_as(rng, pcb), random_if(rng), random_if(rng), {});
  }
  std::uint64_t summary = 0;
  for (const AsEntry& e : pcb.entries()) summary |= as_summary_bit(e.isd_as);
  // ASes off the path whose summary bit is set: the walk runs and must
  // return false.
  std::size_t collisions = 0;
  std::size_t misses = 0;
  for (std::uint64_t n = 1; collisions < 50; ++n) {
    const IsdAsId as = IsdAsId::make(1, n);
    if (ref_contains_as(pcb, as)) continue;
    EXPECT_FALSE(pcb.contains_as(as)) << as.value();
    if ((summary & as_summary_bit(as)) != 0) {
      ++collisions;
    } else {
      ++misses;
    }
  }
  EXPECT_EQ(collisions, 50u);
  EXPECT_GT(misses, 0u);
}

TEST_F(PcbFixture, VerifyAgreesWithReferenceOnHonestAndTamperedChains) {
  util::Rng rng{5};
  crypto::KeyStore other{kDomain + 1};
  for (int trial = 0; trial < 10; ++trial) {
    Pcb chain =
        Pcb::originate(origin, IfId{3}, t0, lifetime, sk(origin), fk(origin));
    const auto hops = static_cast<std::size_t>(rng.uniform_int(2, 12));
    while (chain.hops() < hops) {
      const IsdAsId as = fresh_as(rng, chain);
      chain = chain.extend_signed(as, random_if(rng), random_if(rng),
                                  random_peers(rng, 0.3), sk(as), fk(as));
    }
    EXPECT_TRUE(chain.verify(keys));
    EXPECT_EQ(chain.verify(keys), ref_verify(chain, keys));
    EXPECT_FALSE(chain.verify(other));
    EXPECT_EQ(chain.verify(other), ref_verify(chain, other));

    // Rebuild through extend(), altering one non-origin entry.
    const std::vector<AsEntry>& entries = chain.entries();
    const std::size_t victim = rng.index(entries.size() - 1) + 1;
    Pcb rebuilt =
        Pcb::originate(origin, IfId{3}, t0, lifetime, sk(origin), fk(origin));
    Pcb tampered = rebuilt;
    for (std::size_t i = 1; i < entries.size(); ++i) {
      rebuilt = rebuilt.extend(entries[i]);
      AsEntry e = entries[i];
      if (i == victim) e.ingress_latency_us += 1;
      tampered = tampered.extend(std::move(e));
    }
    EXPECT_TRUE(rebuilt.verify(keys));
    EXPECT_EQ(rebuilt.path_key(), chain.path_key());
    EXPECT_FALSE(tampered.verify(keys));
    EXPECT_EQ(tampered.verify(keys), ref_verify(tampered, keys));
  }
}

}  // namespace
}  // namespace scion::ctrl
