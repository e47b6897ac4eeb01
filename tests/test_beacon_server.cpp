#include <gtest/gtest.h>

#include <map>

#include "core/beacon_server.hpp"

namespace scion::ctrl {
namespace {

using util::Duration;
using util::TimePoint;

constexpr std::uint64_t kDomain = crypto::kDefaultKeyDomainSeed;

/// Collects every (egress link, PCB) a server emits.
struct SendCollector {
  std::vector<std::pair<topo::LinkIndex, PcbRef>> sent;
  BeaconServer::SendFn fn() {
    return [this](topo::LinkIndex egress, const PcbRef& pcb) {
      sent.emplace_back(egress, pcb);
    };
  }
  std::size_t count_on(topo::LinkIndex l) const {
    std::size_t n = 0;
    for (const auto& [egress, pcb] : sent) n += egress == l;
    return n;
  }
};

/// Core triangle: A(0) - B(1) (two parallel links), A - C(2), B - C.
topo::Topology core_triangle() {
  topo::Topology t;
  const auto a = t.add_as(topo::IsdAsId::make(1, 1), true);
  const auto b = t.add_as(topo::IsdAsId::make(1, 2), true);
  const auto c = t.add_as(topo::IsdAsId::make(2, 3), true);
  t.add_link(a, b, topo::LinkType::kCore);  // link 0
  t.add_link(a, b, topo::LinkType::kCore);  // link 1
  t.add_link(a, c, topo::LinkType::kCore);  // link 2
  t.add_link(b, c, topo::LinkType::kCore);  // link 3
  return t;
}

/// Intra chain: core(0) -> mid(1) -> leaf(2), plus a peer link mid - peer(3).
topo::Topology intra_chain() {
  topo::Topology t;
  const auto core = t.add_as(topo::IsdAsId::make(1, 1), true);
  const auto mid = t.add_as(topo::IsdAsId::make(1, 2), false);
  const auto leaf = t.add_as(topo::IsdAsId::make(1, 3), false);
  const auto peer = t.add_as(topo::IsdAsId::make(1, 4), false);
  t.add_link(core, mid, topo::LinkType::kProviderCustomer);  // link 0
  t.add_link(mid, leaf, topo::LinkType::kProviderCustomer);  // link 1
  t.add_link(mid, peer, topo::LinkType::kPeer);              // link 2
  return t;
}

BeaconServerConfig baseline_config() {
  BeaconServerConfig config;
  config.algorithm = AlgorithmKind::kBaseline;
  return config;
}

/// Core AS X with three parallel links to Y and two to A; A, B and C form
/// the rest of the core. X=0, Y=1, A=2, B=3, C=4.
topo::Topology parallel_core() {
  topo::Topology t;
  const auto x = t.add_as(topo::IsdAsId::make(1, 10), true);
  const auto y = t.add_as(topo::IsdAsId::make(1, 11), true);
  const auto a = t.add_as(topo::IsdAsId::make(1, 12), true);
  const auto b = t.add_as(topo::IsdAsId::make(2, 13), true);
  const auto c = t.add_as(topo::IsdAsId::make(2, 14), true);
  t.add_link(x, y, topo::LinkType::kCore);  // link 0
  t.add_link(x, y, topo::LinkType::kCore);  // link 1
  t.add_link(x, y, topo::LinkType::kCore);  // link 2
  t.add_link(x, a, topo::LinkType::kCore);  // link 3
  t.add_link(x, a, topo::LinkType::kCore);  // link 4
  t.add_link(a, b, topo::LinkType::kCore);  // link 5
  t.add_link(b, c, topo::LinkType::kCore);  // link 6
  t.add_link(a, c, topo::LinkType::kCore);  // link 7
  t.add_link(x, c, topo::LinkType::kCore);  // link 8
  return t;
}

/// An unsigned PCB from `origin` along `links` (the last one enters the
/// receiver).
PcbRef path_pcb(const topo::Topology& t, topo::AsIndex origin,
                const std::vector<topo::LinkIndex>& links, TimePoint ts) {
  topo::AsIndex at = origin;
  Pcb pcb = Pcb::originate_unsigned(t.as_id(at), t.interface_of(links[0], at),
                                    ts, Duration::hours(6));
  for (std::size_t i = 1; i < links.size(); ++i) {
    at = t.neighbor(links[i - 1], at);
    pcb = pcb.extend_unsigned(t.as_id(at), t.interface_of(links[i - 1], at),
                              t.interface_of(links[i], at), {});
  }
  return std::make_shared<const Pcb>(std::move(pcb));
}

/// One interval of X's sends as (egress link, path key), in send order.
std::vector<std::pair<topo::LinkIndex, std::uint64_t>> parallel_core_sends() {
  const topo::Topology t = parallel_core();
  crypto::KeyStore keys{kDomain};
  SendCollector collector;
  BeaconServerConfig config = baseline_config();
  config.compute_crypto = false;
  config.dissemination_limit = 3;
  BeaconServer x{t, 0, config, keys, kDomain, collector.fn()};

  const std::vector<std::pair<topo::AsIndex, std::vector<topo::LinkIndex>>>
      paths = {{4, {8}},       {4, {7, 3}},    {4, {7, 4}},    {4, {6, 5, 3}},
               {4, {6, 5, 4}}, {2, {3}},       {2, {4}},       {2, {7, 8}},
               {2, {5, 6, 8}}, {3, {5, 3}},    {3, {5, 4}},    {3, {6, 8}},
               {3, {6, 7, 3}}, {3, {6, 7, 4}}, {3, {5, 7, 8}}, {1, {0}},
               {1, {1}},       {1, {2}}};
  const TimePoint now = TimePoint::origin() + Duration::hours(2);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    // Timestamps 0, 7, 14, 0, 7, ... minutes: equal lengths tie on
    // freshness, then on the path key.
    const TimePoint ts = TimePoint::origin() +
                         Duration::minutes(7 * static_cast<std::int64_t>(i % 3));
    const auto& [origin, links] = paths[i];
    x.handle_pcb(path_pcb(t, origin, links, ts), links.back(), now);
  }
  EXPECT_EQ(x.store().total_stored(), paths.size());
  EXPECT_EQ(x.stats().store_rejected, 0u);

  x.on_interval(now + Duration::minutes(10));
  std::vector<std::pair<topo::LinkIndex, std::uint64_t>> sends;
  for (const auto& [egress, pcb] : collector.sent) {
    sends.emplace_back(egress, pcb->path_key());
  }
  return sends;
}

// Baseline selection depends on the neighbour, not on the parallel link it
// leaves by: every link to Y carries the same PCBs, in link-major order.
// The expected sequence was recorded from the per-link selection that
// preceded selecting once per neighbour.
TEST(BeaconServer, BaselineParallelLinksSendSequencePinned) {
  const std::vector<std::pair<topo::LinkIndex, std::uint64_t>> expected = {
      {0, 0x5e4ce32db2541690ULL}, {1, 0x3920a04353ac9640ULL},
      {2, 0xb603f792e429b948ULL}, {3, 0x802ed2259be8b733ULL},
      {4, 0xc767b85fb2161189ULL}, {8, 0xbe7b73656f8d1318ULL},
      {0, 0x6187122bd8f884bbULL}, {0, 0x4aedcb48921f6ff2ULL},
      {0, 0xeebfb517e0a45a1bULL}, {1, 0xfcad9ffdf015f6a0ULL},
      {1, 0xd3af2c0e5e7933afULL}, {1, 0x57c0743828c41bfbULL},
      {2, 0x9a0c3e28c0701632ULL}, {2, 0x466f5789f582da66ULL},
      {2, 0x5c2da369c11a593aULL}, {0, 0x3751b3ec601601aaULL},
      {0, 0x56b33e1c412fb2edULL}, {0, 0x193e77cf682f180cULL},
      {1, 0x9bca1ae8d7a97fe0ULL}, {1, 0xc659ca8789aa3ea7ULL},
      {1, 0xf9d1d547fbb4dff8ULL}, {2, 0x8c737633d04aca3cULL},
      {2, 0x36ecd87dde178a63ULL}, {2, 0x3cb380ee1b80ca31ULL},
      {0, 0x8d6050b1adca5428ULL}, {0, 0xab8525ef66c919a6ULL},
      {0, 0x90549439b2b5a0a6ULL}, {1, 0x7ce98b8ab2f2b4f6ULL},
      {1, 0x9f1aae22cd0c04caULL}, {1, 0xdec81aa19dac4f6cULL},
      {2, 0x78cb7ece804c05dbULL}, {2, 0x0011663fc4d85157ULL},
      {2, 0xa46f85f0bf40033dULL}, {3, 0xe30a8b22d056e154ULL},
      {3, 0xa359737dda3a31f4ULL}, {3, 0xb0459ff707610c43ULL},
      {4, 0xe27b643863809f0dULL}, {4, 0xcc60e256718e452eULL},
      {4, 0xd6682570a8a88048ULL}, {3, 0x3ec64fef9a2e7055ULL},
      {4, 0x9bfdd01a3e5064e7ULL}, {3, 0xa4ae2c463c5e8b11ULL},
      {4, 0x0917332b796daf79ULL}, {8, 0xbf5f38241c27327eULL},
      {8, 0xac6c41fa4340296dULL}, {8, 0xfae5ead401cabe89ULL},
      {8, 0xf9c942dea902fe07ULL}, {8, 0x72372f6d86e2ea8cULL},
      {8, 0x147c5e14cbd128f1ULL}, {8, 0x61c7018e56fd97f4ULL},
  };
  EXPECT_EQ(parallel_core_sends(), expected);
}

TEST(BeaconServer, CoreOriginatesOnEveryCoreLinkEachInterval) {
  const topo::Topology t = core_triangle();
  crypto::KeyStore keys{kDomain};
  SendCollector collector;
  BeaconServer server{t, 0, baseline_config(), keys, kDomain, collector.fn()};

  server.on_interval(TimePoint::origin());
  // A has 3 core links (0, 1, 2); origination = 1 PCB per link.
  EXPECT_EQ(collector.sent.size(), 3u);
  EXPECT_EQ(collector.count_on(0), 1u);
  EXPECT_EQ(collector.count_on(1), 1u);
  EXPECT_EQ(collector.count_on(2), 1u);
  for (const auto& [egress, pcb] : collector.sent) {
    EXPECT_EQ(pcb->origin(), t.as_id(0));
    EXPECT_EQ(pcb->hops(), 1u);
    EXPECT_EQ(pcb->entries()[0].out_if, t.interface_of(egress, 0));
    EXPECT_TRUE(pcb->verify(keys));
  }
  EXPECT_EQ(server.stats().pcbs_originated, 3u);
}

TEST(BeaconServer, ReceivedPcbStoredAndPropagated) {
  const topo::Topology t = core_triangle();
  crypto::KeyStore keys{kDomain};
  SendCollector from_b;
  BeaconServer b_server{t, 1, baseline_config(), keys, kDomain, from_b.fn()};
  SendCollector from_a;
  BeaconServer a_server{t, 0, baseline_config(), keys, kDomain, from_a.fn()};

  // B originates; deliver its PCB on link 0 to A.
  b_server.on_interval(TimePoint::origin());
  PcbRef pcb_on_0;
  for (const auto& [egress, pcb] : from_b.sent) {
    if (egress == 0) pcb_on_0 = pcb;
  }
  ASSERT_TRUE(pcb_on_0);
  const TimePoint t1 = TimePoint::origin() + Duration::seconds(1);
  a_server.handle_pcb(pcb_on_0, 0, t1);
  EXPECT_EQ(a_server.store().total_stored(), 1u);
  EXPECT_EQ(a_server.stats().pcbs_received, 1u);

  // Next interval, A propagates B's path towards C (link 2) but not back
  // to B (loop prevention).
  from_a.sent.clear();
  a_server.on_interval(t1 + Duration::minutes(10));
  std::size_t propagated_to_c = 0;
  for (const auto& [egress, pcb] : from_a.sent) {
    if (pcb->origin() == t.as_id(1)) {
      EXPECT_EQ(egress, 2u) << "B-origin PCBs must only go to C";
      ++propagated_to_c;
      EXPECT_EQ(pcb->hops(), 2u);
      EXPECT_TRUE(pcb->verify(keys));
      EXPECT_EQ(pcb->entries()[1].isd_as, t.as_id(0));
    }
  }
  EXPECT_EQ(propagated_to_c, 1u);
}

TEST(BeaconServer, DropsLoopingPcb) {
  const topo::Topology t = core_triangle();
  crypto::KeyStore keys{kDomain};
  SendCollector collector;
  BeaconServer a_server{t, 0, baseline_config(), keys, kDomain, collector.fn()};

  // A PCB that already contains A, arriving at A.
  const crypto::SigningKey sk_b = keys.key_for(t.as_id(1).value());
  const auto fk_b = crypto::ForwardingKey::derive(t.as_id(1).value(), kDomain);
  const crypto::SigningKey sk_a = keys.key_for(t.as_id(0).value());
  const auto fk_a = crypto::ForwardingKey::derive(t.as_id(0).value(), kDomain);
  Pcb pcb = Pcb::originate(t.as_id(1), t.interface_of(3, 1), TimePoint::origin(),
                           Duration::hours(6), sk_b, fk_b);
  // ... extended by A itself somehow coming back over link 0:
  pcb = pcb.extend_signed(t.as_id(0), t.interface_of(2, 0),
                          t.interface_of(0, 0), {}, sk_a, fk_a);
  a_server.handle_pcb(std::make_shared<const Pcb>(std::move(pcb)), 0,
                      TimePoint::origin());
  EXPECT_EQ(a_server.store().total_stored(), 0u);
  EXPECT_EQ(a_server.stats().loops_dropped, 1u);
}

TEST(BeaconServer, DropsPcbWithBogusInterfaces) {
  const topo::Topology t = core_triangle();
  crypto::KeyStore keys{kDomain};
  SendCollector collector;
  BeaconServer a_server{t, 0, baseline_config(), keys, kDomain, collector.fn()};

  const crypto::SigningKey sk_b = keys.key_for(t.as_id(1).value());
  const auto fk_b = crypto::ForwardingKey::derive(t.as_id(1).value(), kDomain);
  // B claims an interface it does not have.
  const Pcb pcb = Pcb::originate(t.as_id(1), IfId{999}, TimePoint::origin(),
                                 Duration::hours(6), sk_b, fk_b);
  a_server.handle_pcb(std::make_shared<const Pcb>(pcb), 0, TimePoint::origin());
  EXPECT_EQ(a_server.store().total_stored(), 0u);
  EXPECT_EQ(a_server.stats().resolve_failures, 1u);
}

TEST(BeaconServer, DropsPcbArrivingOnWrongLink) {
  const topo::Topology t = core_triangle();
  crypto::KeyStore keys{kDomain};
  SendCollector b_out;
  BeaconServer b_server{t, 1, baseline_config(), keys, kDomain, b_out.fn()};
  SendCollector a_out;
  BeaconServer a_server{t, 0, baseline_config(), keys, kDomain, a_out.fn()};

  b_server.on_interval(TimePoint::origin());
  PcbRef pcb_on_0;
  for (const auto& [egress, pcb] : b_out.sent) {
    if (egress == 0) pcb_on_0 = pcb;
  }
  ASSERT_TRUE(pcb_on_0);
  // Deliver it as if it came over link 1 (the other parallel link).
  a_server.handle_pcb(pcb_on_0, 1, TimePoint::origin());
  EXPECT_EQ(a_server.stats().resolve_failures, 1u);
}

TEST(BeaconServer, RejectsForgedSignature) {
  const topo::Topology t = core_triangle();
  crypto::KeyStore keys{kDomain};
  SendCollector collector;
  BeaconServer a_server{t, 0, baseline_config(), keys, kDomain, collector.fn()};

  // Forged PCB: built under a different key domain.
  crypto::KeyStore rogue{kDomain + 1};
  const crypto::SigningKey sk = rogue.key_for(t.as_id(1).value());
  const auto fk = crypto::ForwardingKey::derive(t.as_id(1).value(), kDomain + 1);
  const Pcb pcb = Pcb::originate(t.as_id(1), t.interface_of(0, 1),
                                 TimePoint::origin(), Duration::hours(6), sk, fk);
  a_server.handle_pcb(std::make_shared<const Pcb>(pcb), 0, TimePoint::origin());
  EXPECT_EQ(a_server.store().total_stored(), 0u);
  EXPECT_EQ(a_server.stats().verify_failures, 1u);
}

TEST(BeaconServer, IntraIsdFlowsDownhillOnly) {
  const topo::Topology t = intra_chain();
  crypto::KeyStore keys{kDomain};
  BeaconServerConfig config = baseline_config();
  config.mode = BeaconingMode::kIntraIsd;

  SendCollector core_out;
  BeaconServer core_server{t, 0, config, keys, kDomain, core_out.fn()};
  SendCollector mid_out;
  BeaconServer mid_server{t, 1, config, keys, kDomain, mid_out.fn()};
  SendCollector leaf_out;
  BeaconServer leaf_server{t, 2, config, keys, kDomain, leaf_out.fn()};

  // Core originates towards its customer (link 0 only).
  core_server.on_interval(TimePoint::origin());
  ASSERT_EQ(core_out.sent.size(), 1u);
  EXPECT_EQ(core_out.sent[0].first, 0u);

  const TimePoint t1 = TimePoint::origin() + Duration::seconds(1);
  mid_server.handle_pcb(core_out.sent[0].second, 0, t1);
  EXPECT_EQ(mid_server.store().total_stored(), 1u);

  // Mid propagates to its customer (leaf) only — never to the peer or back
  // up to the provider.
  mid_server.on_interval(t1 + Duration::minutes(10));
  ASSERT_EQ(mid_out.sent.size(), 1u);
  EXPECT_EQ(mid_out.sent[0].first, 1u);

  const TimePoint t2 = t1 + Duration::minutes(10) + Duration::seconds(1);
  leaf_server.handle_pcb(mid_out.sent[0].second, 1, t2);
  EXPECT_EQ(leaf_server.store().total_stored(), 1u);

  // Leaf has no customers: nothing to propagate, nothing originated.
  leaf_server.on_interval(t2 + Duration::minutes(10));
  EXPECT_TRUE(leaf_out.sent.empty());
}

TEST(BeaconServer, IntraIsdIncludesPeerEntries) {
  const topo::Topology t = intra_chain();
  crypto::KeyStore keys{kDomain};
  BeaconServerConfig config = baseline_config();
  config.mode = BeaconingMode::kIntraIsd;
  config.include_peer_entries = true;

  SendCollector core_out;
  BeaconServer core_server{t, 0, config, keys, kDomain, core_out.fn()};
  SendCollector mid_out;
  BeaconServer mid_server{t, 1, config, keys, kDomain, mid_out.fn()};

  core_server.on_interval(TimePoint::origin());
  mid_server.handle_pcb(core_out.sent[0].second, 0,
                        TimePoint::origin() + Duration::seconds(1));
  mid_server.on_interval(TimePoint::origin() + Duration::minutes(10));
  ASSERT_EQ(mid_out.sent.size(), 1u);
  const PcbRef& pcb = mid_out.sent[0].second;
  ASSERT_EQ(pcb->entries().size(), 2u);
  ASSERT_EQ(pcb->entries()[1].peers.size(), 1u);
  EXPECT_EQ(pcb->entries()[1].peers[0].peer_as, t.as_id(3));
  EXPECT_TRUE(pcb->verify(keys));
}

TEST(BeaconServer, DiversityOriginationSuppressedWhileFresh) {
  const topo::Topology t = core_triangle();
  crypto::KeyStore keys{kDomain};
  BeaconServerConfig config;
  config.algorithm = AlgorithmKind::kDiversity;

  SendCollector collector;
  BeaconServer server{t, 0, config, keys, kDomain, collector.fn()};
  server.on_interval(TimePoint::origin());
  const std::size_t first = collector.sent.size();
  EXPECT_EQ(first, 3u) << "first interval originates everywhere";

  collector.sent.clear();
  server.on_interval(TimePoint::origin() + Duration::minutes(10));
  EXPECT_TRUE(collector.sent.empty())
      << "second interval must not re-originate fresh paths";

  // Near expiry, origination resumes.
  collector.sent.clear();
  server.on_interval(TimePoint::origin() + Duration::minutes(330));
  EXPECT_EQ(collector.sent.size(), 3u);
}

TEST(BeaconServer, BaselineDisseminationLimitPerInterface) {
  const topo::Topology t = core_triangle();
  crypto::KeyStore keys{kDomain};
  BeaconServerConfig config = baseline_config();
  config.dissemination_limit = 2;

  SendCollector b_out;
  BeaconServer b_server{t, 1, config, keys, kDomain, b_out.fn()};
  SendCollector a_out;
  BeaconServer a_server{t, 0, config, keys, kDomain, a_out.fn()};

  // Feed A five distinct B-origin paths by letting B originate repeatedly
  // over both parallel links plus via C (simulated by distinct out_ifs).
  b_server.on_interval(TimePoint::origin());
  const TimePoint t1 = TimePoint::origin() + Duration::seconds(1);
  for (const auto& [egress, pcb] : b_out.sent) {
    if (egress == 0 || egress == 1) a_server.handle_pcb(pcb, egress, t1);
  }
  EXPECT_EQ(a_server.store().total_stored(), 2u);

  a_out.sent.clear();
  a_server.on_interval(t1 + Duration::minutes(10));
  // Towards C (link 2): at most 2 B-origin PCBs.
  std::size_t b_origin_to_c = 0;
  for (const auto& [egress, pcb] : a_out.sent) {
    if (egress == 2 && pcb->origin() == t.as_id(1)) ++b_origin_to_c;
  }
  EXPECT_LE(b_origin_to_c, 2u);
  EXPECT_GE(b_origin_to_c, 1u);
}

}  // namespace
}  // namespace scion::ctrl
