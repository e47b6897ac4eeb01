#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "crypto/hopfield_mac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signature.hpp"
#include "util/rng.hpp"

namespace scion::crypto {
namespace {

std::vector<std::uint8_t> bytes(std::string_view s) {
  return {s.begin(), s.end()};
}

// --- SHA-256 against FIPS 180-4 / NIST test vectors --------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(sha256("").hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(sha256("abc").hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finalize().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingEqualsOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : msg) h.update(std::string_view{&c, 1});
  EXPECT_EQ(h.finalize(), sha256(msg));
}

TEST(Sha256, IntegerUpdatesAreBigEndian) {
  Sha256 a;
  a.update_u32(0x01020304);
  const std::uint8_t raw[] = {1, 2, 3, 4};
  Sha256 b;
  b.update(std::span<const std::uint8_t>{raw, 4});
  EXPECT_EQ(a.finalize(), b.finalize());
}

TEST(Sha256, Prefix64Stable) {
  const Sha256Digest d = sha256("abc");
  EXPECT_EQ(d.prefix64(), sha256("abc").prefix64());
  EXPECT_NE(d.prefix64(), sha256("abd").prefix64());
}

// Padding boundaries: a tail of 55 bytes is the longest that takes one
// padding block, 56..63 spill into a second one. The message of length n is
// bytes i % 256 for i < n; the expected digests were computed with
//   python3 -c "import hashlib; print(hashlib.sha256(bytes(i % 256 for i in range(n))).hexdigest())"
TEST(Sha256, PaddingBoundaryLengths) {
  const std::vector<std::pair<std::size_t, std::string>> cases = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59"},
      {56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562"},
      {63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488"},
      {64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108"},
      {119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6"},
      {120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c"},
      {1000, "a8af099bf2e878609558dbf69d8f88f4a31040a8cf84b549a0cfa912f12ffc3f"},
  };
  for (const auto& [n, hex] : cases) {
    std::vector<std::uint8_t> msg(n);
    for (std::size_t i = 0; i < n; ++i) msg[i] = static_cast<std::uint8_t>(i % 256);
    EXPECT_EQ(sha256(msg).hex(), hex) << "length " << n;
  }
}

// --- Both block compressors -------------------------------------------------------

using Compress = void (*)(std::uint32_t*, const std::uint8_t*);

/// One-shot SHA-256 over `msg` on the given compressor, padded per
/// FIPS 180-4 section 5.1.1 independently of Sha256::finalize.
Sha256Digest digest_with(Compress compress, std::span<const std::uint8_t> msg) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::vector<std::uint8_t> padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  for (std::size_t off = 0; off < padded.size(); off += 64) {
    compress(state, padded.data() + off);
  }
  Sha256Digest d;
  for (std::size_t i = 0; i < 32; ++i) {
    d.bytes[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return d;
}

/// The FIPS 180-4 vectors above, then lengths 0..1000 against the
/// dispatched streaming hasher fed in random chunks.
void check_compressor(Compress compress) {
  EXPECT_EQ(digest_with(compress, bytes("")).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest_with(compress, bytes("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(digest_with(compress,
                        bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
                .hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(digest_with(compress, std::vector<std::uint8_t>(1'000'000, 'a')).hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");

  util::Rng rng{180};
  for (std::size_t n = 0; n <= 1000; ++n) {
    std::vector<std::uint8_t> msg(n);
    for (std::uint8_t& b : msg) b = static_cast<std::uint8_t>(rng());
    Sha256 h;
    std::size_t off = 0;
    while (off < n) {
      const std::size_t take =
          std::min(n - off, static_cast<std::size_t>(rng.uniform_int(0, 150)));
      h.update(std::span<const std::uint8_t>{msg.data() + off, take});
      off += take;
    }
    ASSERT_EQ(h.finalize(), digest_with(compress, msg)) << "length " << n;
  }
}

TEST(Sha256Compressors, PortableMatchesVectorsAndStreaming) {
  check_compressor(&detail::compress_portable);
}

TEST(Sha256Compressors, ShaNiMatchesVectorsStreamingAndPortable) {
  if (!detail::sha_ni_supported()) {
    GTEST_SKIP() << "CPUID reports no SHA-NI (leaf 7 EBX bit 29) or no SSE4.1";
  }
  check_compressor(&detail::compress_sha_ni);
  // Arbitrary states and blocks, not only the initial state.
  util::Rng rng{256};
  for (int trial = 0; trial < 1000; ++trial) {
    std::uint32_t a[8];
    std::uint8_t block[64];
    for (std::uint32_t& w : a) w = static_cast<std::uint32_t>(rng());
    for (std::uint8_t& b : block) b = static_cast<std::uint8_t>(rng());
    std::uint32_t b[8];
    std::memcpy(b, a, sizeof a);
    detail::compress_portable(a, block);
    detail::compress_sha_ni(b, block);
    ASSERT_EQ(std::memcmp(a, b, sizeof a), 0) << "trial " << trial;
  }
}

// ci.sh reads the engine name from this test's output.
TEST(Sha256Compressors, EngineNamesTheDispatchedCompressor) {
  const std::string engine = sha256_engine();
  EXPECT_EQ(engine, detail::sha_ni_supported() ? "sha-ni" : "portable");
  std::printf("sha256 engine: %s\n", engine.c_str());
}

// --- HMAC-SHA-256 against RFC 4231 --------------------------------------------

TEST(HmacSha256, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const auto data = bytes("Hi There");
  EXPECT_EQ(hmac_sha256(key, data).hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const auto key = bytes("Jefe");
  const auto data = bytes("what do ya want for nothing?");
  EXPECT_EQ(hmac_sha256(key, data).hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const std::vector<std::uint8_t> key(20, 0xaa);
  const std::vector<std::uint8_t> data(50, 0xdd);
  EXPECT_EQ(hmac_sha256(key, data).hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  const auto data =
      bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(hmac_sha256(key, data).hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- Signature model -----------------------------------------------------------

TEST(Signature, SignVerifyRoundTrip) {
  const SigningKey key = SigningKey::derive(42, 1);
  const auto data = bytes("path segment");
  const Signature sig = sign(key, data);
  EXPECT_TRUE(verify(key, data, sig));
}

TEST(Signature, WireSizeMatchesEcdsaP384) {
  EXPECT_EQ(kSignatureBytes, 96u);
  EXPECT_EQ(sizeof(Signature::bytes), 96u);
}

TEST(Signature, TamperedDataRejected) {
  const SigningKey key = SigningKey::derive(42, 1);
  const Signature sig = sign(key, bytes("original"));
  EXPECT_FALSE(verify(key, bytes("originaL"), sig));
}

TEST(Signature, TamperedSignatureRejected) {
  const SigningKey key = SigningKey::derive(42, 1);
  Signature sig = sign(key, bytes("data"));
  sig.bytes[17] ^= 0x01;
  EXPECT_FALSE(verify(key, bytes("data"), sig));
}

TEST(Signature, WrongSignerRejected) {
  const SigningKey alice = SigningKey::derive(1, 7);
  const SigningKey bob = SigningKey::derive(2, 7);
  const Signature sig = sign(alice, bytes("data"));
  EXPECT_FALSE(verify(bob, bytes("data"), sig));
}

TEST(Signature, DomainSeparatesKeys) {
  const SigningKey a = SigningKey::derive(1, 100);
  const SigningKey b = SigningKey::derive(1, 200);
  EXPECT_NE(a.secret, b.secret);
}

TEST(KeyStore, DeterministicPerSigner) {
  KeyStore store{5};
  const SigningKey& k1 = store.key_for(10);
  KeyStore other{5};
  EXPECT_EQ(k1.secret, other.key_for(10).secret);
  EXPECT_NE(k1.secret, store.key_for(11).secret);
}

TEST(KeyStore, VerifyBySigner) {
  KeyStore store{5};
  const Sha256Digest digest = sha256("hello");
  const Signature sig = sign(store.key_for(7), digest);
  EXPECT_TRUE(store.verify_by(7, digest, sig));
  EXPECT_FALSE(store.verify_by(8, digest, sig));
}

// --- Hop-field MACs --------------------------------------------------------------

TEST(HopMacTest, DeterministicAndKeyed) {
  const ForwardingKey k1 = ForwardingKey::derive(1, 9);
  const ForwardingKey k2 = ForwardingKey::derive(2, 9);
  const HopMac prev{};
  EXPECT_EQ(hop_mac(k1, 1, 2, 1000, prev), hop_mac(k1, 1, 2, 1000, prev));
  EXPECT_NE(hop_mac(k1, 1, 2, 1000, prev), hop_mac(k2, 1, 2, 1000, prev));
}

TEST(HopMacTest, SensitiveToEveryField) {
  const ForwardingKey key = ForwardingKey::derive(1, 9);
  const HopMac prev{};
  const HopMac base = hop_mac(key, 1, 2, 1000, prev);
  EXPECT_NE(base, hop_mac(key, 3, 2, 1000, prev));
  EXPECT_NE(base, hop_mac(key, 1, 4, 1000, prev));
  EXPECT_NE(base, hop_mac(key, 1, 2, 1001, prev));
  HopMac other_prev{};
  other_prev[0] = 1;
  EXPECT_NE(base, hop_mac(key, 1, 2, 1000, other_prev));
}

TEST(HopMacTest, ChainingPreventsSplicing) {
  // MACs computed with different predecessors differ, so splicing a hop
  // field into a different segment invalidates it.
  const ForwardingKey key = ForwardingKey::derive(5, 9);
  const HopMac first = hop_mac(key, 0, 1, 500, HopMac{});
  const HopMac second = hop_mac(key, 2, 3, 500, first);
  const HopMac spliced = hop_mac(key, 2, 3, 500, HopMac{});
  EXPECT_NE(second, spliced);
}

}  // namespace
}  // namespace scion::crypto
