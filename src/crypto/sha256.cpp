#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace scion::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

std::string Sha256Digest::hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : bytes) {
    out += kHex[b >> 4];
    out += kHex[b & 0xF];
  }
  return out;
}

std::uint64_t Sha256Digest::prefix64() const {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | bytes[static_cast<std::size_t>(i)];
  return v;
}

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

namespace detail {

void compress_portable(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kK[static_cast<std::size_t>(i)] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__) || defined(__i386__)

namespace {

// SHA-NI keeps the working variables as two vectors, {A,B,E,F} and
// {C,D,G,H}; each sha256rnds2 runs two rounds on the low two lanes of its
// message-plus-constant operand.
[[gnu::target("sha,sse4.1"), gnu::always_inline]] inline void rounds4(
    __m128i& abef, __m128i& cdgh, __m128i w, int group) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * static_cast<std::size_t>(group)])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// Four big-endian message words: byte-swaps each 32-bit lane.
[[gnu::target("sha,sse4.1"), gnu::always_inline]] inline __m128i load_words(
    const std::uint8_t* bytes) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes)), bswap);
}

/// Message schedule: W[t..t+3] from W[t-16..t-1], four words per vector.
[[gnu::target("sha,sse4.1"), gnu::always_inline]] inline __m128i next4(
    __m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  return _mm_sha256msg2_epu32(
      _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4)),
      w3);
}

}  // namespace

[[gnu::target("sha,sse4.1")]] void compress_sha_ni(std::uint32_t* state,
                                                   const std::uint8_t* block) {
  // {A,B,C,D},{E,F,G,H} -> {A,B,E,F},{C,D,G,H} (lane names high to low).
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  __m128i w0 = load_words(block);
  __m128i w1 = load_words(block + 16);
  __m128i w2 = load_words(block + 32);
  __m128i w3 = load_words(block + 48);
  rounds4(abef, cdgh, w0, 0);
  rounds4(abef, cdgh, w1, 1);
  rounds4(abef, cdgh, w2, 2);
  rounds4(abef, cdgh, w3, 3);
  for (int group = 4; group < 16; group += 4) {
    w0 = next4(w0, w1, w2, w3);
    rounds4(abef, cdgh, w0, group);
    w1 = next4(w1, w2, w3, w0);
    rounds4(abef, cdgh, w1, group + 1);
    w2 = next4(w2, w3, w0, w1);
    rounds4(abef, cdgh, w2, group + 2);
    w3 = next4(w3, w0, w1, w2);
    rounds4(abef, cdgh, w3, group + 3);
  }
  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);

  // Back to {A,B,C,D},{E,F,G,H}.
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool sha_ni_supported() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & bit_SSSE3) == 0 || (ecx & bit_SSE4_1) == 0) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & bit_SHA) != 0;
}

#else

void compress_sha_ni(std::uint32_t* state, const std::uint8_t* block) {
  compress_portable(state, block);  // never dispatched: no SHA-NI here
}

bool sha_ni_supported() { return false; }

#endif

}  // namespace detail

namespace {

using CompressFn = void (*)(std::uint32_t*, const std::uint8_t*);

/// The process-wide compressor, chosen once by CPUID.
CompressFn compressor() {
  static const CompressFn chosen = detail::sha_ni_supported()
                                       ? &detail::compress_sha_ni
                                       : &detail::compress_portable;
  return chosen;
}

}  // namespace

const char* sha256_engine() {
  return compressor() == &detail::compress_sha_ni ? "sha-ni" : "portable";
}

void Sha256::process_block(const std::uint8_t* block) {
  compressor()(state_.data(), block);
}

void Sha256::update(std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  std::size_t buffered = static_cast<std::size_t>(total_len_ % buffer_.size());
  total_len_ += data.size();
  std::size_t off = 0;
  if (buffered > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered);
    std::memcpy(buffer_.data() + buffered, data.data(), take);
    buffered += take;
    off += take;
    if (buffered == buffer_.size()) process_block(buffer_.data());
  }
  while (off + 64 <= data.size()) {
    process_block(data.data() + off);
    off += 64;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
  }
}

void Sha256::update(std::string_view s) {
  update(std::span<const std::uint8_t>{
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

void Sha256::update_u16(std::uint16_t v) {
  const std::uint8_t b[2] = {static_cast<std::uint8_t>(v >> 8),
                             static_cast<std::uint8_t>(v)};
  update(std::span<const std::uint8_t>{b, 2});
}

void Sha256::update_u32(std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
  update(std::span<const std::uint8_t>{b, 4});
}

void Sha256::update_u64(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
  update(std::span<const std::uint8_t>{b, 8});
}

Sha256Digest Sha256::finalize() {
  // Padding: 0x80, zeros up to byte 56 of a block, the 64-bit bit length.
  // A tail longer than 55 bytes leaves no room for 0x80 plus the length,
  // so it spills into a second block.
  const std::uint64_t bit_len = total_len_ * 8;
  std::size_t len = static_cast<std::size_t>(total_len_ % buffer_.size());
  buffer_[len++] = 0x80;
  if (len > 56) {
    std::memset(buffer_.data() + len, 0, buffer_.size() - len);
    process_block(buffer_.data());
    len = 0;
  }
  std::memset(buffer_.data() + len, 0, 56 - len);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  process_block(buffer_.data());

  Sha256Digest digest;
  for (std::size_t i = 0; i < 8; ++i) {
    digest.bytes[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest.bytes[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest.bytes[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest.bytes[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

Sha256Digest sha256(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Sha256Digest sha256(std::string_view s) {
  Sha256 h;
  h.update(s);
  return h.finalize();
}

Sha256Digest hmac_sha256(std::span<const std::uint8_t> key,
                         std::span<const std::uint8_t> data) {
  std::array<std::uint8_t, 64> k_block{};
  if (key.size() > k_block.size()) {
    const Sha256Digest kd = sha256(key);
    std::memcpy(k_block.data(), kd.bytes.data(), kd.bytes.size());
  } else {
    std::memcpy(k_block.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, 64> ipad{};
  std::array<std::uint8_t, 64> opad{};
  for (std::size_t i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x5c);
  }

  Sha256 inner;
  inner.update(std::span<const std::uint8_t>{ipad});
  inner.update(data);
  const Sha256Digest inner_digest = inner.finalize();

  Sha256 outer;
  outer.update(std::span<const std::uint8_t>{opad});
  outer.update(std::span<const std::uint8_t>{inner_digest.bytes});
  return outer.finalize();
}

}  // namespace scion::crypto
