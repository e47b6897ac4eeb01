// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for PCB/BGPsec signature modelling and hop-field MACs. The streaming
// interface avoids buffering whole messages when hashing serialized
// structures field by field. A hasher is a small value: copying one forks
// the hash of a common prefix (Pcb keeps its path-key prefix this way).
//
// The block compression runs on x86 SHA extensions (SHA-NI) when CPUID
// reports them and on portable C++ otherwise; both give the same digests.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace scion::crypto {

/// A 256-bit digest.
struct Sha256Digest {
  std::array<std::uint8_t, 32> bytes{};

  bool operator==(const Sha256Digest&) const = default;

  /// Lowercase hex rendering.
  std::string hex() const;

  /// First 8 bytes as a little-endian integer; convenient as a hash-map key.
  std::uint64_t prefix64() const;
};

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  Sha256();

  void update(std::span<const std::uint8_t> data);
  void update(std::string_view s);

  /// Appends an integer in big-endian byte order (fixed width).
  void update_u16(std::uint16_t v);
  void update_u32(std::uint32_t v);
  void update_u64(std::uint64_t v);

  /// Finishes and returns the digest; the hasher must not be reused after.
  Sha256Digest finalize();

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  /// The unprocessed tail: total_len_ % 64 bytes.
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_len_{0};
};

/// The compressor this process runs: "sha-ni" or "portable".
const char* sha256_engine();

namespace detail {

/// The two SHA-256 block compressions, exposed for tests. Each absorbs one
/// 64-byte block into `state`. compress_sha_ni may run only where
/// sha_ni_supported() is true.
void compress_portable(std::uint32_t* state, const std::uint8_t* block);
void compress_sha_ni(std::uint32_t* state, const std::uint8_t* block);

/// Whether CPUID reports SHA-NI and the SSE4.1/SSSE3 it needs.
bool sha_ni_supported();

}  // namespace detail

/// One-shot convenience.
Sha256Digest sha256(std::span<const std::uint8_t> data);
Sha256Digest sha256(std::string_view s);

/// HMAC-SHA-256 (RFC 2104).
Sha256Digest hmac_sha256(std::span<const std::uint8_t> key,
                         std::span<const std::uint8_t> data);

}  // namespace scion::crypto
