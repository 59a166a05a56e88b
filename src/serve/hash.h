// Content hashing for the incremental analysis server (docs/SERVER.md).
//
// One 128-bit hash serves every cache key and every record's payload
// check. It reads the byte stream as 16-byte blocks of two little-endian
// 64-bit words, one word per lane, mixes each block with MurmurHash3
// x64_128's multiply-rotate step, and finishes with its fmix64 avalanche
// salted with the total length. The stream is buffered across update()
// calls, so any split of the same bytes gives the same digest. Cheap,
// dependency-free, deterministic across platforms, and with a collision
// probability that is negligible at cache scale. Not cryptographic: the
// cache trusts its own directory, and corruption is caught separately by
// the payload hash in every entry header (src/serve/cache.h).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace deepmc::serve {

class Hasher {
 public:
  Hasher& update(std::string_view bytes) {
    const char* p = bytes.data();
    size_t n = bytes.size();
    if (n == 0) return *this;
    len_ += n;
    if (fill_ > 0) {  // top up the pending block first
      const size_t take = n < kBlock - fill_ ? n : kBlock - fill_;
      std::memcpy(buf_ + fill_, p, take);
      fill_ += take;
      p += take;
      n -= take;
      if (fill_ < kBlock) return *this;
      mix(buf_, h1_, h2_);
      fill_ = 0;
    }
    for (; n >= kBlock; p += kBlock, n -= kBlock) mix(p, h1_, h2_);
    if (n > 0) std::memcpy(buf_, p, n);
    fill_ = n;
    return *this;
  }

  /// The 8 little-endian bytes of `v`.
  Hasher& update_u64(uint64_t v) {
    char le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<char>(v >> (i * 8));
    return update({le, sizeof le});
  }

  /// A logical field: its length, then its bytes, so ("ab","c") and
  /// ("a","bc") hash differently whatever bytes the fields hold.
  Hasher& field(std::string_view bytes) {
    return update_u64(bytes.size()).update(bytes);
  }

  /// 32 lowercase hex digits (128 bits) over every byte so far. The
  /// hasher is left as it was and can take more bytes.
  [[nodiscard]] std::string hex() const {
    uint64_t h1 = h1_;
    uint64_t h2 = h2_;
    if (fill_ > 0) {  // the tail block, zero-padded, without the lane mix
      char tail[kBlock] = {};
      std::memcpy(tail, buf_, fill_);
      if (fill_ > 8) h2 ^= mix_k2(word(tail + 8));
      h1 ^= mix_k1(word(tail));
    }
    h1 ^= len_;
    h2 ^= len_;
    h1 += h2;
    h2 += h1;
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 += h2;
    h2 += h1;
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i) {
      out[15 - i] = kDigits[(h1 >> (4 * i)) & 0xf];
      out[31 - i] = kDigits[(h2 >> (4 * i)) & 0xf];
    }
    return out;
  }

 private:
  static constexpr size_t kBlock = 16;
  static constexpr uint64_t kC1 = 0x87c37b91114253d5ull;
  static constexpr uint64_t kC2 = 0x4cf5ad432745937full;
  static constexpr uint64_t kSeed = 0x9e3779b97f4a7c15ull;  // golden ratio
  static constexpr char kDigits[] = "0123456789abcdef";

  static uint64_t word(const char* p) {
    uint64_t v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, p, sizeof v);
    } else {
      for (int i = 0; i < 8; ++i)
        v |= uint64_t{static_cast<unsigned char>(p[i])} << (i * 8);
    }
    return v;
  }
  static uint64_t mix_k1(uint64_t k) {
    return std::rotl(k * kC1, 31) * kC2;
  }
  static uint64_t mix_k2(uint64_t k) {
    return std::rotl(k * kC2, 33) * kC1;
  }
  static void mix(const char* block, uint64_t& h1, uint64_t& h2) {
    h1 ^= mix_k1(word(block));
    h1 = (std::rotl(h1, 27) + h2) * 5 + 0x52dce729;
    h2 ^= mix_k2(word(block + 8));
    h2 = (std::rotl(h2, 31) + h1) * 5 + 0x38495ab5;
  }
  static uint64_t fmix64(uint64_t k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ull;
    k ^= k >> 33;
    return k;
  }

  uint64_t h1_ = kSeed;
  uint64_t h2_ = kSeed;
  uint64_t len_ = 0;
  size_t fill_ = 0;  ///< bytes pending in buf_, always < kBlock
  char buf_[kBlock] = {};
};

inline std::string hash_bytes(std::string_view bytes) {
  return Hasher().update(bytes).hex();
}

}  // namespace deepmc::serve
