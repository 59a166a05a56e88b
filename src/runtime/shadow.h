// Shadow segment over the persistent address space (paper §4.4).
//
// "DeepMC maps the NVM program's persistent address space to a shadow
// segment. The shadow segment is responsible for tracking the history of
// reads and writes issued by a set of strands to each persistent memory
// address." Tracking is at 8-byte-word granularity, sparse: only addresses
// actually touched by instrumented persistent accesses get shadow cells —
// this is what makes the dynamic checker scale with the amount of
// persistent memory actually used rather than total memory (§5.2).
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "runtime/clock_table.h"
#include "support/source_loc.h"

namespace deepmc::rt {

inline constexpr uint64_t kShadowWordBytes = 8;

/// Word addresses hash to one of `shards` independent sub-segments, each
/// with its own mutex, so writer threads touching disjoint regions never
/// contend. The checker keys happens-before off the EpochClockTable's
/// scalar sequences, so a cell only needs the last writer's identity and
/// location.
class ShardedShadowSegment {
 public:
  struct Cell {
    StrandId last_strand = 0;
    bool written = false;
    SourceLoc last_loc;
  };

  /// `shards` is rounded up to a power of two (minimum 1).
  explicit ShardedShadowSegment(uint32_t shards) {
    uint32_t n = 1;
    while (n < shards && n < (1u << 16)) n <<= 1;
    shards_ = std::vector<Shard>(n);
    mask_ = n - 1;
  }

  /// Run `fn(word_addr, cell)` for each word of [addr, addr+size), locking
  /// exactly one shard at a time (never nested).
  template <typename Fn>
  void for_each_word(uint64_t addr, uint64_t size, Fn&& fn) {
    if (size == 0) return;
    const uint64_t first = addr / kShadowWordBytes;
    const uint64_t last = (addr + size - 1) / kShadowWordBytes;
    for (uint64_t w = first; w <= last; ++w) {
      Shard& sh = shard_of(w);
      std::lock_guard<std::mutex> lock(sh.mu);
      fn(w * kShadowWordBytes, sh.cells[w]);
    }
  }

  [[nodiscard]] size_t tracked_words() const {
    size_t n = 0;
    for (const Shard& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      n += sh.cells.size();
    }
    return n;
  }

  [[nodiscard]] uint32_t shard_count() const {
    return static_cast<uint32_t>(shards_.size());
  }
  [[nodiscard]] uint32_t shard_index(uint64_t addr) const {
    return index_of(addr / kShadowWordBytes);
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Cell> cells;

    Shard() = default;
    // vector<Shard> needs these; shards are only moved while unshared
    // (construction time).
    Shard(Shard&& o) noexcept : cells(std::move(o.cells)) {}
    Shard& operator=(Shard&& o) noexcept {
      cells = std::move(o.cells);
      return *this;
    }
  };

  [[nodiscard]] uint32_t index_of(uint64_t word) const {
    // splitmix-style scramble so adjacent words spread across shards.
    uint64_t z = word * 0x9e3779b97f4a7c15ull;
    z ^= z >> 29;
    return static_cast<uint32_t>(z) & mask_;
  }
  Shard& shard_of(uint64_t word) { return shards_[index_of(word)]; }

  std::vector<Shard> shards_;
  uint32_t mask_ = 0;
};

}  // namespace deepmc::rt
