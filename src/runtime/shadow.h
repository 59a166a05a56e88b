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
#include <memory>
#include <mutex>
#include <unordered_map>

#include "runtime/clock_table.h"
#include "support/source_loc.h"

namespace deepmc::rt {

inline constexpr uint64_t kShadowWordBytes = 8;

/// Word addresses map to one of `shards` independent sub-segments, each
/// with its own mutex. The shard is picked by the word's 4 KiB page, and
/// the hash reaches every address bit, the address-space tag included
/// (AddrSpaceScope puts it at bit 44 and up). So threads that work on their
/// own pages, such as src/load's workers on their own pools, lock their own
/// shards: equal offsets in two workers' pools, which are the Zipf-hot
/// slots, land in different shards, and a thread's run over one page stays
/// on one lock. Every word still maps to exactly one shard, so a word's
/// accesses stay serialized. The checker keys happens-before off the
/// EpochClockTable's scalar sequences, so a cell only needs the last
/// writer's identity and location.
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
    shards_ = std::make_unique<Shard[]>(n);
    count_ = n;
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
    for (uint32_t i = 0; i < count_; ++i) {
      std::lock_guard<std::mutex> lock(shards_[i].mu);
      n += shards_[i].cells.size();
    }
    return n;
  }

  [[nodiscard]] uint32_t shard_count() const { return count_; }
  [[nodiscard]] uint32_t shard_index(uint64_t addr) const {
    return index_of(addr / kShadowWordBytes);
  }

 private:
  /// log2 of the words in a 4 KiB page.
  static constexpr uint32_t kPageWordBits = 9;

  /// Cache-line aligned, so no two shards' locks share a line.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Cell> cells;
  };

  [[nodiscard]] uint32_t index_of(uint64_t word) const {
    // Fibonacci hash of the page; folding the product's high half down
    // carries the high address bits into the index.
    const uint64_t z = (word >> kPageWordBits) * 0x9e3779b97f4a7c15ull;
    return static_cast<uint32_t>(z ^ (z >> 32)) & (count_ - 1);
  }
  Shard& shard_of(uint64_t word) { return shards_[index_of(word)]; }

  std::unique_ptr<Shard[]> shards_;
  uint32_t count_ = 0;
};

}  // namespace deepmc::rt
