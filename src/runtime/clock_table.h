// Strand clocks for happens-before race detection between strands.
//
// The dynamic checker (paper §4.4) detects WAW and RAW dependencies between
// concurrent strands with happens-before tracking, in the style of
// ThreadSanitizer (which the paper customizes).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace deepmc::rt {

using StrandId = uint32_t;

/// Epoch-batched strand clocks.
///
/// Under the checker's happens-before model every strand's clock ticks
/// exactly once (at strand_begin), and a persist barrier orders the strands
/// that ended before it with every strand born after it. Per-strand vector
/// clocks therefore collapse to two scalars against the global fence
/// counter F:
///
///   birth_seq(S) = F at strand_begin(S)
///   end_seq(T)   = F at strand_end(T)     (kNeverEnded while live)
///
///   T happens-before S  <=>  end_seq(T) < birth_seq(S)
///
/// (T is ordered before S iff some fence falls between T's end and S's
/// birth.) tests/runtime_concurrency_test.cpp checks this rule against a
/// reference vector-clock implementation on random strand/fence schedules.
/// The table stores the two scalars per strand in append-only chunks:
/// strand creation is two stores into the caller's block of ids, ordering
/// queries are two loads, and fences are free — O(1) per event instead of
/// O(history).
///
/// Thread safety: id reservation and chunk growth are internally
/// synchronized. An IdBlock belongs to the one thread that passes it to
/// begin(); that thread's strands then sit in consecutive entries, and the
/// shared counter moves once per kBlockIds strands. Chunks are cache-line
/// aligned, so when every reservation is a block (as in RuntimeChecker)
/// each block fills 16 whole lines that only its thread writes. A
/// strand's entry may be read by other threads only after its id was
/// published through some external happens-before edge (the shadow-shard
/// mutex in the checker), which also publishes the birth store; end_seq is
/// atomic because it changes after publication.
class EpochClockTable {
 private:
  static constexpr size_t kChunkBits = 12;  // 4096 entries per chunk
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
  static constexpr size_t kMaxChunks = 1 << 12;

 public:
  static constexpr uint64_t kNeverEnded = UINT64_MAX;
  /// Most strands one table holds (16,777,216).
  static constexpr uint64_t kCapacity = uint64_t{kMaxChunks} * kChunkSize;
  /// Ids an IdBlock reserves at a time.
  static constexpr uint32_t kBlockIds = 64;

  /// Table indices [next, end) reserved for one thread's strands.
  struct IdBlock {
    uint32_t next = 0;
    uint32_t end = 0;
  };

  /// Allocate a strand id with the given birth fence-sequence. With a
  /// `block`, the id comes from it, and an empty block is refilled with the
  /// next kBlockIds ids; without one, the call reserves a single id.
  /// Throws std::length_error once all kCapacity ids are reserved.
  StrandId begin(uint64_t birth_seq, IdBlock* block = nullptr) {
    IdBlock single;
    IdBlock& b = block != nullptr ? *block : single;
    if (b.next == b.end) b = reserve(block != nullptr ? kBlockIds : 1);
    const uint32_t id = b.next++;
    Entry& e = entry_for(id);
    e.birth = birth_seq;
    e.end.store(kNeverEnded, std::memory_order_release);
    return id + 1;  // strand ids are 1-based; 0 means "no strand"
  }

  void end(StrandId s, uint64_t end_seq) {
    if (s == 0 || s > strands()) return;
    entry_for(s - 1).end.store(end_seq, std::memory_order_release);
  }

  [[nodiscard]] uint64_t birth_seq(StrandId s) const {
    return s == 0 ? 0 : entry_for(s - 1).birth;
  }
  [[nodiscard]] uint64_t end_seq(StrandId s) const {
    return s == 0 ? kNeverEnded
                  : entry_for(s - 1).end.load(std::memory_order_acquire);
  }

  /// True when strand `t` is ordered before strand `s` (t ended before a
  /// fence that precedes s's birth). Strand 0 is "outside any strand" and
  /// is ordered with everything by program order.
  [[nodiscard]] bool ordered_before(StrandId t, StrandId s) const {
    if (t == 0 || s == 0 || t == s) return true;
    const uint64_t te = end_seq(t);
    return te != kNeverEnded && te < birth_seq(s);
  }

  /// Ids reserved so far, at most kCapacity; every valid strand id is
  /// <= strands(). A thread may leave up to kBlockIds - 1 ids of its block
  /// unused, so this can exceed the strands begun (RuntimeChecker counts
  /// those itself).
  [[nodiscard]] uint64_t strands() const {
    // A refused reservation overshoots the counter until it backs out, and
    // the block that reaches kCapacity may end past it.
    const uint64_t n = next_.load(std::memory_order_relaxed);
    return n < kCapacity ? n : kCapacity;
  }

 private:
  struct Entry {
    uint64_t birth = 0;
    std::atomic<uint64_t> end{kNeverEnded};
  };
  struct alignas(64) Chunk {
    Entry entries[kChunkSize];
  };

  IdBlock reserve(uint32_t n) {
    const uint32_t first = next_.fetch_add(n, std::memory_order_relaxed);
    if (first >= kCapacity) {
      next_.fetch_sub(n, std::memory_order_relaxed);
      throw std::length_error("strand table full: a checker tracks at most " +
                              std::to_string(kCapacity) + " strands");
    }
    return {first, static_cast<uint32_t>(
                       std::min<uint64_t>(uint64_t{first} + n, kCapacity))};
  }

  Entry& entry_for(uint32_t idx) {
    return const_cast<Entry&>(
        static_cast<const EpochClockTable*>(this)->entry_for(idx));
  }
  const Entry& entry_for(uint32_t idx) const {
    const size_t chunk = idx >> kChunkBits;
    Entry* p = chunks_[chunk].load(std::memory_order_acquire);
    if (p == nullptr) {
      std::lock_guard<std::mutex> lock(grow_mu_);
      p = chunks_[chunk].load(std::memory_order_relaxed);
      if (p == nullptr) {
        auto fresh = std::make_unique<Chunk>();
        p = fresh->entries;
        storage_.push_back(std::move(fresh));
        chunks_[chunk].store(p, std::memory_order_release);
      }
    }
    return p[idx & (kChunkSize - 1)];
  }

  mutable std::array<std::atomic<Entry*>, kMaxChunks> chunks_{};
  mutable std::mutex grow_mu_;
  mutable std::vector<std::unique_ptr<Chunk>> storage_;
  /// Next unreserved index; on its own cache line, away from the chunk
  /// pointers every entry lookup reads.
  alignas(64) std::atomic<uint32_t> next_{0};
};

}  // namespace deepmc::rt
