// Versioned, hash-validated on-disk cache for the analysis server.
//
// Layout: one append-only log per cache directory, `<dir>/entries.log`,
// of self-validating records
//
//   deepmc-cache-v<version> <key> <payload-hash-32hex> <payload-size>\n
//   <payload>
//
// where the payload is the raw src/serve/wire.h encoding. An in-memory
// index maps each key to its latest record, so a put is one write() to
// the open log and a get one pread(). Every get checks the record's
// version, key, size and payload hash: a version bump, a torn append, bit
// rot or a log rewritten behind the cache's back all read back as a miss,
// never as wrong results.
//
// Opening the log streams its record headers in order (payload hashes are
// checked on get). A later record for a key supersedes an earlier one; a
// record of another version counts as corrupt. A header that does not
// parse, or a record that runs past the end of the file, ends the scan,
// and the log is cut there: that is the torn tail a kill -9 mid-append
// leaves, and it counts as one corrupt record.
//
// Superseded, evicted, corrupt and other-version records are dead bytes.
// Once they exceed the live bytes, the live records are rewritten, least
// recently used first, into a temporary file that is renamed over the
// log. That file is the only one the cache creates after opening the log.
//
// Degraded mode, never crash: every failure path — unreadable directory,
// corrupt record, full disk, or an injected fault at "cache.read" /
// "cache.write" (src/support/faultpoint.h) — degrades to a miss or a
// dropped write and bumps a counter. The server stays up and falls back
// to full recomputation.
//
// Bounded mode: Limits caps the live entry count and/or live bytes. An
// in-memory LRU order (the log's order at open, so bounds survive
// restarts) evicts least-recently-used entries after each store; get()
// refreshes recency. Limits of 0 mean unbounded, the historical behavior.
//
// One process per directory is the supported setup. A second process on
// the same log may miss the entries the other writes, but the key and
// hash checks keep it from ever returning wrong bytes.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace deepmc::serve {

class DiskCache {
 public:
  /// Record-format version written into and required from every header.
  /// Bump when the wire encoding changes; old records then read as misses.
  static constexpr uint32_t kFormatVersion = 2;

  /// Capacity bounds over live entries; 0 = unbounded.
  struct Limits {
    uint64_t max_entries = 0;
    uint64_t max_bytes = 0;  ///< total live record bytes (header+payload)
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t corrupt = 0;       ///< failed checks, other versions, torn tails
    uint64_t read_faults = 0;   ///< injected "cache.read" trips
    uint64_t write_faults = 0;  ///< injected "cache.write" trips
    uint64_t write_errors = 0;  ///< bad keys and I/O failures while storing
    uint64_t evictions = 0;     ///< entries removed by the LRU bound
    uint64_t evicted_bytes = 0; ///< record bytes those entries held
    uint64_t entries = 0;       ///< live entries currently indexed
    uint64_t bytes = 0;         ///< live record bytes currently indexed
  };

  /// An empty `dir` disables the cache: every get misses, every put is a
  /// no-op. `version` overrides the header version (tests use this to
  /// exercise version-mismatch recovery).
  explicit DiskCache(std::string dir, uint32_t version = kFormatVersion);
  /// Bounded variant; see Limits.
  DiskCache(std::string dir, uint32_t version, Limits limits);
  ~DiskCache();
  DiskCache(const DiskCache&) = delete;
  DiskCache& operator=(const DiskCache&) = delete;

  [[nodiscard]] bool enabled() const { return !dir_.empty(); }

  /// Payload for `key`, or nullopt on miss/corruption/fault.
  std::optional<std::string> get(const std::string& key);

  /// Best-effort store; failures are counted, not raised. Keys must be
  /// non-empty, at most 1024 bytes and free of whitespace; any other key
  /// counts as a write error.
  void put(const std::string& key, std::string_view payload);

  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::list<std::string>::iterator pos;  ///< position in lru_
    uint64_t offset = 0;                   ///< record start in the log
    uint64_t bytes = 0;                    ///< record size, header+payload
  };
  using Index = std::unordered_map<std::string, Entry>;

  [[nodiscard]] std::string log_path() const;
  /// Everything below runs under mu_. `scan` indexes the open log and cuts
  /// a torn tail (false: the log is unreadable); `index_insert` (re)binds
  /// a key as most recent, its previous record going dead; `index_erase`
  /// forgets a key, its record going dead; `evict` enforces Limits;
  /// `compact_if_due` rewrites the log once dead bytes exceed live bytes.
  bool scan_locked();
  void index_insert_locked(const std::string& key, uint64_t offset,
                           uint64_t bytes);
  void index_erase_locked(Index::iterator it);
  void evict_locked();
  void compact_if_due_locked();

  std::string dir_;
  uint32_t version_;
  Limits limits_;
  mutable std::mutex mu_;
  Stats stats_;
  int fd_ = -1;  ///< the log, opened O_APPEND
  std::list<std::string> lru_;  ///< front = most recently used
  Index index_;
  uint64_t live_bytes_ = 0;
  uint64_t dead_bytes_ = 0;
};

}  // namespace deepmc::serve
