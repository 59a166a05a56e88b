#include "serve/cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <utility>
#include <vector>

#include "obs/flight.h"
#include "serve/hash.h"
#include "serve/protocol.h"
#include "support/faultpoint.h"

namespace deepmc::serve {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kTagPrefix = "deepmc-cache-v";
constexpr size_t kMaxKeyBytes = 1024;
/// No header put writes is longer: the key plus the tag, hash and two
/// decimal numbers.
constexpr size_t kMaxRecordHeaderBytes = kMaxKeyBytes + 128;
constexpr uint64_t kMaxPayloadBytes = 1ull << 31;
/// Bytes read per pread while the scan at open streams record headers.
constexpr size_t kScanChunk = 64 * 1024;

struct Header {
  uint64_t version = 0;
  std::string_view key;
  std::string_view hash;
  uint64_t payload_size = 0;
  size_t length = 0;  ///< header bytes, '\n' included
};

bool valid_key(std::string_view key) {
  return !key.empty() && key.size() <= kMaxKeyBytes &&
         std::none_of(key.begin(), key.end(), [](char c) {
           return c == ' ' || (c >= '\t' && c <= '\r');
         });
}

bool parse_decimal(std::string_view s, uint64_t max, uint64_t* out) {
  if (s.empty() || s.size() > 19) return false;
  uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return v <= max;
}

/// The header at the start of `bytes`: four non-empty fields separated by
/// single spaces, ended by '\n' within kMaxRecordHeaderBytes.
std::optional<Header> parse_header(std::string_view bytes) {
  const size_t nl = bytes.substr(0, kMaxRecordHeaderBytes).find('\n');
  if (nl == std::string_view::npos) return std::nullopt;
  const std::string_view line = bytes.substr(0, nl);
  std::string_view f[4];
  size_t n = 0;
  for (size_t start = 0; start <= line.size();) {
    const size_t end = std::min(line.find(' ', start), line.size());
    if (n == 4 || end == start) return std::nullopt;
    f[n++] = line.substr(start, end - start);
    start = end + 1;
  }
  Header h;
  if (n != 4 || f[0].substr(0, kTagPrefix.size()) != kTagPrefix ||
      !parse_decimal(f[0].substr(kTagPrefix.size()), UINT32_MAX,
                     &h.version) ||
      !parse_decimal(f[3], kMaxPayloadBytes, &h.payload_size))
    return std::nullopt;
  h.key = f[1];
  h.hash = f[2];
  h.length = nl + 1;
  return h;
}

/// Header length of `record` if it is exactly the record stored for `key`:
/// parsed header, current version, matching key, size and payload hash.
std::optional<size_t> check_record(std::string_view record,
                                   std::string_view key) {
  const std::optional<Header> h = parse_header(record);
  if (!h || h->version != DiskCache::kFormatVersion || h->key != key ||
      h->length + h->payload_size != record.size() ||
      hash_bytes(record.substr(h->length)) != h->hash)
    return std::nullopt;
  return h->length;
}

bool pread_exact(int fd, char* buf, size_t n, uint64_t offset) {
  while (n > 0) {
    const ssize_t got = ::pread(fd, buf, n, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    buf += got;
    n -= static_cast<size_t>(got);
    offset += static_cast<uint64_t>(got);
  }
  return true;
}

/// Closes the descriptor it holds unless released.
struct UniqueFd {
  int fd = -1;
  explicit UniqueFd(int f) : fd(f) {}
  ~UniqueFd() {
    if (fd >= 0) ::close(fd);
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  int release() { return std::exchange(fd, -1); }
};

}  // namespace

DiskCache::DiskCache(std::string dir, Limits limits)
    : dir_(std::move(dir)), limits_(limits) {
  if (dir_.empty()) return;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (!ec)
    fd_ = ::open(log_path().c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0 || !scan_locked()) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    dir_.clear();  // an unusable directory or log disables the cache
    return;
  }
  evict_locked();
  compact_if_due_locked();
}

DiskCache::~DiskCache() {
  if (fd_ >= 0) ::close(fd_);
}

std::string DiskCache::log_path() const { return dir_ + "/entries.log"; }

bool DiskCache::scan_locked() {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) return false;
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  // `chunk` holds the log's bytes from `chunk_at`; it is refilled whenever
  // it ends before a maximal header at `at` would.
  std::string chunk;
  uint64_t chunk_at = 0;
  uint64_t at = 0;
  while (at < size) {
    const uint64_t want = std::min<uint64_t>(kMaxRecordHeaderBytes, size - at);
    if (at + want > chunk_at + chunk.size()) {
      chunk.resize(std::min<uint64_t>(kScanChunk, size - at));
      if (!pread_exact(fd_, chunk.data(), chunk.size(), at)) return false;
      chunk_at = at;
    }
    const std::optional<Header> h = parse_header(
        std::string_view(chunk).substr(at - chunk_at, want));
    if (!h || h->payload_size > size - at - h->length) break;
    const uint64_t bytes = h->length + h->payload_size;
    if (h->version == kFormatVersion) {
      index_insert_locked(std::string(h->key), at, bytes);
    } else {
      ++stats_.corrupt;
      dead_bytes_ += bytes;
    }
    at += bytes;
  }
  if (at < size) {
    ++stats_.corrupt;  // the torn tail
    if (::ftruncate(fd_, static_cast<off_t>(at)) != 0) return false;
  }
  return true;
}

void DiskCache::index_insert_locked(const std::string& key, uint64_t offset,
                                    uint64_t bytes) {
  auto [it, fresh] = index_.try_emplace(key);
  if (fresh) {
    lru_.push_front(key);
    it->second.pos = lru_.begin();
  } else {
    live_bytes_ -= it->second.bytes;
    dead_bytes_ += it->second.bytes;
    lru_.splice(lru_.begin(), lru_, it->second.pos);
  }
  it->second.offset = offset;
  it->second.bytes = bytes;
  live_bytes_ += bytes;
}

void DiskCache::index_erase_locked(Index::iterator it) {
  live_bytes_ -= it->second.bytes;
  dead_bytes_ += it->second.bytes;
  lru_.erase(it->second.pos);
  index_.erase(it);
}

void DiskCache::evict_locked() {
  const bool bound_entries = limits_.max_entries > 0;
  const bool bound_bytes = limits_.max_bytes > 0;
  if (!bound_entries && !bound_bytes) return;
  while (!lru_.empty() &&
         ((bound_entries && index_.size() > limits_.max_entries) ||
          (bound_bytes && live_bytes_ > limits_.max_bytes))) {
    const auto victim = index_.find(lru_.back());
    const uint64_t bytes = victim->second.bytes;
    obs::flight().record("cache.evict",
                         {{"key", victim->first}, {"bytes", bytes}});
    index_erase_locked(victim);
    ++stats_.evictions;
    stats_.evicted_bytes += bytes;
  }
}

void DiskCache::compact_if_due_locked() {
  if (dead_bytes_ <= live_bytes_) return;
  const uint64_t before = live_bytes_ + dead_bytes_;
  const std::string tmp = log_path() + ".compact";
  UniqueFd out(::open(tmp.c_str(),
                      O_RDWR | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644));
  if (out.fd < 0) {
    ++stats_.write_errors;
    return;
  }
  // Copy every live record that still passes its checks, least recently
  // used first, so that the next open's log order is the LRU order.
  std::vector<std::pair<Entry*, uint64_t>> moved;  // entry, new offset
  std::vector<std::string> bad;
  std::string record;
  uint64_t at = 0;
  bool ok = true;
  for (auto key = lru_.rbegin(); ok && key != lru_.rend(); ++key) {
    Entry& e = index_.at(*key);
    record.resize(e.bytes);
    if (!pread_exact(fd_, record.data(), record.size(), e.offset) ||
        !check_record(record, *key)) {
      bad.push_back(*key);
      continue;
    }
    ok = write_exact(out.fd, record.data(), record.size());
    moved.emplace_back(&e, at);
    at += record.size();
  }
  for (const std::string& key : bad) {
    index_erase_locked(index_.find(key));
    ++stats_.corrupt;
  }
  if (ok) ok = ::rename(tmp.c_str(), log_path().c_str()) == 0;
  if (!ok) {
    ::unlink(tmp.c_str());
    ++stats_.write_errors;  // the old log stays, dead bytes and all
    return;
  }
  ::close(fd_);
  fd_ = out.release();
  for (const auto& [entry, offset] : moved) entry->offset = offset;
  dead_bytes_ = 0;
  obs::flight().record("cache.compact",
                       {{"bytes_before", before}, {"bytes_after", at}});
}

std::optional<std::string> DiskCache::get(const std::string& key) {
  if (!enabled()) return std::nullopt;
  try {
    DEEPMC_FAULTPOINT("cache.read");
  } catch (const support::FaultInjected&) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.read_faults;
    ++stats_.misses;
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  std::string record(it->second.bytes, '\0');
  const std::optional<size_t> header =
      pread_exact(fd_, record.data(), record.size(), it->second.offset)
          ? check_record(record, key)
          : std::nullopt;
  if (!header) {
    index_erase_locked(it);
    ++stats_.corrupt;
    ++stats_.misses;
    compact_if_due_locked();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second.pos);
  ++stats_.hits;
  record.erase(0, *header);
  return record;
}

void DiskCache::put(const std::string& key, std::string_view payload) {
  if (!enabled()) return;
  try {
    DEEPMC_FAULTPOINT("cache.write");
  } catch (const support::FaultInjected&) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.write_faults;
    return;
  }
  if (!valid_key(key) || payload.size() > kMaxPayloadBytes) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.write_errors;
    return;
  }
  std::string record = std::string(kTagPrefix) +
                       std::to_string(kFormatVersion) + ' ' + key + ' ' +
                       hash_bytes(payload) + ' ' +
                       std::to_string(payload.size()) + '\n';
  record.append(payload);
  std::lock_guard<std::mutex> lock(mu_);
  // One write on the O_APPEND descriptor; the record starts where the file
  // position after it, minus its size, says, however the file changed.
  const ssize_t n = ::write(fd_, record.data(), record.size());
  const off_t end = n > 0 ? ::lseek(fd_, 0, SEEK_CUR) : -1;
  if (n != static_cast<ssize_t>(record.size()) || end < n) {
    if (n > 0 && end >= n) {
      // Cut the partial record off; if that fails too, the next open's
      // scan ends at it.
      [[maybe_unused]] const int rc = ::ftruncate(fd_, end - n);
    }
    ++stats_.write_errors;
    return;
  }
  index_insert_locked(key, static_cast<uint64_t>(end - n), record.size());
  evict_locked();
  compact_if_due_locked();
}

DiskCache::Stats DiskCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = index_.size();
  s.bytes = live_bytes_;
  return s;
}

}  // namespace deepmc::serve
