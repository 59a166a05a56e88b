// §5.1 claim reproduction: "For these identified performance bugs, we
// manually fix them and see application performance improvement by up to
// 43%."
//
// Each row drives one application's framework through its write-heaviest
// loop twice on the simulated PM device: once with the studied performance
// bugs seeded into the framework (redundant write-backs, whole-object
// flushes, per-write persists, empty-transaction persists) and once fixed.
// The Memcached and Redis rows serve a 50:50 get:put load::next_op stream
// over a table of 24-byte entries (used flag, key, value), writing each
// entry the way the application's SET does. Improvement is measured in
// simulated device time — the metric the bugs actually cost — and in
// redundant write-back traffic.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "frameworks/mnemosyne_mini.h"
#include "frameworks/nvmdirect_mini.h"
#include "frameworks/pmdk_mini.h"
#include "frameworks/pmfs_mini.h"
#include "load/workload.h"
#include "support/str.h"

using namespace deepmc;

namespace {

struct FixResult {
  const char* app;
  const char* workload;
  uint64_t buggy_ns, fixed_ns;
  uint64_t buggy_redundant, fixed_redundant;
  [[nodiscard]] double improvement_pct() const {
    return buggy_ns ? 100.0 * (1.0 - static_cast<double>(fixed_ns) /
                                         static_cast<double>(buggy_ns))
                    : 0;
  }
};

/// Runs one row buggy, then fixed, each on a fresh pool. `row(pool, buggy)`
/// sets the row's framework up on `pool` and returns the loop to measure;
/// only the loop's device time and redundant flushes count.
template <typename Row>
FixResult run_pair(const char* app, const char* workload, Row&& row) {
  FixResult r{app, workload, 0, 0, 0, 0};
  for (const bool buggy : {true, false}) {
    pmem::PmPool pool(1 << 26);  // Optane-like latency model
    auto loop = row(pool, buggy);
    pool.reset_stats();
    loop();
    (buggy ? r.buggy_ns : r.fixed_ns) = pool.stats().sim_ns;
    (buggy ? r.buggy_redundant : r.fixed_redundant) =
        pool.stats().redundant_flushed_lines;
  }
  return r;
}

// Memcached and Redis entries: 0 used flag, 8 key, 16 value.
constexpr uint64_t kEntryBytes = 24;

/// Serves `spec`'s op stream against a table of kEntryBytes entries:
/// put(entry, op) for puts and get(entry) for gets, where `entry` is the
/// key's byte offset into the table.
template <typename Put, typename Get>
void serve(const load::WorkloadSpec& spec, Put&& put, Get&& get) {
  Rng rng = load::thread_rng(spec, 0);
  for (uint64_t i = 0; i < spec.ops_per_thread; ++i) {
    const load::LoadOp op = load::next_op(rng, spec);
    const uint64_t entry = op.key % spec.keys * kEntryBytes;
    if (op.kind == load::OpKind::kPut) {
      put(entry, op);
    } else {
      get(entry);
    }
  }
}

}  // namespace

int main() {
  bench::print_system_config("bench_perf_fixes: §5.1 fix-the-bugs ablation");

  // memslap-50u-50r and redis-mixed: both 50:50 get:put per request.
  load::WorkloadSpec spec;
  spec.threads = 1;
  spec.ops_per_thread = 20'000;
  spec.keys = 2'000;
  spec.mix = {50, 50, 0};
  spec.seed = 7;

  std::vector<FixResult> results;

  // Memcached on Mnemosyne with the chhash/CHash bugs: each put is one
  // durable transaction writing key, value, then the used flag.
  results.push_back(run_pair(
      "memcached (mnemosyne_mini)", "memslap-50u-50r",
      [&spec](pmem::PmPool& pool, bool buggy) {
        mnemosyne::Mnemosyne m(pool, buggy
                                         ? mnemosyne::PerfBugConfig::buggy()
                                         : mnemosyne::PerfBugConfig::clean());
        const uint64_t table = m.pmalloc(spec.keys * kEntryBytes);
        return [&spec, m, table]() mutable {
          serve(
              spec,
              [&](uint64_t entry, const load::LoadOp& op) {
                mnemosyne::DurableTx tx(m);
                tx.write_word(table + entry + 8, op.key);
                tx.write_word(table + entry + 16, op.value);
                tx.write_word(table + entry, 1);
                tx.commit();
              },
              [&](uint64_t entry) { (void)m.read_word(table + entry + 16); });
        };
      }));

  // Redis on pmdk_mini with the PMDK example-program bugs: each put
  // snapshots the whole entry, then writes key, value and the used flag.
  results.push_back(run_pair(
      "redis (pmdk_mini)", "redis-mixed",
      [&spec](pmem::PmPool& pool, bool buggy) {
        pmdk::ObjPool obj(pool, buggy ? pmdk::PerfBugConfig::buggy()
                                      : pmdk::PerfBugConfig::clean());
        const uint64_t dict = obj.alloc(spec.keys * kEntryBytes);
        return [&spec, obj, dict]() mutable {
          serve(
              spec,
              [&](uint64_t entry, const load::LoadOp& op) {
                pmdk::Tx tx(obj);
                tx.add(dict + entry, kEntryBytes);
                tx.write_val<uint64_t>(dict + entry + 8, op.key);
                tx.write_val<uint64_t>(dict + entry + 16, op.value);
                tx.write_val<uint64_t>(dict + entry, 1);
                tx.commit();
              },
              [&](uint64_t entry) {
                (void)obj.read_val<uint64_t>(dict + entry + 16);
              });
        };
      }));

  // PMFS with the super.c / xips.c / files.c bugs, driven by a file
  // write-heavy loop.
  results.push_back(run_pair(
      "pmfs_mini", "file-write", [](pmem::PmPool& pool, bool buggy) {
        auto fs = pmfs::Pmfs::mkfs(pool, pmfs::Geometry{64, 128},
                                   buggy ? pmfs::PerfBugConfig::buggy()
                                         : pmfs::PerfBugConfig::clean());
        const uint32_t ino = fs.create("bench");
        return [fs = std::move(fs), ino]() mutable {
          std::string data(2048, 'd');
          for (int i = 0; i < 2'000; ++i) {
            data[0] = static_cast<char>(i);
            fs.write_file(ino, data.data(), data.size());
          }
        };
      }));

  // NVM-Direct lock/heap loop with the nvm_locks/nvm_heap bugs.
  results.push_back(run_pair(
      "nvmdirect_mini", "lock-alloc-loop", [](pmem::PmPool& pool, bool buggy) {
        auto region = nvmdirect::NvmRegion::create(
            pool, buggy ? nvmdirect::PerfBugConfig::buggy()
                        : nvmdirect::PerfBugConfig::clean());
        const uint64_t mutex = region.mutex_create();
        return [region = std::move(region), mutex]() mutable {
          for (int i = 0; i < 5'000; ++i) {
            region.mutex_lock(mutex);
            const uint64_t blk = region.heap_alloc(64);
            region.heap_free(blk, 64);
            region.mutex_unlock(mutex);
          }
        };
      }));

  bench::Table table({"Application", "Workload", "Buggy (sim ms)",
                      "Fixed (sim ms)", "Improvement",
                      "Redundant line flushes (buggy -> fixed)"});
  double best = 0;
  for (const FixResult& r : results) {
    best = std::max(best, r.improvement_pct());
    table.add_row({r.app, r.workload,
                   strformat("%.2f", static_cast<double>(r.buggy_ns) / 1e6),
                   strformat("%.2f", static_cast<double>(r.fixed_ns) / 1e6),
                   strformat("%.1f%%", r.improvement_pct()),
                   strformat("%llu -> %llu",
                             static_cast<unsigned long long>(r.buggy_redundant),
                             static_cast<unsigned long long>(
                                 r.fixed_redundant))});
  }
  table.print();

  std::printf("Best improvement: %.1f%% (paper: up to 43%%)\n", best);
  const bool ok = best >= 15.0 && best <= 70.0;
  std::printf("\n[%s] §5.1 performance-fix ablation\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
