// Differential fuzz tests: the persistent data structures are driven with
// long random operation sequences and compared against in-memory reference
// models (std::vector / std::map) — including across crash +
// recovery boundaries, where the persistent structure must agree with the
// reference snapshot taken at the last durable point.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "frameworks/pmfs_mini.h"
#include "load/shards.h"
#include "support/rng.h"

namespace deepmc {
namespace {

pmem::LatencyModel zero() { return pmem::LatencyModel::zero(); }

// --- load::KvShard vs a slot array, across crashes --------------------------

// Every framework's shard against a plain slot-array model. Keys are drawn
// from a wider range than the shard holds, so they wrap onto slots; every
// 250 ops the pool crashes with no flushed-but-unfenced line surviving and
// the shard recovers, after which every slot must still equal the model
// (puts and deletes are durable when they return).
class ShardFuzz
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(ShardFuzz, AgreesWithReferenceModelAcrossCrashes) {
  const auto& [framework, seed] = GetParam();
  load::ShardConfig cfg;
  cfg.keys = 64;
  const std::unique_ptr<load::KvShard> shard = load::make_shard(framework, cfg);
  std::vector<uint64_t> ref(shard->capacity(), 0);
  Rng rng(seed);

  for (int step = 1; step <= 2000; ++step) {
    const uint64_t slot = shard->slot_of(rng.below(200));
    switch (rng.below(3)) {
      case 0: {
        const uint64_t v = rng.next() | 1;  // 0 reads as absent
        shard->put(slot, v);
        ref[slot] = v;
        break;
      }
      case 1:
        EXPECT_EQ(shard->get(slot), ref[slot])
            << "step " << step << " slot " << slot;
        break;
      case 2:
        shard->del(slot);
        ref[slot] = 0;
        break;
    }
    if (step % 250 == 0) {
      pmem::CrashOptions worst;
      worst.pending_survives = 0;
      shard->pool().crash(worst);
      shard->recover();
      for (uint64_t s = 0; s < ref.size(); ++s)
        ASSERT_EQ(shard->get(s), ref[s]) << "step " << step << " slot " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Frameworks, ShardFuzz,
    ::testing::Combine(::testing::ValuesIn(load::framework_names()),
                       ::testing::Values(31, 32, 33)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param));
    });

// --- Pmfs vs a reference directory --------------------------------------------------

class PmfsFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PmfsFuzz, AgreesWithReferenceModel) {
  pmem::PmPool pool(1 << 23, zero());
  auto fs = pmfs::Pmfs::mkfs(pool, pmfs::Geometry{24, 48});
  std::map<std::string, std::string> ref;
  Rng rng(GetParam());

  for (int step = 0; step < 400; ++step) {
    const std::string name = "f" + std::to_string(rng.below(12));
    switch (rng.below(3)) {
      case 0: {  // create or overwrite
        std::string data(rng.below(2000), static_cast<char>('a' + rng.below(26)));
        uint32_t ino = fs.lookup(name);
        if (ino == pmfs::Pmfs::kNoInode) {
          if (ref.size() >= 10) break;  // respect geometry headroom
          ino = fs.create(name);
        }
        fs.write_file(ino, data.data(), data.size());
        ref[name] = data;
        break;
      }
      case 1: {  // read & compare
        const uint32_t ino = fs.lookup(name);
        auto it = ref.find(name);
        if (it == ref.end()) {
          EXPECT_EQ(ino, pmfs::Pmfs::kNoInode) << name;
        } else {
          ASSERT_NE(ino, pmfs::Pmfs::kNoInode) << name;
          auto data = fs.read_file(ino);
          EXPECT_EQ(std::string(data.begin(), data.end()), it->second)
              << "step " << step;
        }
        break;
      }
      case 2: {  // unlink
        if (ref.count(name)) {
          fs.unlink(name);
          ref.erase(name);
        }
        break;
      }
    }
  }
  EXPECT_EQ(fs.file_count(), ref.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PmfsFuzz, ::testing::Values(11, 12, 13));

TEST_P(PmfsFuzz, SurvivesCrashRemountCycles) {
  pmem::PmPool pool(1 << 23, zero());
  std::map<std::string, std::string> ref;
  Rng rng(GetParam() * 977);
  {
    auto fs = pmfs::Pmfs::mkfs(pool, pmfs::Geometry{24, 48});
    for (int i = 0; i < 6; ++i) {
      const std::string name = "file" + std::to_string(i);
      std::string data(100 + rng.below(1500), static_cast<char>('A' + i));
      fs.write_file(fs.create(name), data.data(), data.size());
      ref[name] = data;
    }
  }
  for (int cycle = 0; cycle < 4; ++cycle) {
    pool.crash();
    auto fs = pmfs::Pmfs::mount(pool);
    for (const auto& [name, data] : ref) {
      const uint32_t ino = fs.lookup(name);
      ASSERT_NE(ino, pmfs::Pmfs::kNoInode) << name << " cycle " << cycle;
      auto read = fs.read_file(ino);
      EXPECT_EQ(std::string(read.begin(), read.end()), data) << name;
    }
    // Mutate between crashes.
    const std::string name = "file" + std::to_string(cycle);
    std::string data(50 * (cycle + 1), 'z');
    fs.write_file(fs.lookup(name), data.data(), data.size());
    ref[name] = data;
  }
}

}  // namespace
}  // namespace deepmc
