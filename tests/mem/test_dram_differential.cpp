// Differential test of the DRAM channel: the per-bank-list Dram against a
// linear-scan oracle that decodes bank and row per queued request on every
// pass. Seeded random push/cycle/pop sequences must give the same
// next_event, the same completions at the same cycles and the same
// counters, cycle by cycle, under FR-FCFS and FCFS.
#include <algorithm>
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "mem/dram.hpp"

namespace prosim {
namespace {

/// The straightforward FR-FCFS channel: each pass recomputes every queued
/// request's bank and row, and a cycle with no free bank scans the queue
/// for the earliest one.
class LinearScanDram {
 public:
  explicit LinearScanDram(const DramConfig& config)
      : config_(config), banks_(static_cast<std::size_t>(config.num_banks)) {}

  bool can_accept() const {
    return static_cast<int>(queue_.size()) < config_.queue_capacity;
  }

  void push(MemRequest request, Cycle /*now*/) {
    queue_.push_back(request);
    scan_skip_until_ = 0;
  }

  void cycle(Cycle now) {
    if (queue_.empty() || bus_busy_until_ > now || scan_skip_until_ > now) {
      return;
    }
    if (config_.scheduler == DramSchedulerKind::kFrFcfs) {
      for (std::size_t i = 0; i < queue_.size(); ++i) {
        const Bank& bank = bank_for(queue_[i]);
        if (bank.busy_until > now) continue;
        if (bank.row_open && bank.open_row == row_of(queue_[i])) {
          issue_at(i, /*row_hit=*/true, now);
          return;
        }
      }
    }
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const Bank& bank = bank_for(queue_[i]);
      if (bank.busy_until > now) continue;
      issue_at(i, bank.row_open && bank.open_row == row_of(queue_[i]), now);
      return;
    }
    Cycle earliest = kNoCycle;
    for (const MemRequest& r : queue_) {
      earliest = std::min(earliest, bank_for(r).busy_until);
    }
    scan_skip_until_ = earliest;
  }

  bool has_completion(Cycle now) const {
    return !completions_.empty() && completions_.front().first <= now;
  }

  MemRequest pop_completion() {
    const MemRequest r = completions_.front().second;
    completions_.pop_front();
    return r;
  }

  bool idle() const { return queue_.empty() && completions_.empty(); }

  Cycle next_event(Cycle now) const {
    Cycle t = kNoCycle;
    if (!completions_.empty()) {
      t = std::max(completions_.front().first, now + 1);
    }
    if (!queue_.empty()) {
      t = std::min(t, std::max({now + 1, bus_busy_until_, scan_skip_until_}));
    }
    return t;
  }

  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;

 private:
  struct Bank {
    bool row_open = false;
    std::uint64_t open_row = 0;
    Cycle busy_until = 0;
  };

  Bank& bank_for(const MemRequest& r) {
    return banks_[static_cast<std::size_t>((r.line_addr / 128) %
                                           config_.num_banks)];
  }
  const Bank& bank_for(const MemRequest& r) const {
    return const_cast<LinearScanDram*>(this)->bank_for(r);
  }
  std::uint64_t row_of(const MemRequest& r) const {
    return r.line_addr / config_.row_bytes / config_.num_banks;
  }

  void issue_at(std::size_t idx, bool row_hit, Cycle now) {
    const MemRequest r = queue_[idx];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
    Bank& bank = bank_for(r);
    const Cycle service =
        row_hit ? config_.row_hit_latency : config_.row_miss_latency;
    bank.row_open = true;
    bank.open_row = row_of(r);
    bank.busy_until = now + service;
    bus_busy_until_ = now + config_.bus_cycles;
    ++(row_hit ? row_hits : row_misses);
    if (r.kind == MemReqKind::kWrite) {
      ++writes;
      return;
    }
    ++reads;
    const Cycle ready = now + service;
    auto it = completions_.end();
    while (it != completions_.begin() && std::prev(it)->first > ready) --it;
    completions_.emplace(it, ready, r);
  }

  DramConfig config_;
  std::vector<Bank> banks_;
  std::deque<MemRequest> queue_;
  Cycle bus_busy_until_ = 0;
  std::deque<std::pair<Cycle, MemRequest>> completions_;
  Cycle scan_skip_until_ = 0;
};

/// Drives both channels with one seeded sequence and compares them after
/// every cycle. Pushes come in bursts separated by quiet stretches, over a
/// few rows per bank, so row hits, bank conflicts, a full queue and the
/// all-banks-busy skip all occur.
void run_differential(const DramConfig& config, std::uint64_t seed) {
  Dram dram(config);
  LinearScanDram oracle(config);
  Rng rng(seed);
  const auto lines_per_row = static_cast<std::uint64_t>(
      std::max(config.row_bytes / 128, 1));
  const std::uint64_t span =
      lines_per_row * static_cast<std::uint64_t>(config.num_banks) * 4;
  std::uint32_t next_token = 0;
  std::uint64_t completed = 0;
  for (Cycle now = 0; now < 3000; ++now) {
    const bool burst = (now / 97) % 3 != 2;
    const int pushes = burst ? static_cast<int>(rng.next_below(3)) : 0;
    for (int k = 0; k < pushes; ++k) {
      ASSERT_EQ(dram.can_accept(), oracle.can_accept()) << "cycle " << now;
      if (!dram.can_accept()) break;
      MemRequest r;
      r.line_addr = rng.next_below(span) * 128;
      r.kind = rng.next_below(4) == 0 ? MemReqKind::kWrite : MemReqKind::kRead;
      r.token = next_token++;
      dram.push(r, now);
      oracle.push(r, now);
    }
    dram.cycle(now);
    oracle.cycle(now);
    while (oracle.has_completion(now)) {
      ASSERT_TRUE(dram.has_completion(now)) << "cycle " << now;
      const MemRequest want = oracle.pop_completion();
      const MemRequest got = dram.pop_completion();
      ASSERT_EQ(got.token, want.token) << "cycle " << now;
      ASSERT_EQ(got.line_addr, want.line_addr);
      ++completed;
    }
    ASSERT_FALSE(dram.has_completion(now)) << "cycle " << now;
    ASSERT_EQ(dram.next_event(now), oracle.next_event(now)) << "cycle " << now;
    ASSERT_EQ(dram.idle(), oracle.idle());
    ASSERT_EQ(dram.row_hits, oracle.row_hits) << "cycle " << now;
    ASSERT_EQ(dram.row_misses, oracle.row_misses) << "cycle " << now;
    ASSERT_EQ(dram.reads, oracle.reads);
    ASSERT_EQ(dram.writes, oracle.writes);
  }
  // The sequence must actually exercise both service paths.
  EXPECT_GT(completed, 0u);
  EXPECT_GT(dram.row_misses, 0u);
  if (config.scheduler == DramSchedulerKind::kFrFcfs) {
    EXPECT_GT(dram.row_hits, 0u);
  }
}

TEST(DramDifferential, MatchesLinearScanOracle) {
  Rng configs(0xD1A7);
  for (const DramSchedulerKind kind :
       {DramSchedulerKind::kFrFcfs, DramSchedulerKind::kFcfs}) {
    for (const int banks : {1, 2, 3, 8}) {
      for (const int row_bytes : {256, 2048}) {
        for (int rep = 0; rep < 3; ++rep) {
          DramConfig c;
          c.scheduler = kind;
          c.num_banks = banks;
          c.row_bytes = row_bytes;
          c.queue_capacity = static_cast<int>(configs.next_in(1, 32));
          c.row_hit_latency = static_cast<Cycle>(configs.next_in(5, 30));
          c.row_miss_latency = static_cast<Cycle>(configs.next_in(30, 80));
          c.bus_cycles = static_cast<Cycle>(configs.next_in(1, 6));
          const std::uint64_t seed = configs.next_u64();
          SCOPED_TRACE(::testing::Message()
                       << (kind == DramSchedulerKind::kFrFcfs ? "FR-FCFS"
                                                              : "FCFS")
                       << " banks=" << banks << " row_bytes=" << row_bytes
                       << " capacity=" << c.queue_capacity
                       << " seed=" << seed);
          run_differential(c, seed);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

// Row hits and row misses complete through separate FIFOs. Equal latencies
// make the two classes one issue-ordered stream; a miss latency one bus slot
// above the hit latency makes a hit issued one slot after a miss finish in
// the same cycle as it, where issue order must break the tie.
TEST(DramDifferential, CompletionOrderAcrossHitsAndMisses) {
  Rng seeds(0x7E5);
  for (const DramSchedulerKind kind :
       {DramSchedulerKind::kFrFcfs, DramSchedulerKind::kFcfs}) {
    for (const Cycle miss_latency : {Cycle{20}, Cycle{22}}) {
      for (const int banks : {1, 4}) {
        DramConfig c;
        c.scheduler = kind;
        c.num_banks = banks;
        c.row_bytes = 512;
        c.row_hit_latency = 20;
        c.row_miss_latency = miss_latency;
        c.bus_cycles = 2;
        const std::uint64_t seed = seeds.next_u64();
        SCOPED_TRACE(::testing::Message()
                     << (kind == DramSchedulerKind::kFrFcfs ? "FR-FCFS"
                                                            : "FCFS")
                     << " miss_latency=" << miss_latency
                     << " banks=" << banks << " seed=" << seed);
        run_differential(c, seed);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace prosim
