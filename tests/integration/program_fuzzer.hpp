// Shared random structured-program generator for property tests. Its
// programs leave identical architectural state on the timing simulator,
// under every scheduler and machine shape, and on the scalar golden-model
// interpreter, because it emits only schedule-independent constructs:
//  - every ALU/SFU opcode (register and immediate src1 forms) and s2r of
//    every special register, over the whole register file,
//  - global loads from a read-only input region (addresses masked+aligned),
//  - global stores to a per-thread output slot,
//  - global atomic adds (commutative, result discarded),
//  - global CAS/exchange and shared CAS on per-thread private slots
//    (non-commutative, so the old value must be race-free to stay
//    deterministic; the returned value feeds the register comparison),
//  - shared-memory load/store restricted to the thread's own slot,
//  - nested if/else on thread-varying predicates (divergence),
//  - loops with uniform trip counts (so barriers inside them are legal),
//  - barriers outside divergent regions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "isa/builder.hpp"
#include "mem/global_memory.hpp"

namespace prosim {
namespace fuzz {

constexpr Addr kInputBase = 0;        // read-only input, 8KB
constexpr std::int64_t kInputMask = 0x1FF8;
constexpr Addr kAtomicBase = 512u << 10;
constexpr Addr kCasBase = 768u << 10;  // per-thread CAS/exchange slots
constexpr Addr kOutputBase = 1u << 20;

/// Writes the fixed input image the loads read into a fresh memory.
inline void init_input(GlobalMemory& mem) {
  Rng data(0xDA7A);
  for (Addr a = kInputBase; a <= static_cast<Addr>(kInputMask); a += 8) {
    mem.store(a, static_cast<RegValue>(data.next_below(1u << 20)));
  }
}

class ProgramFuzzer {
 public:
  explicit ProgramFuzzer(std::uint64_t seed)
      : rng_(seed), b_("fuzz_" + std::to_string(seed)) {}

  Program generate() {
    const int block_choices[] = {32, 64, 96, 128};
    block_dim_ = block_choices[rng_.next_below(4)];
    const int grid = static_cast<int>(rng_.next_in(4, 10));
    num_regs_ = static_cast<int>(rng_.next_in(10, 16));
    b_.block_dim(block_dim_).grid_dim(grid).smem(block_dim_ * 8);

    // Fixed prologue: r0 = tid, r1 = gid, r2 = output address,
    // r3 = shared slot address. The generator never overwrites r0..r3.
    b_.s2r(0, SpecialReg::kTid);
    b_.s2r(1, SpecialReg::kGlobalTid);
    b_.ishli(2, 1, 3);
    b_.ishli(3, 0, 3);
    // Seed the scratch registers with thread-dependent values.
    for (int r = kFirstScratch; r < num_regs_; ++r) {
      b_.imuli(static_cast<std::uint8_t>(r), 1,
               rng_.next_in(1, 1000));
    }
    // Fold every special register into the scratch state.
    for (int s = 0; s < kNumSpecialRegs; ++s) {
      const std::uint8_t x = scratch();
      const std::uint8_t acc = scratch();
      b_.s2r(x, static_cast<SpecialReg>(s));
      b_.iadd(acc, acc, x);
    }

    emit_block(/*budget=*/static_cast<int>(rng_.next_in(12, 30)),
               /*depth=*/0, /*in_divergent=*/false);

    // Epilogue: fold every scratch register into the output slot.
    std::uint8_t acc = scratch();
    for (int r = kFirstScratch; r < num_regs_; ++r) {
      b_.ixor_(acc, acc, static_cast<std::uint8_t>(r));
    }
    b_.stg(2, static_cast<std::int64_t>(kOutputBase), acc);
    b_.exit_();
    return b_.build();
  }

 private:
  static constexpr int kFirstScratch = 4;
  static constexpr int kNumSpecialRegs =
      static_cast<int>(SpecialReg::kGlobalTid) + 1;
  static constexpr int kNumCmpOps = static_cast<int>(CmpOp::kNe) + 1;

  CmpOp random_cmp() {
    return static_cast<CmpOp>(rng_.next_below(kNumCmpOps));
  }

  bool is_reserved(std::uint8_t r) const {
    for (std::uint8_t x : reserved_) {
      if (x == r) return true;
    }
    return false;
  }

  /// Random scratch register that is not an active loop counter.
  std::uint8_t scratch() {
    for (;;) {
      const auto r = static_cast<std::uint8_t>(
          rng_.next_in(kFirstScratch, num_regs_ - 1));
      if (!is_reserved(r)) return r;
    }
  }

  /// One random ALU instruction: any ALU/SFU opcode, in register or
  /// immediate src1 form, or s2r of any special register.
  void emit_alu() {
    const std::uint8_t d = scratch();
    const std::uint8_t a = scratch();
    const std::uint8_t c = scratch();
    const std::int64_t imm = rng_.next_in(-300, 300);
    switch (rng_.next_below(31)) {
      case 0: b_.iadd(d, a, c); break;
      case 1: b_.isub(d, a, c); break;
      case 2: b_.imul(d, a, c); break;
      case 3: b_.ixor_(d, a, c); break;
      case 4: b_.imad(d, a, c, scratch()); break;
      case 5: b_.ishri(d, a, rng_.next_in(0, 7)); break;
      case 6: b_.fsin(d, a); break;
      case 7: b_.imax(d, a, c); break;
      case 8: b_.imin(d, a, c); break;
      case 9: b_.iand_(d, a, c); break;
      case 10: b_.ior_(d, a, c); break;
      case 11: b_.ishl(d, a, c); break;
      case 12: b_.ishr(d, a, c); break;
      case 13: b_.sel(d, a, c, scratch()); break;
      case 14: b_.mov(d, a); break;
      case 15: b_.setp(random_cmp(), d, a, c); break;
      case 16: b_.setpi(random_cmp(), d, a, imm); break;
      case 17: b_.iaddi(d, a, imm); break;
      case 18: b_.isubi(d, a, imm); break;
      case 19: b_.imuli(d, a, imm); break;
      case 20: b_.iandi(d, a, imm); break;
      case 21: b_.ixori(d, a, imm); break;
      case 22: b_.ishli(d, a, rng_.next_in(0, 70)); break;
      case 23: b_.fadd(d, a, c); break;
      case 24: b_.fmul(d, a, c); break;
      case 25: b_.ffma(d, a, c, scratch()); break;
      case 26: b_.fdiv(d, a, c); break;
      case 27: b_.rsqrt(d, a); break;
      case 28: b_.fexp(d, a); break;
      case 29: b_.flog(d, a); break;
      case 30:
        b_.s2r(d, static_cast<SpecialReg>(rng_.next_below(kNumSpecialRegs)));
        break;
    }
  }

  void emit_load() {
    const std::uint8_t d = scratch();
    const std::uint8_t a = scratch();
    // Mask the address into the aligned read-only window.
    b_.iandi(d, a, kInputMask);
    b_.ldg(d, d, static_cast<std::int64_t>(kInputBase));
  }

  void emit_store() {
    // Per-thread slot, offset by a random small constant region id.
    b_.stg(2, static_cast<std::int64_t>(kOutputBase) +
                  rng_.next_in(0, 3) * 65536,
           scratch());
  }

  void emit_atomic() {
    const std::uint8_t v = scratch();
    const std::uint8_t a = scratch();
    b_.iandi(a, v, 0x78);  // one of 16 counters
    b_.atomg_add(a, static_cast<std::int64_t>(kAtomicBase), v);
  }

  void emit_casx() {
    // CAS and exchange are not commutative, so racing them on shared
    // counters would be schedule-dependent. Each thread targets its own
    // private word (r2 = gid*8 globally, r3 = tid*8 in shared memory),
    // which keeps the returned old value — and hence the destination
    // register — deterministic under every scheduler.
    const std::uint8_t d = rng_.next_bool(0.25) ? kNoReg : scratch();
    const std::uint8_t c = scratch();
    const std::uint8_t v = scratch();
    switch (rng_.next_below(3)) {
      case 0:
        b_.atomg_cas(d, 2, static_cast<std::int64_t>(kCasBase), c, v);
        break;
      case 1:
        b_.atomg_exch(d, 2, static_cast<std::int64_t>(kCasBase), v);
        break;
      case 2:
        b_.atoms_cas(d, 3, 0, c, v);
        break;
    }
  }

  void emit_smem() {
    if (rng_.next_bool(0.5)) {
      b_.sts(3, 0, scratch());
    } else {
      b_.lds(scratch(), 3, 0);
    }
  }

  void emit_if(int budget, int depth) {
    const std::uint8_t p = scratch();
    b_.setpi(CmpOp::kGt, p, scratch(), rng_.next_in(-200, 200));
    b_.if_begin(p);
    emit_block(budget / 2, depth + 1, /*in_divergent=*/true);
    if (rng_.next_bool(0.5)) {
      b_.if_else();
      emit_block(budget / 2, depth + 1, /*in_divergent=*/true);
    }
    b_.if_end();
  }

  void emit_loop(int budget, int depth, bool in_divergent) {
    // Uniform trip count: every thread runs the same number of
    // iterations, so control stays warp-uniform. The counter register is
    // reserved so nothing in the body can clobber it.
    const std::uint8_t counter = scratch();
    reserved_.push_back(counter);
    b_.movi(counter, rng_.next_in(1, 5));
    auto top = b_.loop_begin();
    emit_block(budget / 2, depth + 1, in_divergent);
    b_.iaddi(counter, counter, -1);
    const std::uint8_t p = scratch();  // reserved set excludes counter
    b_.setpi(CmpOp::kGt, p, counter, 0);
    b_.loop_end_if(p, top);
    reserved_.pop_back();
  }

  void emit_block(int budget, int depth, bool in_divergent) {
    while (budget > 0) {
      const std::uint64_t roll = rng_.next_below(100);
      if (roll < 40) {
        emit_alu();
        budget -= 1;
      } else if (roll < 55) {
        emit_load();
        budget -= 2;
      } else if (roll < 63) {
        emit_store();
        budget -= 1;
      } else if (roll < 68) {
        emit_atomic();
        budget -= 2;
      } else if (roll < 72) {
        emit_casx();
        budget -= 2;
      } else if (roll < 79) {
        emit_smem();
        budget -= 1;
      } else if (roll < 85 && !in_divergent && depth == 0) {
        b_.bar();
        budget -= 1;
      } else if (roll < 92 && depth < 3) {
        emit_if(budget, depth);
        budget -= 4;
      } else if (depth < 2) {
        emit_loop(budget, depth, in_divergent);
        budget -= 6;
      } else {
        emit_alu();
        budget -= 1;
      }
    }
  }

  Rng rng_;
  ProgramBuilder b_;
  int block_dim_ = 32;
  int num_regs_ = 12;
  std::vector<std::uint8_t> reserved_;  // active loop counters
};

}  // namespace fuzz
}  // namespace prosim
