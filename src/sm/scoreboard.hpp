// Per-warp register scoreboard: tracks destination registers of in-flight
// instructions. An instruction may not issue while any register it reads
// (RAW) or writes (WAW) is pending. Bitmask over the <=64 architectural
// registers.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "isa/instruction.hpp"

namespace prosim {

class Scoreboard {
 public:
  explicit Scoreboard(int num_warps) : pending_(num_warps, 0) {}

  void reset(int warp) { pending_[warp] = 0; }

  /// True if `inst` has no RAW/WAW hazard for this warp.
  bool available(int warp, const Instruction& inst) const {
    return (pending_[warp] & regs_of(inst)) == 0;
  }

  void reserve(int warp, std::uint8_t reg) {
    PROSIM_CHECK(reg != kNoReg);
    PROSIM_CHECK_MSG((pending_[warp] & bit(reg)) == 0,
                     "double reservation (WAW should have blocked issue)");
    pending_[warp] |= bit(reg);
  }

  void release(int warp, std::uint8_t reg) {
    PROSIM_CHECK_MSG((pending_[warp] & bit(reg)) != 0,
                     "release of non-pending register");
    pending_[warp] &= ~bit(reg);
  }

  std::uint64_t pending_mask(int warp) const { return pending_[warp]; }

  /// All registers an instruction touches (sources, predicate, dest).
  static std::uint64_t regs_of(const Instruction& inst) {
    std::uint64_t mask = 0;
    mask |= bit_or_zero(inst.src0);
    if (!inst.src1_is_imm) mask |= bit_or_zero(inst.src1);
    mask |= bit_or_zero(inst.src2);
    mask |= bit_or_zero(inst.pred);
    // Program::validate admits a dst only on an opcode that writes it.
    mask |= bit_or_zero(inst.dst);
    return mask;
  }

 private:
  static std::uint64_t bit(std::uint8_t reg) { return 1ull << (reg & 63); }
  static std::uint64_t bit_or_zero(std::uint8_t reg) {
    return reg == kNoReg ? 0 : bit(reg);
  }

  std::vector<std::uint64_t> pending_;
};

}  // namespace prosim
