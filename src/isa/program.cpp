#include "isa/program.hpp"

#include <sstream>

namespace prosim {

namespace {

bool reg_ok(std::uint8_t r, int regs_per_thread) {
  return r == kNoReg || r < regs_per_thread;
}

}  // namespace

std::string Program::validate() const {
  std::ostringstream err;
  if (code.empty()) return "program has no instructions";
  if (info.block_dim < 1 || info.block_dim > 1024)
    return "block_dim out of range [1,1024]";
  if (info.grid_dim < 1) return "grid_dim must be >= 1";
  if (info.regs_per_thread < 1 || info.regs_per_thread > kMaxRegs)
    return "regs_per_thread out of range";
  if (info.smem_bytes < 0) return "negative smem_bytes";

  const Instruction& last = code.back();
  const bool ends_ok =
      last.op == Opcode::kExit ||
      (last.op == Opcode::kBra && last.pred == kNoReg);
  if (!ends_ok) {
    return "program must end in exit or an unconditional branch";
  }

  const auto n = static_cast<std::int32_t>(code.size());
  for (std::int32_t pc = 0; pc < n; ++pc) {
    const Instruction& inst = code[pc];
    const OpcodeInfo& oi = inst.info();
    if (oi.mnemonic.empty() || inst.op >= Opcode::kNumOpcodes) {
      err << "pc " << pc << ": invalid opcode";
      return err.str();
    }
    if (inst.op == Opcode::kBra) {
      if (inst.target < 0 || inst.target >= n) {
        err << "pc " << pc << ": branch target " << inst.target
            << " out of range";
        return err.str();
      }
      if (inst.pred != kNoReg) {
        if (inst.reconv < 0 || inst.reconv >= n) {
          err << "pc " << pc << ": reconvergence pc " << inst.reconv
              << " out of range";
          return err.str();
        }
        if (!reg_ok(inst.pred, info.regs_per_thread)) {
          err << "pc " << pc << ": predicate register out of range";
          return err.str();
        }
      }
    }
    // A destination exactly when the opcode writes one; optional on atomics.
    if (!oi.is_atomic && oi.has_dst != (inst.dst != kNoReg)) {
      err << "pc " << pc << ": " << oi.mnemonic
          << (oi.has_dst ? " needs a dst register"
                         : " writes no register");
      return err.str();
    }
    if (!reg_ok(inst.dst, info.regs_per_thread)) {
      err << "pc " << pc << ": dst register out of range";
      return err.str();
    }
    for (std::uint8_t r : {inst.src0, inst.src1, inst.src2}) {
      if (!reg_ok(r, info.regs_per_thread)) {
        err << "pc " << pc << ": source register out of range";
        return err.str();
      }
    }
  }
  return "";
}

std::string Program::disassemble_all() const {
  std::ostringstream out;
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    out << pc << ":\t" << disassemble(code[pc]) << "\n";
  }
  return out.str();
}

}  // namespace prosim
