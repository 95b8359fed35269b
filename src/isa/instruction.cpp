#include "isa/instruction.hpp"

#include <string>

namespace prosim {

namespace {

/// Appends every part to `out` in order. The disassembly is built by
/// appending to one named string throughout: `"lit" + std::string&&`
/// inserts at the front of the temporary, which GCC's -Wrestrict flags in
/// optimized builds.
template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  (out += ... += parts);
}

std::string reg(std::uint8_t r) {
  std::string out = "r";
  out += r == kNoReg ? std::string("?") : std::to_string(r);
  return out;
}

std::string mem_operand(const Instruction& inst) {
  std::string out = "[";
  append(out, reg(inst.src0), inst.imm >= 0 ? "+" : "",
         std::to_string(inst.imm), "]");
  return out;
}

std::string src1_or_imm(const Instruction& inst) {
  if (!inst.src1_is_imm) return reg(inst.src1);
  std::string out = "#";
  out += std::to_string(inst.imm);
  return out;
}

}  // namespace

std::string disassemble(const Instruction& inst) {
  const OpcodeInfo& info = inst.info();
  std::string out;

  if (inst.op == Opcode::kBra && inst.pred != kNoReg) {
    append(out, "@", inst.pred_invert ? "!" : "", reg(inst.pred), " ");
  }

  out += info.mnemonic;
  if (inst.op == Opcode::kSetp) append(out, ".", cmp_name(inst.cmp));

  switch (inst.op) {
    case Opcode::kNop:
    case Opcode::kBar:
    case Opcode::kExit:
      break;
    case Opcode::kMovi:
      append(out, " ", reg(inst.dst), ", ", std::to_string(inst.imm));
      break;
    case Opcode::kMov:
      append(out, " ", reg(inst.dst), ", ", reg(inst.src0));
      break;
    case Opcode::kS2r:
      append(out, " ", reg(inst.dst), ", %", sreg_name(inst.sreg));
      break;
    case Opcode::kRsqrt:
    case Opcode::kFsin:
    case Opcode::kFexp:
    case Opcode::kFlog:
      append(out, " ", reg(inst.dst), ", ", reg(inst.src0));
      break;
    case Opcode::kImad:
    case Opcode::kFfma:
      append(out, " ", reg(inst.dst), ", ", reg(inst.src0), ", ",
             src1_or_imm(inst), ", ", reg(inst.src2));
      break;
    case Opcode::kSel:
      append(out, " ", reg(inst.dst), ", ", reg(inst.src0), ", ",
             reg(inst.src1), ", ", reg(inst.src2));
      break;
    case Opcode::kLdg:
    case Opcode::kLds:
    case Opcode::kLdc:
      append(out, " ", reg(inst.dst), ", ", mem_operand(inst));
      break;
    case Opcode::kStg:
    case Opcode::kSts:
      append(out, " ", mem_operand(inst), ", ", reg(inst.src1));
      break;
    case Opcode::kAtomGAdd:
    case Opcode::kAtomSAdd:
    case Opcode::kAtomGExch:
      if (inst.dst != kNoReg) append(out, " ", reg(inst.dst), ",");
      append(out, " ", mem_operand(inst), ", ", reg(inst.src1));
      break;
    case Opcode::kAtomGCas:
    case Opcode::kAtomSCas:
      // atom.cas [dst,] [rA+off], rCmp, rNew
      if (inst.dst != kNoReg) append(out, " ", reg(inst.dst), ",");
      append(out, " ", mem_operand(inst), ", ", reg(inst.src1), ", ",
             reg(inst.src2));
      break;
    case Opcode::kBra:
      append(out, " @", std::to_string(inst.target));
      // Unconditional branches carry no reconvergence point.
      if (inst.reconv >= 0) append(out, " !@", std::to_string(inst.reconv));
      break;
    default:
      // Two-source ALU ops.
      append(out, " ", reg(inst.dst), ", ", reg(inst.src0), ", ",
             src1_or_imm(inst));
      break;
  }
  return out;
}

}  // namespace prosim
