// Functional semantics of the mini ISA, shared by the scalar reference
// interpreter and the timing simulator so the two can never disagree.
//
// All arithmetic wraps (performed on uint64 and cast back) — no UB on
// overflow, and identical results everywhere. The "floating point" opcodes
// compute deterministic integer functions (see DESIGN.md).
#pragma once

#include <cmath>
#include <cstdint>

#include "common/check.hpp"
#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace prosim {

inline bool eval_cmp(CmpOp cmp, RegValue a, RegValue b) {
  switch (cmp) {
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
  }
  return false;
}

/// Geometry context needed to evaluate special registers.
struct ThreadGeom {
  int tid = 0;
  int ctaid = 0;
  int ntid = 1;
  int nctaid = 1;
};

inline RegValue eval_sreg(SpecialReg sreg, const ThreadGeom& g) {
  switch (sreg) {
    case SpecialReg::kTid: return g.tid;
    case SpecialReg::kCtaId: return g.ctaid;
    case SpecialReg::kNTid: return g.ntid;
    case SpecialReg::kNCtaId: return g.nctaid;
    case SpecialReg::kWarpId: return g.tid / kWarpSize;
    case SpecialReg::kLaneId: return g.tid % kWarpSize;
    case SpecialReg::kGlobalTid:
      return static_cast<RegValue>(g.ctaid) * g.ntid + g.tid;
  }
  return 0;
}

/// The meaning of one ALU/SFU opcode (with comparison `Cmp` for setp) on
/// one thread's operand values: `a` = src0, `b` = src1 (or immediate),
/// `c` = src2. The single definition of every such op; eval_alu and the
/// SM's lane loops both reach it through with_alu_op. Total over all
/// inputs: no input traps, so lanes evaluated on stale values are safe.
template <Opcode Op, CmpOp Cmp = CmpOp::kEq>
struct AluOp {
  static RegValue eval(RegValue a, RegValue b, RegValue c) {
    const auto ua = static_cast<std::uint64_t>(a);
    const auto ub = static_cast<std::uint64_t>(b);
    const auto uc = static_cast<std::uint64_t>(c);
    if constexpr (Op == Opcode::kIadd) {
      return static_cast<RegValue>(ua + ub);
    } else if constexpr (Op == Opcode::kIsub) {
      return static_cast<RegValue>(ua - ub);
    } else if constexpr (Op == Opcode::kImul) {
      return static_cast<RegValue>(ua * ub);
    } else if constexpr (Op == Opcode::kImad) {
      return static_cast<RegValue>(ua * ub + uc);
    } else if constexpr (Op == Opcode::kImin) {
      return a < b ? a : b;
    } else if constexpr (Op == Opcode::kImax) {
      return a > b ? a : b;
    } else if constexpr (Op == Opcode::kIand) {
      return static_cast<RegValue>(ua & ub);
    } else if constexpr (Op == Opcode::kIor) {
      return static_cast<RegValue>(ua | ub);
    } else if constexpr (Op == Opcode::kIxor) {
      return static_cast<RegValue>(ua ^ ub);
    } else if constexpr (Op == Opcode::kIshl) {
      return static_cast<RegValue>(ua << (ub & 63));
    } else if constexpr (Op == Opcode::kIshr) {
      return static_cast<RegValue>(ua >> (ub & 63));
    } else if constexpr (Op == Opcode::kSetp) {
      return eval_cmp(Cmp, a, b) ? 1 : 0;
    } else if constexpr (Op == Opcode::kSel) {
      return c != 0 ? a : b;
    } else if constexpr (Op == Opcode::kFdiv) {
      // Guarded and wrapping: x / 0 is 0, and INT64_MIN / -1 wraps to
      // INT64_MIN like the negation it is.
      if (b == 0) return 0;
      if (b == -1) return static_cast<RegValue>(0 - ua);
      return a / b;
    } else if constexpr (Op == Opcode::kRsqrt) {
      // floor(sqrt(|a|)) — deterministic stand-in for 1/sqrt. The
      // magnitude is taken unsigned, so |INT64_MIN| is 2^63. The correctly
      // rounded double root is within one of the exact one; the two
      // corrections make it exact.
      const std::uint64_t v = a < 0 ? 0 - ua : ua;
      auto r = static_cast<std::uint64_t>(std::sqrt(static_cast<double>(v)));
      if (r * r > v) --r;
      if ((r + 1) * (r + 1) <= v) ++r;
      return static_cast<RegValue>(r);
    } else if constexpr (Op == Opcode::kFsin) {
      // SplitMix-style mix: a fixed deterministic scramble.
      std::uint64_t z = ua + 0x9E3779B97F4A7C15ull;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      return static_cast<RegValue>(z ^ (z >> 31));
    } else if constexpr (Op == Opcode::kFexp) {
      return static_cast<RegValue>(ua * 3 + 1);
    } else {
      static_assert(Op == Opcode::kFlog, "not an ALU/SFU opcode");
      return static_cast<RegValue>((ua >> 1) ^ ua);
    }
  }
};

/// Calls `f(AluOp<...>{})` for `inst`'s opcode (and comparison): the one
/// dispatch over ALU/SFU opcodes. The FP-latency opcodes share their
/// integer twin's meaning. Not valid for memory, control, mov/movi/s2r
/// (those need external state).
template <typename F>
decltype(auto) with_alu_op(const Instruction& inst, F&& f) {
  switch (inst.op) {
    case Opcode::kIadd:
    case Opcode::kFadd: return f(AluOp<Opcode::kIadd>{});
    case Opcode::kIsub: return f(AluOp<Opcode::kIsub>{});
    case Opcode::kImul:
    case Opcode::kFmul: return f(AluOp<Opcode::kImul>{});
    case Opcode::kImad:
    case Opcode::kFfma: return f(AluOp<Opcode::kImad>{});
    case Opcode::kImin: return f(AluOp<Opcode::kImin>{});
    case Opcode::kImax: return f(AluOp<Opcode::kImax>{});
    case Opcode::kIand: return f(AluOp<Opcode::kIand>{});
    case Opcode::kIor: return f(AluOp<Opcode::kIor>{});
    case Opcode::kIxor: return f(AluOp<Opcode::kIxor>{});
    case Opcode::kIshl: return f(AluOp<Opcode::kIshl>{});
    case Opcode::kIshr: return f(AluOp<Opcode::kIshr>{});
    case Opcode::kSetp:
      switch (inst.cmp) {
        case CmpOp::kLt: return f(AluOp<Opcode::kSetp, CmpOp::kLt>{});
        case CmpOp::kLe: return f(AluOp<Opcode::kSetp, CmpOp::kLe>{});
        case CmpOp::kGt: return f(AluOp<Opcode::kSetp, CmpOp::kGt>{});
        case CmpOp::kGe: return f(AluOp<Opcode::kSetp, CmpOp::kGe>{});
        case CmpOp::kEq: return f(AluOp<Opcode::kSetp, CmpOp::kEq>{});
        case CmpOp::kNe: return f(AluOp<Opcode::kSetp, CmpOp::kNe>{});
      }
      break;
    case Opcode::kSel: return f(AluOp<Opcode::kSel>{});
    case Opcode::kFdiv: return f(AluOp<Opcode::kFdiv>{});
    case Opcode::kRsqrt: return f(AluOp<Opcode::kRsqrt>{});
    case Opcode::kFsin: return f(AluOp<Opcode::kFsin>{});
    case Opcode::kFexp: return f(AluOp<Opcode::kFexp>{});
    case Opcode::kFlog: return f(AluOp<Opcode::kFlog>{});
    default: break;
  }
  PROSIM_CHECK_MSG(false, "eval_alu on non-ALU opcode");
  return f(AluOp<Opcode::kIadd>{});  // unreachable
}

/// Computes an ALU/SFU opcode on already-fetched operand values.
/// `a` = src0, `b` = src1 (or immediate), `c` = src2.
inline RegValue eval_alu(const Instruction& inst, RegValue a, RegValue b,
                         RegValue c) {
  return with_alu_op(inst, [&](auto op) { return op.eval(a, b, c); });
}

}  // namespace prosim
