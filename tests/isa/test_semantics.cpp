#include "isa/semantics.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace prosim {
namespace {

Instruction alu(Opcode op) {
  Instruction i;
  i.op = op;
  return i;
}

TEST(Semantics, IntegerArithmetic) {
  EXPECT_EQ(eval_alu(alu(Opcode::kIadd), 2, 3, 0), 5);
  EXPECT_EQ(eval_alu(alu(Opcode::kIsub), 2, 3, 0), -1);
  EXPECT_EQ(eval_alu(alu(Opcode::kImul), -4, 3, 0), -12);
  EXPECT_EQ(eval_alu(alu(Opcode::kImad), 2, 3, 10), 16);
  EXPECT_EQ(eval_alu(alu(Opcode::kImin), 2, -3, 0), -3);
  EXPECT_EQ(eval_alu(alu(Opcode::kImax), 2, -3, 0), 2);
}

TEST(Semantics, OverflowWrapsWithoutUb) {
  const RegValue max = std::numeric_limits<RegValue>::max();
  EXPECT_EQ(eval_alu(alu(Opcode::kIadd), max, 1, 0),
            std::numeric_limits<RegValue>::min());
  // Multiplication overflow is defined (wraps mod 2^64).
  const RegValue big = eval_alu(alu(Opcode::kImul), max, max, 0);
  EXPECT_EQ(big, 1);  // (2^63-1)^2 mod 2^64 == 1
}

TEST(Semantics, BitwiseAndShifts) {
  EXPECT_EQ(eval_alu(alu(Opcode::kIand), 0b1100, 0b1010, 0), 0b1000);
  EXPECT_EQ(eval_alu(alu(Opcode::kIor), 0b1100, 0b1010, 0), 0b1110);
  EXPECT_EQ(eval_alu(alu(Opcode::kIxor), 0b1100, 0b1010, 0), 0b0110);
  EXPECT_EQ(eval_alu(alu(Opcode::kIshl), 1, 4, 0), 16);
  EXPECT_EQ(eval_alu(alu(Opcode::kIshr), 256, 4, 0), 16);
  // Shift amounts are masked to 6 bits (no UB for >= 64).
  EXPECT_EQ(eval_alu(alu(Opcode::kIshl), 1, 64, 0), 1);
  EXPECT_EQ(eval_alu(alu(Opcode::kIshl), 1, 65, 0), 2);
}

TEST(Semantics, ShiftRightIsLogical) {
  // -1 >> 1 under the logical shift is 2^63 - 1 territory, not -1.
  const RegValue r = eval_alu(alu(Opcode::kIshr), -1, 1, 0);
  EXPECT_GT(r, 0);
}

TEST(Semantics, SetpAllComparisons) {
  Instruction i = alu(Opcode::kSetp);
  i.cmp = CmpOp::kLt;
  EXPECT_EQ(eval_alu(i, 1, 2, 0), 1);
  EXPECT_EQ(eval_alu(i, 2, 2, 0), 0);
  i.cmp = CmpOp::kLe;
  EXPECT_EQ(eval_alu(i, 2, 2, 0), 1);
  i.cmp = CmpOp::kGt;
  EXPECT_EQ(eval_alu(i, 3, 2, 0), 1);
  i.cmp = CmpOp::kGe;
  EXPECT_EQ(eval_alu(i, 2, 3, 0), 0);
  i.cmp = CmpOp::kEq;
  EXPECT_EQ(eval_alu(i, 5, 5, 0), 1);
  i.cmp = CmpOp::kNe;
  EXPECT_EQ(eval_alu(i, 5, 5, 0), 0);
}

TEST(Semantics, SelPicksByThirdOperand) {
  EXPECT_EQ(eval_alu(alu(Opcode::kSel), 10, 20, 1), 10);
  EXPECT_EQ(eval_alu(alu(Opcode::kSel), 10, 20, 0), 20);
  EXPECT_EQ(eval_alu(alu(Opcode::kSel), 10, 20, -7), 10);  // any nonzero
}

TEST(Semantics, FdivGuardsZero) {
  EXPECT_EQ(eval_alu(alu(Opcode::kFdiv), 10, 0, 0), 0);
  EXPECT_EQ(eval_alu(alu(Opcode::kFdiv), 10, 2, 0), 5);
}

TEST(Semantics, FdivOverflowWrapsInsteadOfTrapping) {
  // INT64_MIN / -1 overflows a signed divide (SIGFPE on x86); it wraps.
  const RegValue min = std::numeric_limits<RegValue>::min();
  EXPECT_EQ(eval_alu(alu(Opcode::kFdiv), min, -1, 0), min);
  EXPECT_EQ(eval_alu(alu(Opcode::kFdiv), min, 1, 0), min);
  EXPECT_EQ(eval_alu(alu(Opcode::kFdiv), 7, -1, 0), -7);
  EXPECT_EQ(eval_alu(alu(Opcode::kFdiv), -7, 2, 0), -3);  // truncates
}

TEST(Semantics, RsqrtIsIntegerSqrtOfMagnitude) {
  EXPECT_EQ(eval_alu(alu(Opcode::kRsqrt), 0, 0, 0), 0);
  EXPECT_EQ(eval_alu(alu(Opcode::kRsqrt), 16, 0, 0), 4);
  EXPECT_EQ(eval_alu(alu(Opcode::kRsqrt), 17, 0, 0), 4);
  EXPECT_EQ(eval_alu(alu(Opcode::kRsqrt), -16, 0, 0), 4);  // magnitude
  EXPECT_EQ(eval_alu(alu(Opcode::kRsqrt), 1ll << 40, 0, 0), 1ll << 20);
  // |INT64_MIN| = 2^63 is taken unsigned (no signed-negation UB).
  EXPECT_EQ(eval_alu(alu(Opcode::kRsqrt),
                     std::numeric_limits<RegValue>::min(), 0, 0),
            3037000499);  // floor(sqrt(2^63))
  EXPECT_EQ(eval_alu(alu(Opcode::kRsqrt),
                     std::numeric_limits<RegValue>::max(), 0, 0),
            3037000499);
}

TEST(Semantics, RsqrtIsExactFloorRootAtEverySquareBoundary) {
  // r = rsqrt(v) must satisfy r^2 <= |v| < (r+1)^2 exactly, including
  // next to perfect squares where a floating-point root is off by one.
  auto check = [](std::uint64_t v) {
    const auto r = static_cast<unsigned __int128>(
        eval_alu(alu(Opcode::kRsqrt), static_cast<RegValue>(v), 0, 0));
    const auto m = v <= (1ull << 63) ? v : 0 - v;  // |v| as RegValue
    EXPECT_TRUE(r * r <= m && (r + 1) * (r + 1) > m) << v;
  };
  for (std::uint64_t k = 0; k < 4096; ++k) {
    check(k);
    check(k * k);
    check(k * k - 1);
  }
  for (std::uint64_t k = 3037000499 - 4096; k <= 3037000499; ++k) {
    check(k * k);
    check(k * k - 1);
    check(k * k + 2 * k);  // (k+1)^2 - 1
  }
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 100000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    check(x);
    check(x >> (i % 64));
  }
}

TEST(Semantics, SfuMixersAreDeterministicAndSpread) {
  const RegValue a = eval_alu(alu(Opcode::kFsin), 1, 0, 0);
  const RegValue b = eval_alu(alu(Opcode::kFsin), 2, 0, 0);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, eval_alu(alu(Opcode::kFsin), 1, 0, 0));
  EXPECT_EQ(eval_alu(alu(Opcode::kFexp), 5, 0, 0), 16);
  EXPECT_EQ(eval_alu(alu(Opcode::kFlog), 4, 0, 0), (4 >> 1) ^ 4);
}

TEST(Semantics, SpecialRegisters) {
  ThreadGeom g;
  g.tid = 37;
  g.ctaid = 3;
  g.ntid = 128;
  g.nctaid = 10;
  EXPECT_EQ(eval_sreg(SpecialReg::kTid, g), 37);
  EXPECT_EQ(eval_sreg(SpecialReg::kCtaId, g), 3);
  EXPECT_EQ(eval_sreg(SpecialReg::kNTid, g), 128);
  EXPECT_EQ(eval_sreg(SpecialReg::kNCtaId, g), 10);
  EXPECT_EQ(eval_sreg(SpecialReg::kWarpId, g), 1);
  EXPECT_EQ(eval_sreg(SpecialReg::kLaneId, g), 5);
  EXPECT_EQ(eval_sreg(SpecialReg::kGlobalTid, g), 3 * 128 + 37);
}

TEST(Semantics, EvalCmpDirect) {
  EXPECT_TRUE(eval_cmp(CmpOp::kLt, -1, 0));
  EXPECT_FALSE(eval_cmp(CmpOp::kGt, -1, 0));
}

}  // namespace
}  // namespace prosim
