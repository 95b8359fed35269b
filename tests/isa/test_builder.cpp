#include "isa/builder.hpp"

#include <gtest/gtest.h>

namespace prosim {
namespace {

TEST(Builder, MinimalProgram) {
  ProgramBuilder b("k");
  Program p = b.movi(0, 1).exit_().build();
  ASSERT_EQ(p.code.size(), 2u);
  EXPECT_EQ(p.code[0].op, Opcode::kMovi);
  EXPECT_EQ(p.code[1].op, Opcode::kExit);
  EXPECT_EQ(p.info.name, "k");
}

TEST(Builder, AutoSizesRegisters) {
  ProgramBuilder b("k");
  Program p = b.movi(7, 1).exit_().build();
  EXPECT_EQ(p.info.regs_per_thread, 8);  // r7 used -> 8 registers
}

TEST(Builder, ExplicitRegsWinWhenLarger) {
  ProgramBuilder b("k");
  Program p = b.regs(20).movi(3, 1).exit_().build();
  EXPECT_EQ(p.info.regs_per_thread, 20);
}

TEST(Builder, LabelsResolveForwardAndBackward) {
  ProgramBuilder b("k");
  auto fwd = b.new_label();
  b.movi(0, 1);
  b.jump(fwd);
  b.movi(0, 2);  // skipped
  b.bind(fwd);
  b.exit_();
  Program p = b.build();
  EXPECT_EQ(p.code[1].op, Opcode::kBra);
  EXPECT_EQ(p.code[1].target, 3);
  EXPECT_EQ(p.code[1].pred, kNoReg);
}

TEST(Builder, IfWithoutElseReconvergesAtEnd) {
  ProgramBuilder b("k");
  b.movi(1, 1);
  b.if_begin(1);
  b.movi(0, 5);
  b.if_end();
  b.exit_();
  Program p = b.build();
  // pc1 is the guarding branch: skips body when !r1.
  const Instruction& br = p.code[1];
  ASSERT_EQ(br.op, Opcode::kBra);
  EXPECT_EQ(br.pred, 1);
  EXPECT_TRUE(br.pred_invert);
  EXPECT_EQ(br.target, 3);  // past the body
  EXPECT_EQ(br.reconv, 3);
}

TEST(Builder, IfElseReconvergesAfterElse) {
  ProgramBuilder b("k");
  b.movi(1, 1);
  b.if_begin(1);
  b.movi(0, 5);  // pc2 (then)
  b.if_else();   // pc3 jump-to-end, else body starts at pc4
  b.movi(0, 6);  // pc4 (else)
  b.if_end();
  b.exit_();  // pc5
  Program p = b.build();
  const Instruction& br = p.code[1];
  EXPECT_EQ(br.target, 4);  // else body
  EXPECT_EQ(br.reconv, 5);  // after both arms
  const Instruction& jmp = p.code[3];
  ASSERT_EQ(jmp.op, Opcode::kBra);
  EXPECT_EQ(jmp.pred, kNoReg);
  EXPECT_EQ(jmp.target, 5);
}

TEST(Builder, LoopBranchesBackwardWithFallthroughReconv) {
  ProgramBuilder b("k");
  b.movi(0, 4);
  auto top = b.loop_begin();
  b.iaddi(0, 0, -1);
  b.setpi(CmpOp::kGt, 1, 0, 0);
  b.loop_end_if(1, top);
  b.exit_();
  Program p = b.build();
  const Instruction& br = p.code[3];
  ASSERT_EQ(br.op, Opcode::kBra);
  EXPECT_EQ(br.target, 1);
  EXPECT_EQ(br.reconv, 4);  // fall-through instruction
  EXPECT_FALSE(br.pred_invert);
}

TEST(Builder, HereReportsEmissionPc) {
  ProgramBuilder b("k");
  EXPECT_EQ(b.here(), 0);
  b.movi(0, 1);
  EXPECT_EQ(b.here(), 1);
}

TEST(Builder, MemoryOperandsEncodeOffset) {
  ProgramBuilder b("k");
  Program p = b.ldg(2, 1, 640).stg(1, -8, 2).exit_().build();
  EXPECT_EQ(p.code[0].imm, 640);
  EXPECT_EQ(p.code[0].src0, 1);
  EXPECT_EQ(p.code[0].dst, 2);
  EXPECT_EQ(p.code[1].imm, -8);
  EXPECT_EQ(p.code[1].src1, 2);
}

TEST(Builder, ImmediateAluForms) {
  ProgramBuilder b("k");
  Program p = b.iaddi(0, 1, 42).setpi(CmpOp::kNe, 2, 0, 7).exit_().build();
  EXPECT_TRUE(p.code[0].src1_is_imm);
  EXPECT_EQ(p.code[0].imm, 42);
  EXPECT_TRUE(p.code[1].src1_is_imm);
  EXPECT_EQ(p.code[1].cmp, CmpOp::kNe);
}

TEST(Builder, NestedIfInsideLoop) {
  ProgramBuilder b("k");
  b.movi(0, 3);
  auto top = b.loop_begin();
  b.setpi(CmpOp::kEq, 1, 0, 2);
  b.if_begin(1);
  b.movi(2, 99);
  b.if_end();
  b.iaddi(0, 0, -1);
  b.setpi(CmpOp::kGt, 1, 0, 0);
  b.loop_end_if(1, top);
  b.exit_();
  Program p = b.build();
  EXPECT_TRUE(p.validate().empty());
}

TEST(BuilderDeathTest, UnboundLabelAborts) {
  ProgramBuilder b("k");
  auto l = b.new_label();
  b.jump(l).exit_();
  EXPECT_DEATH(b.build(), "unbound label");
}

TEST(BuilderDeathTest, UnterminatedIfAborts) {
  ProgramBuilder b("k");
  b.movi(1, 1);
  b.if_begin(1);
  b.exit_();
  EXPECT_DEATH(b.build(), "unterminated");
}

TEST(BuilderDeathTest, DoubleBindAborts) {
  ProgramBuilder b("k");
  auto l = b.new_label();
  b.bind(l);
  EXPECT_DEATH(b.bind(l), "twice");
}

TEST(ProgramValidate, RejectsMissingExit) {
  ProgramBuilder b("k");
  // build() itself validates, so assemble the program by hand.
  Program p;
  p.info.name = "k";
  Instruction i;
  i.op = Opcode::kNop;
  p.code.push_back(i);
  EXPECT_NE(p.validate().find("exit"), std::string::npos);
}

TEST(ProgramValidate, RejectsBadBranchTarget) {
  Program p;
  p.info.name = "k";
  Instruction br;
  br.op = Opcode::kBra;
  br.target = 99;
  p.code.push_back(br);
  Instruction ex;
  ex.op = Opcode::kExit;
  p.code.push_back(ex);
  EXPECT_NE(p.validate().find("target"), std::string::npos);
}

TEST(ProgramValidate, RejectsRegisterOutOfRange) {
  Program p;
  p.info.name = "k";
  p.info.regs_per_thread = 4;
  Instruction mov;
  mov.op = Opcode::kMovi;
  mov.dst = 10;
  p.code.push_back(mov);
  Instruction ex;
  ex.op = Opcode::kExit;
  p.code.push_back(ex);
  EXPECT_NE(p.validate().find("register"), std::string::npos);
}

/// validate() of `inst` followed by exit, with two registers per thread.
std::string validate_one(Opcode op, std::uint8_t dst) {
  Program p;
  p.info.name = "k";
  p.info.regs_per_thread = 2;
  Instruction inst;
  inst.op = op;
  inst.dst = dst;
  p.code.push_back(inst);
  Instruction ex;
  ex.op = Opcode::kExit;
  p.code.push_back(ex);
  return p.validate();
}

TEST(ProgramValidate, RangeChecksAnAtomicDestination) {
  EXPECT_NE(validate_one(Opcode::kAtomGAdd, 9).find("dst register"),
            std::string::npos);
  EXPECT_EQ(validate_one(Opcode::kAtomGAdd, 1), "");
  EXPECT_EQ(validate_one(Opcode::kAtomGAdd, kNoReg), "");
}

TEST(ProgramValidate, RequiresADestinationExactlyWhereOneIsWritten) {
  for (Opcode op : {Opcode::kStg, Opcode::kSts, Opcode::kNop, Opcode::kBar,
                    Opcode::kExit}) {
    EXPECT_NE(validate_one(op, 0).find("writes no register"),
              std::string::npos)
        << opcode_info(op).mnemonic;
  }
  EXPECT_NE(validate_one(Opcode::kMovi, kNoReg).find("movi needs a dst"),
            std::string::npos);
}

TEST(Program, NumWarpsPerTbRoundsUp) {
  Program p;
  p.info.block_dim = 33;
  EXPECT_EQ(p.num_warps_per_tb(), 2);
  p.info.block_dim = 32;
  EXPECT_EQ(p.num_warps_per_tb(), 1);
  p.info.block_dim = 256;
  EXPECT_EQ(p.num_warps_per_tb(), 8);
}

TEST(Program, DisassembleAllListsEveryPc) {
  ProgramBuilder b("k");
  Program p = b.movi(0, 1).iadd(1, 0, 0).exit_().build();
  const std::string text = p.disassemble_all();
  EXPECT_NE(text.find("movi r0, 1"), std::string::npos);
  EXPECT_NE(text.find("iadd r1, r0, r0"), std::string::npos);
  EXPECT_NE(text.find("exit"), std::string::npos);
}

}  // namespace
}  // namespace prosim
