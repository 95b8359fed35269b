#include "isa/assembler.hpp"

#include <gtest/gtest.h>

#include "isa/builder.hpp"

namespace prosim {
namespace {

Program ok(const std::string& src) {
  AssembleResult r = assemble(src);
  auto* err = std::get_if<AssemblerError>(&r);
  EXPECT_EQ(err, nullptr) << (err ? err->message : "");
  if (err) return Program{};
  return std::get<Program>(std::move(r));
}

AssemblerError fail(const std::string& src) {
  AssembleResult r = assemble(src);
  auto* err = std::get_if<AssemblerError>(&r);
  EXPECT_NE(err, nullptr) << "expected assembly failure";
  return err ? *err : AssemblerError{};
}

TEST(Assembler, DirectivesSetKernelInfo) {
  Program p = ok(R"(
.kernel myk
.blockdim 96
.grid 7
.regs 12
.smem 2048
    exit
)");
  EXPECT_EQ(p.info.name, "myk");
  EXPECT_EQ(p.info.block_dim, 96);
  EXPECT_EQ(p.info.grid_dim, 7);
  EXPECT_EQ(p.info.regs_per_thread, 12);
  EXPECT_EQ(p.info.smem_bytes, 2048);
}

TEST(Assembler, AluAndMemoryOperands) {
  Program p = ok(R"(
    movi r1, 5
    iadd r2, r1, r1
    iadd r3, r2, #100
    ldg r4, [r3+16]
    stg [r3-8], r4
    setp.lt r5, r4, #9
    exit
)");
  ASSERT_EQ(p.code.size(), 7u);
  EXPECT_EQ(p.code[0].imm, 5);
  EXPECT_FALSE(p.code[1].src1_is_imm);
  EXPECT_TRUE(p.code[2].src1_is_imm);
  EXPECT_EQ(p.code[2].imm, 100);
  EXPECT_EQ(p.code[3].imm, 16);
  EXPECT_EQ(p.code[4].imm, -8);
  EXPECT_EQ(p.code[5].cmp, CmpOp::kLt);
}

TEST(Assembler, LabelsAndConditionalBranch) {
  Program p = ok(R"(
    movi r0, 3
top:
    iadd r0, r0, #-1
    setp.gt r1, r0, #0
    @r1 bra top !done
done:
    exit
)");
  const Instruction& br = p.code[3];
  EXPECT_EQ(br.op, Opcode::kBra);
  EXPECT_EQ(br.pred, 1);
  EXPECT_FALSE(br.pred_invert);
  EXPECT_EQ(br.target, 1);
  EXPECT_EQ(br.reconv, 4);
}

TEST(Assembler, InvertedPredicate) {
  Program p = ok(R"(
    movi r1, 0
skip:
    @!r1 bra skip !out
out:
    exit
)");
  EXPECT_TRUE(p.code[1].pred_invert);
}

TEST(Assembler, SpecialRegisters) {
  Program p = ok("    s2r r0, %gtid\n    exit\n");
  EXPECT_EQ(p.code[0].sreg, SpecialReg::kGlobalTid);
}

TEST(Assembler, SharedAndAtomicOps) {
  Program p = ok(R"(
.smem 512
    lds r1, [r0+8]
    sts [r0+8], r1
    atomg.add [r2+0], r1
    atoms.add r3, [r2+0], r1
    bar
    exit
)");
  EXPECT_EQ(p.code[0].op, Opcode::kLds);
  EXPECT_EQ(p.code[2].op, Opcode::kAtomGAdd);
  EXPECT_EQ(p.code[2].dst, kNoReg);
  EXPECT_EQ(p.code[3].op, Opcode::kAtomSAdd);
  EXPECT_EQ(p.code[3].dst, 3);
}

TEST(Assembler, CasAndExchangeOps) {
  Program p = ok(R"(
.smem 64
    atomg.cas r1, [r2+0], r3, r4
    atomg.cas [r2+0], r3, r4
    atomg.exch r5, [r2+8], r6
    atoms.cas r7, [r2+0], r3, r4
    exit
)");
  EXPECT_EQ(p.code[0].op, Opcode::kAtomGCas);
  EXPECT_EQ(p.code[0].dst, 1);
  EXPECT_EQ(p.code[0].src0, 2);
  EXPECT_EQ(p.code[0].src1, 3);
  EXPECT_EQ(p.code[0].src2, 4);
  EXPECT_EQ(p.code[1].op, Opcode::kAtomGCas);
  EXPECT_EQ(p.code[1].dst, kNoReg);
  EXPECT_EQ(p.code[2].op, Opcode::kAtomGExch);
  EXPECT_EQ(p.code[2].dst, 5);
  EXPECT_EQ(p.code[2].src1, 6);
  EXPECT_EQ(p.code[2].imm, 8);
  EXPECT_EQ(p.code[3].op, Opcode::kAtomSCas);
  EXPECT_EQ(p.code[3].dst, 7);
}

TEST(Assembler, CommentsAndBlankLinesIgnored) {
  Program p = ok(R"(
; full-line comment
    movi r0, 1   ; trailing comment
    // C++-style comment
    exit
)");
  EXPECT_EQ(p.code.size(), 2u);
}

TEST(Assembler, RawNumericTargetsAccepted) {
  Program p = ok("    movi r1, 1\n    @r1 bra @0 !@2\n    exit\n");
  EXPECT_EQ(p.code[1].target, 0);
  EXPECT_EQ(p.code[1].reconv, 2);
}

TEST(Assembler, AutoSizesRegsWhenNotExplicit) {
  Program p = ok("    movi r9, 1\n    exit\n");
  EXPECT_EQ(p.info.regs_per_thread, 10);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  EXPECT_EQ(fail("    movi r0, 1\n    bogus r1, r2\n    exit\n").line, 2);
  EXPECT_NE(fail("    movi r0\n    exit\n").message.find("operand"),
            std::string::npos);
}

TEST(Assembler, ErrorOnUndefinedLabel) {
  const AssemblerError e = fail("    bra nowhere\n    exit\n");
  EXPECT_NE(e.message.find("undefined label"), std::string::npos);
}

TEST(Assembler, ErrorOnDuplicateLabel) {
  const AssemblerError e = fail("a:\n    nop\na:\n    exit\n");
  EXPECT_NE(e.message.find("duplicate"), std::string::npos);
}

TEST(Assembler, ErrorOnConditionalWithoutReconv) {
  const AssemblerError e =
      fail("t:\n    movi r1, 1\n    @r1 bra t\n    exit\n");
  EXPECT_NE(e.message.find("reconv"), std::string::npos);
}

TEST(Assembler, ErrorOnPredicatedNonBranch) {
  const AssemblerError e = fail("    @r1 movi r0, 1\n    exit\n");
  EXPECT_NE(e.message.find("bra"), std::string::npos);
}

TEST(Assembler, ValidationRunsOnResult) {
  const AssemblerError e = fail("    nop\n");  // no exit
  EXPECT_NE(e.message.find("exit"), std::string::npos);
}

TEST(Assembler, ErrorOnAtomicDestinationBeyondRegs) {
  const AssemblerError e = fail(
      ".regs 2\n    ishl r0, r0, #3\n    atomg.add r9, [r0+0], r1\n"
      "    exit\n");
  EXPECT_NE(e.message.find("dst register out of range"), std::string::npos);
  ok(".regs 10\n    ishl r0, r0, #3\n    atomg.add r9, [r0+0], r1\n"
     "    exit\n");
}

// Round-trip: builder -> disassemble -> assemble -> identical semantics.
TEST(Assembler, DisassemblyReassembles) {
  ProgramBuilder b("rt");
  b.block_dim(64).grid_dim(2).smem(256);
  b.s2r(0, SpecialReg::kTid);
  b.movi(1, 7);
  b.iadd(2, 0, 1);
  b.iaddi(2, 2, 12);
  b.imad(3, 2, 1, 0);
  b.setpi(CmpOp::kGe, 4, 3, 5);
  b.sel(5, 2, 3, 4);
  b.ldg(6, 2, 64);
  b.stg(2, 0, 6);
  b.lds(7, 0, 8);
  b.sts(0, 8, 7);
  b.rsqrt(8, 3);
  b.bar();
  b.exit_();
  Program original = b.build();

  std::string text = ".kernel rt\n.blockdim 64\n.grid 2\n.smem 256\n";
  for (const Instruction& inst : original.code) {
    text += "    " + disassemble(inst) + "\n";
  }
  Program reparsed = ok(text);
  ASSERT_EQ(reparsed.code.size(), original.code.size());
  for (std::size_t i = 0; i < original.code.size(); ++i) {
    EXPECT_EQ(disassemble(reparsed.code[i]), disassemble(original.code[i]))
        << "pc " << i;
  }
}

// Branch-containing round-trip uses raw @pc targets.
TEST(Assembler, BranchDisassemblyReassembles) {
  ProgramBuilder b("rt2");
  b.movi(1, 3);
  auto top = b.loop_begin();
  b.iaddi(1, 1, -1);
  b.setpi(CmpOp::kGt, 2, 1, 0);
  b.loop_end_if(2, top);
  b.exit_();
  Program original = b.build();

  std::string text;
  for (const Instruction& inst : original.code) {
    // disassemble() already emits the "@rN " predicate prefix.
    text += "    " + disassemble(inst) + "\n";
  }
  Program reparsed = ok(text);
  EXPECT_EQ(reparsed.code[3].target, original.code[3].target);
  EXPECT_EQ(reparsed.code[3].reconv, original.code[3].reconv);
  EXPECT_EQ(reparsed.code[3].pred, original.code[3].pred);
}

TEST(Assembler, AssembleOrDieReturnsProgram) {
  Program p = assemble_or_die("    exit\n");
  EXPECT_EQ(p.code.size(), 1u);
}

}  // namespace
}  // namespace prosim
