/**
 * @file
 * Negative-oracle suite for the dominance-aware IR verifier.
 *
 * Every test hand-builds exactly one malformed function and pins the
 * exact rule id the verifier must produce — a verifier that reports
 * the wrong rule (or drowns the defect in spurious findings) fails
 * here even if it technically "rejects" the function. The clean-IR
 * and warning-tier tests pin the other direction: valid IR must stay
 * diagnostic-free and advisory findings must never fail a function.
 */
#include <gtest/gtest.h>

#include "ir/irbuilder.h"
#include "ir/verifier.h"
#include "support/diagnostics.h"

using namespace repro;
using namespace repro::ir;

namespace {

/** All error-tier diagnostics carry @p rule (and there is >= 1). */
void
expectOnlyRule(const VerifierReport &report, const std::string &rule)
{
    ASSERT_GT(report.errorCount(), 0u) << "expected rule " << rule;
    for (const auto &d : report.diags) {
        if (d.severity == VerifySeverity::Error)
            EXPECT_EQ(d.rule, rule) << d.str();
    }
}

} // namespace

TEST(Verifier, CleanFunctionHasNoDiagnostics)
{
    Module m;
    Function *f = m.createFunction(
        "f", m.types().i64Ty(),
        {m.types().i64Ty(), m.types().i64Ty()});
    IRBuilder b(m);
    BasicBlock *entry = f->createBlock("entry");
    BasicBlock *exit = f->createBlock("exit");
    b.setInsertPoint(entry);
    Instruction *sum = b.add(f->arg(0), f->arg(1), "sum");
    b.br(exit);
    b.setInsertPoint(exit);
    b.ret(sum);

    VerifierReport report = verifyFunctionDetailed(f);
    EXPECT_TRUE(report.ok()) << report.str();
    EXPECT_EQ(report.diags.size(), 0u) << report.str();
}

TEST(Verifier, UseBeforeDefAcrossBlocks)
{
    Module m;
    Function *f =
        m.createFunction("f", m.types().i64Ty(), {m.types().i64Ty()});
    IRBuilder b(m);
    BasicBlock *entry = f->createBlock("entry");
    BasicBlock *left = f->createBlock("left");
    BasicBlock *right = f->createBlock("right");
    BasicBlock *exit = f->createBlock("exit");
    b.setInsertPoint(entry);
    Instruction *cmp = b.icmp(CmpPred::LT, f->arg(0), b.i64(10));
    b.condBr(cmp, left, right);
    b.setInsertPoint(left);
    Instruction *x = b.add(f->arg(0), b.i64(1), "x");
    b.br(exit);
    b.setInsertPoint(right);
    b.add(x, b.i64(2), "y"); // %x does not dominate %right
    b.br(exit);
    b.setInsertPoint(exit);
    b.ret(f->arg(0));

    expectOnlyRule(verifyFunctionDetailed(f), "dom-use");
}

TEST(Verifier, PhiIncomingNotDominatingItsEdge)
{
    Module m;
    Function *f =
        m.createFunction("f", m.types().i64Ty(), {m.types().i64Ty()});
    IRBuilder b(m);
    BasicBlock *entry = f->createBlock("entry");
    BasicBlock *left = f->createBlock("left");
    BasicBlock *right = f->createBlock("right");
    BasicBlock *merge = f->createBlock("merge");
    b.setInsertPoint(entry);
    Instruction *cmp = b.icmp(CmpPred::LT, f->arg(0), b.i64(10));
    b.condBr(cmp, left, right);
    b.setInsertPoint(left);
    Instruction *x = b.add(f->arg(0), b.i64(1), "x");
    b.br(merge);
    b.setInsertPoint(right);
    b.br(merge);
    b.setInsertPoint(merge);
    Instruction *p = b.phi(m.types().i64Ty(), "p");
    p->addIncoming(x, left);
    p->addIncoming(x, right); // %x does not dominate the %right edge
    b.ret(p);

    expectOnlyRule(verifyFunctionDetailed(f), "dom-phi");
}

TEST(Verifier, DanglingOperandAfterDetach)
{
    Module m;
    Function *f =
        m.createFunction("f", m.types().i64Ty(), {m.types().i64Ty()});
    IRBuilder b(m);
    BasicBlock *entry = f->createBlock("entry");
    b.setInsertPoint(entry);
    Instruction *x = b.add(f->arg(0), b.i64(1), "x");
    Instruction *y = b.mul(x, f->arg(0), "y");
    b.ret(y);

    // Detach the def the way a buggy rewrite would erase it: %y now
    // references an instruction the function no longer owns. The
    // verifier must diagnose this by membership alone — it dare not
    // dereference the operand.
    std::unique_ptr<Instruction> detached = entry->detach(x);
    expectOnlyRule(verifyFunctionDetailed(f), "op-dangling");

    // Repair the use edge before `detached` destructs, so teardown
    // never touches freed memory.
    y->setOperand(0, f->arg(0));
}

TEST(Verifier, CrossFunctionOperand)
{
    Module m;
    Function *g =
        m.createFunction("g", m.types().i64Ty(), {m.types().i64Ty()});
    IRBuilder b(m);
    b.setInsertPoint(g->createBlock("entry"));
    Instruction *gx = b.add(g->arg(0), b.i64(1), "gx");
    b.ret(gx);

    Function *f =
        m.createFunction("f", m.types().i64Ty(), {m.types().i64Ty()});
    b.setInsertPoint(f->createBlock("entry"));
    Instruction *y = b.add(gx, b.i64(2), "y"); // operand owned by @g
    b.ret(y);

    VerifierReport report = verifyFunctionDetailed(f);
    expectOnlyRule(report, "op-cross-function");
    EXPECT_NE(report.firstError().message.find("@g"),
              std::string::npos)
        << report.str();
}

TEST(Verifier, BlockWithoutTerminator)
{
    Module m;
    Function *f = m.createFunction("f", m.types().voidTy(),
                                   {m.types().i64Ty()});
    IRBuilder b(m);
    b.setInsertPoint(f->createBlock("entry"));
    b.add(f->arg(0), b.i64(1)); // falls off the end

    expectOnlyRule(verifyFunctionDetailed(f), "block-term");
}

TEST(Verifier, TerminatorNotAtEnd)
{
    Module m;
    Function *f = m.createFunction("f", m.types().i64Ty(),
                                   {m.types().i64Ty()});
    IRBuilder b(m);
    b.setInsertPoint(f->createBlock("entry"));
    b.ret(f->arg(0));
    b.add(f->arg(0), b.i64(1)); // trailing code after ret

    expectOnlyRule(verifyFunctionDetailed(f), "block-term");
}

TEST(Verifier, PhiAfterNonPhi)
{
    Module m;
    Function *f = m.createFunction("f", m.types().i64Ty(),
                                   {m.types().i64Ty()});
    IRBuilder b(m);
    BasicBlock *entry = f->createBlock("entry");
    b.setInsertPoint(entry);
    b.add(f->arg(0), b.i64(1), "x");
    // IRBuilder::phi keeps phis grouped; plant one out of order by
    // hand, the way a buggy pass would.
    entry->append(std::make_unique<Instruction>(
        Opcode::Phi, m.types().i64Ty(), "p"));
    b.ret(f->arg(0));

    expectOnlyRule(verifyFunctionDetailed(f), "phi-order");
}

TEST(Verifier, PhiIncomingCountMismatch)
{
    Module m;
    Function *f =
        m.createFunction("f", m.types().i64Ty(), {m.types().i64Ty()});
    IRBuilder b(m);
    BasicBlock *entry = f->createBlock("entry");
    BasicBlock *left = f->createBlock("left");
    BasicBlock *right = f->createBlock("right");
    BasicBlock *merge = f->createBlock("merge");
    b.setInsertPoint(entry);
    Instruction *cmp = b.icmp(CmpPred::LT, f->arg(0), b.i64(10));
    b.condBr(cmp, left, right);
    b.setInsertPoint(left);
    b.br(merge);
    b.setInsertPoint(right);
    b.br(merge);
    b.setInsertPoint(merge);
    Instruction *p = b.phi(m.types().i64Ty(), "p");
    p->addIncoming(f->arg(0), left); // two preds, one incoming
    b.ret(p);

    expectOnlyRule(verifyFunctionDetailed(f), "phi-pred");
}

TEST(Verifier, PhiIncomingTypeMismatch)
{
    Module m;
    Function *f = m.createFunction("f", m.types().doubleTy(),
                                   {m.types().i64Ty()});
    IRBuilder b(m);
    BasicBlock *entry = f->createBlock("entry");
    BasicBlock *left = f->createBlock("left");
    BasicBlock *right = f->createBlock("right");
    BasicBlock *merge = f->createBlock("merge");
    b.setInsertPoint(entry);
    Instruction *cmp = b.icmp(CmpPred::LT, f->arg(0), b.i64(10));
    b.condBr(cmp, left, right);
    b.setInsertPoint(left);
    b.br(merge);
    b.setInsertPoint(right);
    b.br(merge);
    b.setInsertPoint(merge);
    Instruction *p = b.phi(m.types().doubleTy(), "p");
    p->addIncoming(f->arg(0), left); // i64 into a double phi
    p->addIncoming(f->arg(0), right);
    b.ret(p);

    expectOnlyRule(verifyFunctionDetailed(f), "phi-type");
}

TEST(Verifier, StoreThroughNonPointer)
{
    Module m;
    Function *f = m.createFunction("f", m.types().voidTy(),
                                   {m.types().i64Ty()});
    IRBuilder b(m);
    BasicBlock *entry = f->createBlock("entry");
    b.setInsertPoint(entry);
    Instruction *slot = b.alloca_(m.types().i64Ty(), "slot");
    // IRBuilder::store asserts well-typedness; build the swapped
    // store (value <-> pointer) by hand.
    auto st = std::make_unique<Instruction>(Opcode::Store,
                                            m.types().voidTy(), "");
    st->addOperand(slot);      // "value" is the pointer
    st->addOperand(f->arg(0)); // "pointer" is a plain i64
    entry->append(std::move(st));
    b.retVoid();

    expectOnlyRule(verifyFunctionDetailed(f), "op-type");
}

TEST(Verifier, BranchIntoForeignFunction)
{
    Module m;
    Function *g = m.createFunction("g", m.types().voidTy(), {});
    IRBuilder b(m);
    BasicBlock *gEntry = g->createBlock("entry");
    b.setInsertPoint(gEntry);
    b.retVoid();

    Function *f = m.createFunction("f", m.types().voidTy(), {});
    b.setInsertPoint(f->createBlock("entry"));
    b.br(gEntry); // target lives in @g

    expectOnlyRule(verifyFunctionDetailed(f), "cfg-edge");
}

TEST(Verifier, UnreachableBlockIsWarningOnly)
{
    Module m;
    Function *f = m.createFunction("f", m.types().i64Ty(),
                                   {m.types().i64Ty()});
    IRBuilder b(m);
    b.setInsertPoint(f->createBlock("entry"));
    b.ret(f->arg(0));
    b.setInsertPoint(f->createBlock("orphan"));
    b.ret(f->arg(0));

    VerifierReport report = verifyFunctionDetailed(f);
    EXPECT_TRUE(report.ok()) << report.str();
    EXPECT_TRUE(report.hasRule("cfg-unreachable")) << report.str();
    EXPECT_EQ(report.warningCount(), 1u) << report.str();
    // Warnings never surface through the legacy string API.
    EXPECT_TRUE(verifyModule(m).empty());
}

// The seed verifier checked nothing about call sites — a rewrite that
// materialized a call with the wrong arity or types sailed through
// verifyModule. These four pin the new call rules, through the legacy
// API too (the frontend's final gate must now reject such modules).

TEST(Verifier, CallArgumentCountMismatch)
{
    Module m;
    Function *callee = m.createFunction("api", m.types().i64Ty(),
                                        {m.types().i64Ty()});
    Function *f = m.createFunction("f", m.types().i64Ty(), {});
    IRBuilder b(m);
    b.setInsertPoint(f->createBlock("entry"));
    Instruction *c = b.call(callee, {}); // @api takes one argument
    b.ret(c);

    expectOnlyRule(verifyFunctionDetailed(f), "call-arity");
    EXPECT_FALSE(verifyModule(m).empty());
}

TEST(Verifier, CallArgumentTypeMismatch)
{
    Module m;
    Function *callee = m.createFunction("api", m.types().i64Ty(),
                                        {m.types().i64Ty()});
    Function *f = m.createFunction("f", m.types().i64Ty(), {});
    IRBuilder b(m);
    b.setInsertPoint(f->createBlock("entry"));
    Instruction *c = b.call(callee, {b.f64(1.0)}); // double vs i64
    b.ret(c);

    expectOnlyRule(verifyFunctionDetailed(f), "call-arg-type");
    EXPECT_FALSE(verifyModule(m).empty());
}

TEST(Verifier, CallResultTypeMismatch)
{
    Module m;
    Function *calleeI = m.createFunction("api_i", m.types().i64Ty(),
                                         {m.types().i64Ty()});
    Function *calleeF = m.createFunction(
        "api_f", m.types().doubleTy(), {m.types().i64Ty()});
    Function *f = m.createFunction("f", m.types().i64Ty(), {});
    IRBuilder b(m);
    b.setInsertPoint(f->createBlock("entry"));
    Instruction *c = b.call(calleeI, {b.i64(1)});
    b.ret(c);
    // Retarget the call at a double-returning callee: the i64-typed
    // call result no longer matches the signature.
    c->setCallee(calleeF);

    expectOnlyRule(verifyFunctionDetailed(f), "call-ret-type");
}

TEST(Verifier, CallIntoForeignModule)
{
    Module other;
    Function *alien = other.createFunction(
        "alien", other.types().voidTy(), {});
    Module m;
    Function *f = m.createFunction("f", m.types().voidTy(), {});
    IRBuilder b(m);
    b.setInsertPoint(f->createBlock("entry"));
    b.call(alien, {});
    b.retVoid();

    expectOnlyRule(verifyFunctionDetailed(f), "call-callee");
}

TEST(Verifier, VerifyOrThrowNamesTheBoundary)
{
    Module m;
    Function *f = m.createFunction("f", m.types().voidTy(),
                                   {m.types().i64Ty()});
    IRBuilder b(m);
    b.setInsertPoint(f->createBlock("entry"));
    b.add(f->arg(0), b.i64(1)); // no terminator

    try {
        verifyOrThrow(m, "unit-test-boundary");
        FAIL() << "expected InternalError";
    } catch (const InternalError &e) {
        EXPECT_NE(std::string(e.what()).find("unit-test-boundary"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("block-term"),
                  std::string::npos);
    }
}

TEST(Verifier, DiagnosticRendersStructuredFields)
{
    Module m;
    Function *f =
        m.createFunction("f", m.types().i64Ty(), {m.types().i64Ty()});
    IRBuilder b(m);
    BasicBlock *entry = f->createBlock("entry");
    BasicBlock *left = f->createBlock("left");
    BasicBlock *right = f->createBlock("right");
    BasicBlock *exit = f->createBlock("exit");
    b.setInsertPoint(entry);
    Instruction *cmp = b.icmp(CmpPred::LT, f->arg(0), b.i64(10));
    b.condBr(cmp, left, right);
    b.setInsertPoint(left);
    Instruction *x = b.add(f->arg(0), b.i64(1), "x");
    b.br(exit);
    b.setInsertPoint(right);
    b.add(x, b.i64(2), "y");
    b.br(exit);
    b.setInsertPoint(exit);
    b.ret(f->arg(0));

    VerifierReport report = verifyFunctionDetailed(f);
    ASSERT_FALSE(report.ok());
    const VerifierDiag &d = report.firstError();
    EXPECT_EQ(d.rule, "dom-use");
    EXPECT_EQ(d.function, "f");
    EXPECT_EQ(d.block, "right");
    EXPECT_EQ(d.instIndex, 0);
    EXPECT_NE(d.str().find("rule=dom-use"), std::string::npos);
    EXPECT_NE(d.str().find("function=@f"), std::string::npos);
    EXPECT_NE(d.str().find("block=%right"), std::string::npos);
}
