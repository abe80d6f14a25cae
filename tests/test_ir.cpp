#include <gtest/gtest.h>

#include "ir/irbuilder.h"
#include "ir/verifier.h"

using namespace repro;
using namespace repro::ir;

TEST(Types, InterningGivesPointerEquality)
{
    TypeContext ctx;
    EXPECT_EQ(ctx.pointerTo(ctx.doubleTy()),
              ctx.pointerTo(ctx.doubleTy()));
    EXPECT_EQ(ctx.arrayOf(ctx.i32Ty(), 8), ctx.arrayOf(ctx.i32Ty(), 8));
    EXPECT_NE(ctx.arrayOf(ctx.i32Ty(), 8), ctx.arrayOf(ctx.i32Ty(), 9));
    EXPECT_NE(ctx.pointerTo(ctx.floatTy()),
              ctx.pointerTo(ctx.doubleTy()));
}

TEST(Types, SizeAndPrinting)
{
    TypeContext ctx;
    Type *arr = ctx.arrayOf(ctx.arrayOf(ctx.doubleTy(), 3), 2);
    EXPECT_EQ(arr->sizeInBytes(), 48u);
    EXPECT_EQ(arr->str(), "[2 x [3 x double]]");
    EXPECT_EQ(ctx.pointerTo(arr)->str(), "[2 x [3 x double]]*");
}

TEST(Values, UseListsAndRAUW)
{
    Module module;
    Function *f = module.createFunction(
        "f", module.types().i64Ty(),
        {module.types().i64Ty(), module.types().i64Ty()});
    IRBuilder b(module);
    b.setInsertPoint(f->createBlock("entry"));
    Instruction *add = b.add(f->arg(0), f->arg(1), "s");
    Instruction *mul = b.mul(add, f->arg(0), "m");
    b.ret(mul);

    EXPECT_EQ(f->arg(0)->users().size(), 2u);
    EXPECT_EQ(add->users().size(), 1u);

    // Replace arg0 with arg1 everywhere.
    f->arg(0)->replaceAllUsesWith(f->arg(1));
    EXPECT_TRUE(f->arg(0)->unused());
    EXPECT_EQ(add->operand(0), f->arg(1));
    EXPECT_EQ(mul->operand(1), f->arg(1));
    EXPECT_EQ(f->arg(1)->users().size(), 3u);
}

TEST(Values, EraseRequiresNoUsers)
{
    Module module;
    Function *f = module.createFunction("f", module.types().voidTy(),
                                        {module.types().i64Ty()});
    IRBuilder b(module);
    b.setInsertPoint(f->createBlock("entry"));
    Instruction *dead = b.add(f->arg(0), b.i64(1));
    b.retVoid();
    EXPECT_NO_THROW(dead->eraseFromParent());
    EXPECT_EQ(f->entry()->size(), 1u);
}

TEST(Verifier, CatchesBrokenIR)
{
    Module module;
    Function *f = module.createFunction("f", module.types().i32Ty(),
                                        {module.types().doubleTy()});
    IRBuilder b(module);
    b.setInsertPoint(f->createBlock("entry"));
    // Return type mismatch: returning a double from an i32 function.
    b.ret(f->arg(0));
    VerifierReport report = verifyFunctionDetailed(f);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.firstError().message.find("ret type mismatch"),
              std::string::npos);
}

TEST(Verifier, CatchesMissingTerminator)
{
    Module module;
    Function *f = module.createFunction("f", module.types().voidTy(),
                                        {});
    f->createBlock("entry");
    VerifierReport report = verifyFunctionDetailed(f);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.firstError().message.find("no terminator"),
              std::string::npos);
}
