#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "analysis/function_analyses.h"
#include "benchmarks/suite.h"
#include "frontend/compiler.h"
#include "ir/irbuilder.h"

using namespace repro;
using namespace repro::analysis;

namespace {

/**
 * Diamond CFG: entry -> (then|else) -> merge -> exit.
 *
 *   define i32 @f(i1 %c, i32 %a, i32 %b)
 *   entry: br %c, %then, %else
 *   then:  %x = add i32 %a, 1; br %merge
 *   else:  %y = add i32 %b, 2; br %merge
 *   merge: %p = phi i32 [%x, %then], [%y, %else]; ret %p
 */
ir::Function *
buildDiamond(ir::Module &m)
{
    ir::TypeContext &t = m.types();
    ir::Function *f =
        m.createFunction("f", t.i32Ty(), {t.i1Ty(), t.i32Ty(), t.i32Ty()});
    f->arg(0)->setName("c");
    f->arg(1)->setName("a");
    f->arg(2)->setName("b");
    ir::BasicBlock *entry = f->createBlock("entry");
    ir::BasicBlock *then_bb = f->createBlock("then");
    ir::BasicBlock *else_bb = f->createBlock("else");
    ir::BasicBlock *merge = f->createBlock("merge");

    ir::IRBuilder b(m);
    b.setInsertPoint(entry);
    b.condBr(f->arg(0), then_bb, else_bb);
    b.setInsertPoint(then_bb);
    ir::Instruction *x = b.add(f->arg(1), b.i32(1), "x");
    b.br(merge);
    b.setInsertPoint(else_bb);
    ir::Instruction *y = b.add(f->arg(2), b.i32(2), "y");
    b.br(merge);
    b.setInsertPoint(merge);
    ir::Instruction *p = b.phi(t.i32Ty(), "p");
    p->addIncoming(x, then_bb);
    p->addIncoming(y, else_bb);
    b.ret(p);
    return f;
}

/**
 * Blocks the (post-)dominator tree's root reaches: from the entry
 * along successors, or from every returning block along
 * predecessors.
 */
std::set<const ir::BasicBlock *>
reachedFromRoot(const ir::Function *f, bool post_dom)
{
    std::vector<const ir::BasicBlock *> work;
    if (!post_dom) {
        work.push_back(f->entry());
    } else {
        for (const auto &bb : f->blocks()) {
            const ir::Instruction *term = bb->terminator();
            if (term && term->is(ir::Opcode::Ret))
                work.push_back(bb.get());
        }
    }
    std::set<const ir::BasicBlock *> seen(work.begin(), work.end());
    while (!work.empty()) {
        const ir::BasicBlock *bb = work.back();
        work.pop_back();
        for (const ir::BasicBlock *next :
             post_dom ? bb->predecessors() : bb->successors()) {
            if (seen.insert(next).second)
                work.push_back(next);
        }
    }
    return seen;
}

/** Every block pair of @p f: DomTree::dominates equals a walk up
 *  idom() from the dominated block. */
void
expectDominatesMatchesIdomWalk(ir::Function *f, bool post_dom)
{
    DomTree dom(f, post_dom);
    auto reached = reachedFromRoot(f, post_dom);
    for (const auto &a : f->blocks()) {
        for (const auto &b : f->blocks()) {
            bool walk = false;
            if (reached.count(a.get()) && reached.count(b.get())) {
                for (const ir::BasicBlock *r = b.get(); r && !walk;
                     r = dom.idom(r))
                    walk = r == a.get();
            }
            EXPECT_EQ(dom.dominates(a.get(), b.get()), walk)
                << "@" << f->name() << (post_dom ? " post " : " ")
                << a->name() << " -> " << b->name();
        }
    }
}

} // namespace

TEST(Dominators, DiamondBlocks)
{
    ir::Module m;
    ir::Function *f = buildDiamond(m);
    DomTree dom(f, false);
    ir::BasicBlock *entry = f->blockByName("entry");
    ir::BasicBlock *then_bb = f->blockByName("then");
    ir::BasicBlock *else_bb = f->blockByName("else");
    ir::BasicBlock *merge = f->blockByName("merge");

    EXPECT_TRUE(dom.dominates(entry, merge));
    EXPECT_TRUE(dom.dominates(entry, then_bb));
    EXPECT_FALSE(dom.dominates(then_bb, merge));
    EXPECT_FALSE(dom.dominates(then_bb, else_bb));
    EXPECT_EQ(dom.idom(merge), entry);
    EXPECT_EQ(dom.idom(then_bb), entry);
    EXPECT_EQ(dom.idom(entry), nullptr);
    // Dominance frontier of the branch sides is the merge block.
    ASSERT_EQ(dom.frontier(then_bb).size(), 1u);
    EXPECT_EQ(dom.frontier(then_bb)[0], merge);
}

TEST(Dominators, PostDominance)
{
    ir::Module m;
    ir::Function *f = buildDiamond(m);
    DomTree pdom(f, true);
    ir::BasicBlock *entry = f->blockByName("entry");
    ir::BasicBlock *then_bb = f->blockByName("then");
    ir::BasicBlock *merge = f->blockByName("merge");

    EXPECT_TRUE(pdom.dominates(merge, entry));
    EXPECT_TRUE(pdom.dominates(merge, then_bb));
    EXPECT_FALSE(pdom.dominates(then_bb, entry));
}

TEST(Dominators, BlockQueriesMatchIdomWalkOnSuite)
{
    for (const auto &p : benchmarks::nasParboilSuite()) {
        SCOPED_TRACE(p.name);
        ir::Module m;
        frontend::compileMiniCOrDie(p.source, m);
        for (const auto &f : m.functions()) {
            if (f->isDeclaration())
                continue;
            expectDominatesMatchesIdomWalk(f.get(), false);
            expectDominatesMatchesIdomWalk(f.get(), true);
        }
    }
}

/**
 * Two returns join at the post-dominance virtual root; %spin reaches
 * no return and %dead is unreachable from the entry, so each is off
 * one of the two trees.
 *
 *   entry: br %c, %left, %mid
 *   mid:   br %c, %right, %spin
 *   left:  ret 1
 *   right: ret 2
 *   spin:  br %spin
 *   dead:  br %left
 */
TEST(Dominators, BlockQueriesMatchIdomWalkOffTheTree)
{
    ir::Module m;
    ir::TypeContext &t = m.types();
    ir::Function *f = m.createFunction("g", t.i32Ty(), {t.i1Ty()});
    ir::BasicBlock *entry = f->createBlock("entry");
    ir::BasicBlock *mid = f->createBlock("mid");
    ir::BasicBlock *left = f->createBlock("left");
    ir::BasicBlock *right = f->createBlock("right");
    ir::BasicBlock *spin = f->createBlock("spin");
    ir::BasicBlock *dead = f->createBlock("dead");
    ir::IRBuilder b(m);
    b.setInsertPoint(entry);
    b.condBr(f->arg(0), left, mid);
    b.setInsertPoint(mid);
    b.condBr(f->arg(0), right, spin);
    b.setInsertPoint(left);
    b.ret(b.i32(1));
    b.setInsertPoint(right);
    b.ret(b.i32(2));
    b.setInsertPoint(spin);
    b.br(spin);
    b.setInsertPoint(dead);
    b.br(left);

    expectDominatesMatchesIdomWalk(f, false);
    expectDominatesMatchesIdomWalk(f, true);
    DomTree dom(f, false), pdom(f, true);
    EXPECT_FALSE(dom.dominates(dead, dead));
    EXPECT_FALSE(dom.dominates(dead, left));
    EXPECT_TRUE(dom.dominates(mid, spin));
    EXPECT_FALSE(pdom.dominates(spin, spin));
    EXPECT_TRUE(pdom.dominates(left, dead));
    EXPECT_FALSE(pdom.dominates(left, entry));
    EXPECT_EQ(pdom.idom(left), nullptr);
}

TEST(Dominators, InstructionLevelSameBlock)
{
    ir::Module m;
    ir::Function *f = buildDiamond(m);
    DomTree dom(f, false);
    ir::BasicBlock *then_bb = f->blockByName("then");
    const ir::Instruction *first = then_bb->front();
    const ir::Instruction *last = then_bb->terminator();
    EXPECT_TRUE(dom.dominates(first, last));
    EXPECT_FALSE(dom.strictlyDominates(last, first));
    EXPECT_TRUE(dom.dominates(first, first));
}

TEST(ControlDependence, BranchGovernsSides)
{
    ir::Module m;
    ir::Function *f = buildDiamond(m);
    FunctionAnalyses fa(f);
    const ir::Instruction *branch =
        f->blockByName("entry")->terminator();
    const ir::Instruction *in_then = f->blockByName("then")->front();
    const ir::Instruction *in_merge =
        f->blockByName("merge")->front();
    EXPECT_TRUE(fa.hasControlDependenceEdge(branch, in_then));
    EXPECT_FALSE(fa.hasControlDependenceEdge(branch, in_merge));
}

TEST(Loops, NestDepthAndStructure)
{
    const char *src = R"(
        void f(double *a, int n, int mm) {
            for (int i = 0; i < n; i++)
                for (int j = 0; j < mm; j++)
                    a[i] = a[i] + 1.0;
        }
    )";
    ir::Module m;
    frontend::compileMiniCOrDie(src, m);
    ir::Function *f = m.functionByName("f");
    DomTree dom(f, false);
    LoopInfo loops(f, dom);
    ASSERT_EQ(loops.loops().size(), 2u);

    const Loop *outer = nullptr;
    const Loop *inner = nullptr;
    for (const auto &l : loops.loops()) {
        if (l->depth == 1)
            outer = l.get();
        else
            inner = l.get();
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->parent, outer);
    EXPECT_EQ(outer->children.size(), 1u);
    EXPECT_TRUE(outer->contains(inner->header));
    EXPECT_NE(outer->preheader(), nullptr);
    EXPECT_FALSE(outer->exitingBlocks().empty());
}

TEST(InstCfg, PathQueriesRespectRemovedNodes)
{
    ir::Module m;
    ir::Function *f = buildDiamond(m);
    InstCFG cfg(f);
    const ir::Instruction *entry_term =
        f->blockByName("entry")->terminator();
    const ir::Instruction *merge_first =
        f->blockByName("merge")->front();
    const ir::Instruction *then_first =
        f->blockByName("then")->front();
    const ir::Instruction *else_first =
        f->blockByName("else")->front();

    EXPECT_TRUE(cfg.pathExists(entry_term, merge_first, {}));
    // Removing one side still leaves the other path.
    EXPECT_TRUE(cfg.pathExists(entry_term, merge_first, {then_first}));
    // Removing both sides disconnects entry from merge.
    EXPECT_FALSE(cfg.pathExists(entry_term, merge_first,
                                {then_first, else_first}));
}

TEST(DataFlow, TransitiveReachability)
{
    ir::Module m;
    ir::Function *f = buildDiamond(m);
    const ir::Value *a = f->arg(1);
    const ir::Instruction *ret =
        f->blockByName("merge")->terminator();
    const ir::Value *phi = f->blockByName("merge")->front();
    EXPECT_TRUE(dataPathExists(a, ret, {}));
    // Every data path from %a to the return runs through the phi.
    EXPECT_FALSE(dataPathExists(a, ret, {phi}));
}

TEST(BasePointer, WalksGepChains)
{
    // @g = global [4 x [4 x double]]; f(i, j) loads g[i][j] through
    // two chained GEPs: %row = gep @g, 0, %i; %elem = gep %row, 0, %j.
    ir::Module m;
    ir::TypeContext &t = m.types();
    ir::Type *row_ty = t.arrayOf(t.doubleTy(), 4);
    ir::GlobalVariable *g = m.createGlobal("g", t.arrayOf(row_ty, 4));
    ir::Function *f =
        m.createFunction("f", t.doubleTy(), {t.i64Ty(), t.i64Ty()});
    f->arg(0)->setName("i");
    f->arg(1)->setName("j");
    ir::IRBuilder b(m);
    b.setInsertPoint(f->createBlock("entry"));
    ir::Instruction *row = b.gep(g, {b.i64(0), f->arg(0)}, "row");
    ir::Instruction *elem = b.gep(row, {b.i64(0), f->arg(1)}, "elem");
    b.ret(b.load(elem, "v"));
    ASSERT_EQ(elem->operand(0), row);

    const ir::Instruction *load = nullptr;
    for (const auto &inst : f->entry()->insts()) {
        if (inst->is(ir::Opcode::Load))
            load = inst.get();
    }
    ASSERT_NE(load, nullptr);
    EXPECT_EQ(basePointerOf(load->operand(0)), m.globalByName("g"));
}
