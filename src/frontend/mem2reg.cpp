#include "frontend/mem2reg.h"

#include <map>
#include <set>
#include <vector>

#include "analysis/dominators.h"
#include "support/diagnostics.h"

namespace repro::frontend {

using analysis::DomTree;
using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Opcode;
using ir::Value;

namespace {

/** True if every use of @p alloca is a direct scalar load or store. */
bool
isPromotable(Instruction *alloca)
{
    if (alloca->accessType()->isArray())
        return false;
    for (Instruction *user : alloca->users()) {
        if (user->is(Opcode::Load))
            continue;
        if (user->is(Opcode::Store) && user->operand(1) == alloca &&
            user->operand(0) != alloca) {
            continue;
        }
        return false;
    }
    return true;
}

Value *
zeroFor(ir::Module &module, ir::Type *type)
{
    if (type->isFloatingPoint())
        return module.fpConst(type, 0.0);
    return module.intConst(type, 0);
}

/** Promotes one function's allocas. */
class Promoter
{
  public:
    explicit Promoter(Function *func)
        : func_(func), dom_(func, false)
    {
        for (const auto &bb : func->blocks()) {
            BasicBlock *d = dom_.idom(bb.get());
            if (d)
                domChildren_[d].push_back(bb.get());
        }
    }

    int
    run()
    {
        std::vector<Instruction *> allocas;
        for (const auto &bb : func_->blocks()) {
            for (const auto &inst : bb->insts()) {
                if (inst->is(Opcode::Alloca) &&
                    isPromotable(inst.get())) {
                    allocas.push_back(inst.get());
                }
            }
        }
        if (allocas.empty())
            return 0;

        for (Instruction *a : allocas)
            placePhis(a);

        std::map<Instruction *, Value *> incoming;
        for (Instruction *a : allocas) {
            incoming[a] = zeroFor(*func_->parentModule(),
                                  a->accessType());
        }
        rename(func_->entry(), incoming);

        // Delete the dead stores, loads and allocas.
        for (Instruction *inst : toErase_)
            inst->dropOperands();
        for (Instruction *inst : toErase_)
            inst->eraseFromParent();
        for (Instruction *a : allocas) {
            reproAssert(a->unused(), "mem2reg: alloca still used");
            a->eraseFromParent();
        }
        return static_cast<int>(allocas.size());
    }

  private:
    void
    placePhis(Instruction *alloca)
    {
        // Blocks containing a store to this alloca.
        std::vector<BasicBlock *> work;
        for (Instruction *user : alloca->users()) {
            if (user->is(Opcode::Store))
                work.push_back(user->parent());
        }
        std::set<BasicBlock *> has_phi;
        while (!work.empty()) {
            BasicBlock *bb = work.back();
            work.pop_back();
            for (BasicBlock *fr : dom_.frontier(bb)) {
                if (!has_phi.insert(fr).second)
                    continue;
                auto phi = std::make_unique<Instruction>(
                    Opcode::Phi, alloca->accessType(),
                    func_->uniqueName(alloca->name() + ".phi"));
                allocaOfPhi_[fr->insert(0, std::move(phi))] = alloca;
                work.push_back(fr);
            }
        }
    }

    void
    rename(BasicBlock *bb, std::map<Instruction *, Value *> incoming)
    {
        // Phis placed in this block define new values first.
        for (const auto &phi : bb->insts()) {
            if (!phi->is(Opcode::Phi))
                break;
            auto a = allocaOfPhi_.find(phi.get());
            if (a != allocaOfPhi_.end())
                incoming[a->second] = phi.get();
        }
        for (const auto &inst_ptr : bb->insts()) {
            Instruction *inst = inst_ptr.get();
            if (inst->is(Opcode::Load)) {
                Value *addr = inst->operand(0);
                if (addr->isInstruction()) {
                    auto *a = static_cast<Instruction *>(addr);
                    auto it = incoming.find(a);
                    if (it != incoming.end()) {
                        inst->replaceAllUsesWith(it->second);
                        toErase_.push_back(inst);
                    }
                }
            } else if (inst->is(Opcode::Store)) {
                Value *addr = inst->operand(1);
                if (addr->isInstruction()) {
                    auto *a = static_cast<Instruction *>(addr);
                    auto it = incoming.find(a);
                    if (it != incoming.end()) {
                        it->second = inst->operand(0);
                        toErase_.push_back(inst);
                    }
                }
            }
        }
        // Feed phi nodes of successors, in block order: a value
        // feeding several phis then lists them as users in an order
        // that does not depend on heap addresses.
        for (BasicBlock *succ : bb->successors()) {
            for (const auto &phi : succ->insts()) {
                if (!phi->is(Opcode::Phi))
                    break;
                auto a = allocaOfPhi_.find(phi.get());
                if (a == allocaOfPhi_.end())
                    continue;
                auto it = incoming.find(a->second);
                if (it != incoming.end())
                    phi->addIncoming(it->second, bb);
            }
        }
        // Recurse over dominator tree children.
        auto cit = domChildren_.find(bb);
        if (cit != domChildren_.end()) {
            for (BasicBlock *child : cit->second)
                rename(child, incoming);
        }
    }

    Function *func_;
    DomTree dom_;
    std::map<BasicBlock *, std::vector<BasicBlock *>> domChildren_;
    /** The alloca each placed phi stands for. */
    std::map<Instruction *, Instruction *> allocaOfPhi_;
    std::vector<Instruction *> toErase_;
};

} // namespace

int
promoteAllocas(Function *func)
{
    if (func->isDeclaration())
        return 0;
    Promoter promoter(func);
    return promoter.run();
}

void
promoteModule(ir::Module &module)
{
    for (const auto &f : module.functions())
        promoteAllocas(f.get());
}

} // namespace repro::frontend
