#include "analysis/candidate_index.h"

#include <set>

namespace repro::analysis {

using ir::Constant;
using ir::Instruction;
using ir::Value;

const std::vector<const Value *> CandidateIndex::empty_;

void
CandidateIndex::add(Value *v)
{
    // Keep renumber()'s dense id sequence for the printable "%N"
    // handles of unnamed values — but only write function-owned
    // values (arguments, instructions). Constants and globals are
    // interned per module and shared across functions: their ids are
    // never read (Constant/GlobalVariable override handle()), so
    // indexing one function must not write state its siblings share.
    if (v->isArgument() || v->isInstruction())
        v->setId(static_cast<int>(universe_.size()));
    else
        sharedIndex_.emplace(v, static_cast<uint32_t>(universe_.size()));
    universe_.push_back(v);
    if (v->isInstruction()) {
        instructions_.push_back(v);
        byOpcode_[static_cast<const Instruction *>(v)->opcode()]
            .push_back(v);
    } else if (v->isConstant()) {
        constants_.push_back(v);
        if (static_cast<const Constant *>(v)->isZero())
            zeroConstants_.push_back(v);
    } else if (v->isArgument()) {
        arguments_.push_back(v);
    }
    if (v->isConstant() || v->isArgument() || v->isGlobal())
        compileTime_.push_back(v);
}

CandidateIndex::CandidateIndex(ir::Function *func)
{
    // Same traversal as Function::renumber().
    for (const auto &a : func->args())
        add(a.get());
    std::set<const Value *> const_seen;
    for (const auto &bb : func->blocks()) {
        for (const auto &inst : bb->insts()) {
            add(inst.get());
            for (Value *op : inst->operands()) {
                if ((op->isConstant() || op->isGlobal()) &&
                    const_seen.insert(op).second) {
                    add(op);
                }
            }
        }
    }

    // Operand-edge adjacency in Value::users() order, matching the
    // order the pre-index generator enumerated IsArgumentOf users.
    for (const Value *v : universe_) {
        for (const Instruction *user : v->users()) {
            size_t n = std::min(user->numOperands(), kMaxArgPositions);
            for (size_t pos = 0; pos < n; ++pos) {
                if (user->operand(pos) == v)
                    argUsers_[v][pos].push_back(user);
            }
        }
    }
}

} // namespace repro::analysis
