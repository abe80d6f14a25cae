#include "analysis/workload.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "analysis/function_analyses.h"
#include "ir/basic_block.h"
#include "ir/instruction.h"

namespace repro::analysis {

namespace {

using ir::Opcode;

/** Fallback trips when a loop bound cannot be derived statically. */
constexpr double kDefaultTrip = 64.0;

/** The nest: @p loop plus every loop nested inside it. */
void
collectNest(const Loop *loop, std::vector<const Loop *> &out)
{
    out.push_back(loop);
    for (const Loop *child : loop->children)
        collectNest(child, out);
}

const ir::Value *
stripCasts(const ir::Value *v)
{
    while (v && v->isInstruction()) {
        const auto *inst = static_cast<const ir::Instruction *>(v);
        if (inst->is(Opcode::SExt) || inst->is(Opcode::ZExt) ||
            inst->is(Opcode::Trunc))
            v = inst->operand(0);
        else
            break;
    }
    return v;
}

/** Header phi of @p loop reachable from @p v through casts/one add. */
const ir::Instruction *
headerPhiBehind(const ir::Value *v, const Loop *loop)
{
    v = stripCasts(v);
    if (!v || !v->isInstruction())
        return nullptr;
    const auto *inst = static_cast<const ir::Instruction *>(v);
    if (inst->is(Opcode::Phi) && inst->parent() == loop->header)
        return inst;
    // Rotated form: the comparison sees the already-incremented value.
    if (inst->is(Opcode::Add) || inst->is(Opcode::Sub)) {
        for (const ir::Value *op : inst->operands()) {
            const ir::Value *s = stripCasts(op);
            if (s && s->isInstruction()) {
                const auto *p = static_cast<const ir::Instruction *>(s);
                if (p->is(Opcode::Phi) && p->parent() == loop->header)
                    return p;
            }
        }
    }
    return nullptr;
}

/** Constant incoming value of @p phi from outside @p loop, if any. */
const ir::Constant *
constantInit(const ir::Instruction *phi, const Loop *loop)
{
    const auto &blocks = phi->incomingBlocks();
    for (size_t i = 0; i < phi->numOperands(); ++i) {
        if (i < blocks.size() && loop->contains(blocks[i]))
            continue;
        const ir::Value *v = stripCasts(phi->operand(i));
        if (v && v->isConstant())
            return static_cast<const ir::Constant *>(v);
        return nullptr;
    }
    return nullptr;
}

/**
 * Static per-entry trip estimate: a header comparison of the
 * induction phi against a constant, with a constant phi init, gives
 * bound - init; anything else defaults.
 */
double
staticTrip(const Loop *loop)
{
    const ir::Instruction *term = loop->header->terminator();
    if (!term || !term->isConditionalBranch())
        return kDefaultTrip;
    const ir::Value *cond = term->operand(0);
    if (!cond->isInstruction())
        return kDefaultTrip;
    const auto *cmp = static_cast<const ir::Instruction *>(cond);
    if (!cmp->is(Opcode::ICmp) || cmp->numOperands() != 2)
        return kDefaultTrip;
    for (int side = 0; side < 2; ++side) {
        const ir::Instruction *phi =
            headerPhiBehind(cmp->operand(side), loop);
        const ir::Value *bound = stripCasts(cmp->operand(1 - side));
        if (!phi || !bound || !bound->isConstant())
            continue;
        const ir::Constant *init = constantInit(phi, loop);
        if (!init || init->isFP())
            continue;
        const auto *b = static_cast<const ir::Constant *>(bound);
        if (b->isFP())
            continue;
        double trip = static_cast<double>(b->intValue()) -
                      static_cast<double>(init->intValue());
        if (trip < 0.0)
            trip = -trip;
        return std::max(trip, 1.0);
    }
    return kDefaultTrip;
}

/**
 * Which nest loops the address @p v depends on. Stops at nest-header
 * phis (recording the loop, then continuing through the phi's
 * out-of-loop init so e.g. a CSR inner bound rowstr[j] picks up the
 * row loop); traverses through loads into their address so
 * data-dependent subscripts like x[colidx[k]] resolve to k's loop.
 */
void
depLoops(const ir::Value *v,
         const std::map<const ir::BasicBlock *, const Loop *> &headers,
         std::set<const Loop *> &deps, std::set<const ir::Value *> &seen)
{
    if (!v || !seen.insert(v).second || !v->isInstruction())
        return;
    const auto *inst = static_cast<const ir::Instruction *>(v);
    if (inst->is(Opcode::Phi)) {
        auto it = headers.find(inst->parent());
        if (it == headers.end())
            return; // phi of some enclosing loop: out of scope
        if (!deps.insert(it->second).second)
            return;
        const auto &blocks = inst->incomingBlocks();
        for (size_t i = 0; i < inst->numOperands(); ++i) {
            if (i < blocks.size() &&
                !it->second->contains(blocks[i]))
                depLoops(inst->operand(i), headers, deps, seen);
        }
        return;
    }
    if (inst->is(Opcode::Load)) {
        depLoops(inst->operand(0), headers, deps, seen);
        return;
    }
    for (const ir::Value *op : inst->operands())
        depLoops(op, headers, deps, seen);
}

bool
isFpArith(const ir::Instruction *inst)
{
    return inst->is(Opcode::FAdd) || inst->is(Opcode::FSub) ||
           inst->is(Opcode::FMul) || inst->is(Opcode::FDiv);
}

} // namespace

WorkloadDescriptor
estimateWorkload(const LoopInfo &loops, const Loop *loop)
{
    WorkloadDescriptor wd;

    std::vector<const Loop *> nest;
    collectNest(loop, nest);
    std::map<const ir::BasicBlock *, const Loop *> headers;
    for (const Loop *l : nest)
        headers[l->header] = l;

    // Per-entry trips of each nest loop (relative to its parent).
    std::map<const Loop *, double> trip;
    for (const Loop *l : nest)
        trip[l] = staticTrip(l);
    wd.tripCount = trip[loop];

    // Arithmetic and traffic: block weight = product of enclosing nest
    // trips.
    auto blockWeight = [&](const ir::BasicBlock *bb) {
        double w = 1.0;
        for (const Loop *l = loops.loopFor(bb); l;
             l = l->parent) {
            auto it = trip.find(l);
            if (it != trip.end())
                w *= it->second;
        }
        return w;
    };

    struct Access
    {
        const ir::Value *addr;
        double elemBytes;
    };
    std::vector<Access> accesses;

    for (const ir::BasicBlock *bb : loop->blocks) {
        const double n = blockWeight(bb);
        for (const auto &inst : bb->insts()) {
            if (isFpArith(inst.get())) {
                wd.flops += n;
            } else if (inst->is(Opcode::Load)) {
                double sz = static_cast<double>(
                    inst->type()->sizeInBytes());
                wd.bytes += n * sz;
                accesses.push_back({inst->operand(0), sz});
            } else if (inst->is(Opcode::Store)) {
                double sz = static_cast<double>(
                    inst->operand(0)->type()->sizeInBytes());
                wd.bytes += n * sz;
                accesses.push_back({inst->operand(1), sz});
            }
        }
    }

    // Footprint: per distinct base pointer, the widest extent any
    // access implies — the product of the trips of the loops its
    // subscript depends on.
    std::map<const ir::Value *, double> extents;
    for (const Access &a : accesses) {
        std::set<const Loop *> deps;
        std::set<const ir::Value *> seen;
        depLoops(a.addr, headers, deps, seen);
        double elems = 1.0;
        for (const Loop *l : deps)
            elems *= trip[l];
        const ir::Value *base = basePointerOf(a.addr);
        double &slot = extents[base];
        slot = std::max(slot, elems * a.elemBytes);
    }
    for (const auto &kv : extents)
        wd.transferBytes += kv.second;

    return wd;
}

} // namespace repro::analysis
