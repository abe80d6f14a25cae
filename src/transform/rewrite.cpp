#include "transform/rewrite.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <set>

#include "frontend/passes.h"

namespace repro::transform {

using namespace detail;
using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Opcode;
using ir::Type;
using ir::Value;
using solver::Solution;

// ------------------------------------------------------------- planners
//
// Planners never mutate: everything the commit stage needs is recorded
// in the RewritePlan. plan() runs the frame every scheme shares; each
// planner adds only what is particular to its idiom. The check order
// and the points where a planner consumes the module's name counter
// are behaviour, not style: Transform.Table1SuiteGolden pins the
// callee and kernel names they produce and the order functions are
// appended to the module.

namespace {

/**
 * What plan() hands a planner. The plan arrives with its idiom,
 * function, bypassed loop, claimed blocks and record.kind set;
 * @p natural is that loop in the function's loop forest.
 */
struct Frame
{
    ir::Module &module;
    int &counter; ///< the engine's kernel/callee name counter
    const Solution &sol;
    const analysis::DomTree &dom;
    const analysis::Loop &natural;
};

/** Fills in @p plan; false when the scheme cannot express the match. */
using Planner = bool (*)(RewritePlan &plan, const Frame &f);

/** read[i].base_pointer of each of @p n collected reads, if all bound. */
std::optional<std::vector<Value *>>
readBases(const Solution &sol, size_t n)
{
    std::vector<Value *> bases;
    for (size_t i = 0; i < n; ++i) {
        Value *base = asValue(
            sol.lookup("read[" + std::to_string(i) + "].base_pointer"));
        if (!base)
            return std::nullopt;
        bases.push_back(base);
    }
    return bases;
}

/** Every instruction among @p values is available at the plan's
 *  precursor, where the inserted call passes it. */
bool
availableBefore(const Frame &f, const RewritePlan &plan,
                const std::vector<Value *> &values)
{
    for (Value *v : values) {
        Instruction *inst = asInst(v);
        if (inst && !f.dom.dominates(inst, plan.loop.precursor))
            return false;
    }
    return true;
}

bool
planSpmv(RewritePlan &plan, const Frame &f)
{
    const Solution &sol = f.sol;
    Value *rowstr = asValue(sol.lookup("range.lo.base_pointer"));
    Value *colidx = asValue(sol.lookup("idx_read.base_pointer"));
    Value *a = asValue(sol.lookup("seq_read.base_pointer"));
    Value *z = asValue(sol.lookup("indir_read.base_pointer"));
    Value *r = asValue(sol.lookup("output.base_pointer"));
    if (!rowstr || !colidx || !a || !z || !r)
        return false;

    auto &types = f.module.types();
    // The fixed cusparseDcsrmv-like signature (Figure 6).
    if (pointeeElement(rowstr) != types.i32Ty() ||
        pointeeElement(colidx) != types.i32Ty() ||
        pointeeElement(a) != types.doubleTy() ||
        pointeeElement(z) != types.doubleTy() ||
        pointeeElement(r) != types.doubleTy()) {
        return false;
    }
    if (!loopIsSelfContained(f.natural, nullptr) ||
        !loopEffectsAreCovered(
            f.natural, {sol.lookup("output.store_instr")}, false)) {
        return false;
    }

    Type *i32p = types.pointerTo(types.i32Ty());
    Type *f64p = types.pointerTo(types.doubleTy());
    plan.calleeReturn = types.voidTy();
    plan.calleeParams = {types.i64Ty(), types.i64Ty(), i32p, i32p,
                         f64p,          f64p,          f64p};
    plan.reuseCallee = true;
    plan.args = {{CallArg::Mode::ToI64, plan.loop.iterBegin},
                 {CallArg::Mode::ToI64, plan.loop.iterEnd},
                 {CallArg::Mode::Decay, rowstr},
                 {CallArg::Mode::Decay, colidx},
                 {CallArg::Mode::Decay, a},
                 {CallArg::Mode::Decay, z},
                 {CallArg::Mode::Decay, r}};
    plan.record.calleeName = "__hetero_spmv";
    return true;
}

bool
planGemm(RewritePlan &plan, const Frame &f)
{
    const Solution &sol = f.sol;
    const LoopShape &loop0 = plan.loop;
    LoopShape loop1 = loopFromSolution(sol, "loop[1].");
    LoopShape loop2 = loopFromSolution(sol, "loop[2].");
    if (!loop1.complete() || !loop2.complete())
        return false;

    auto &types = f.module.types();

    // Resolve one matrix access into base + (col, row) strides.
    struct Access
    {
        Value *base = nullptr;
        Value *colStride = nullptr;
        Value *rowStride = nullptr;
    };
    // col/row of each access were unified with loop iterators by the
    // GEMM constraint (Figure 10): output ↦ (it0, it1), input1 ↦
    // (it0, it2), input2 ↦ (it1, it2).
    auto resolve = [&](const std::string &prefix, const char *col_var,
                       const char *row_var) -> std::optional<Access> {
        Access acc;
        acc.base = asValue(sol.lookup(prefix + ".base_pointer"));
        if (!acc.base)
            return std::nullopt;
        const Value *col = sol.lookup(col_var);
        const Value *row = sol.lookup(row_var);
        Value *one = f.module.intConst(types.i64Ty(), 1);
        if (const Value *stride = sol.lookup(prefix + ".stride")) {
            // Flat form: plain + scaled_iter*stride.
            const Value *plain =
                stripSext(sol.lookup(prefix + ".plain"));
            if (plain == col) {
                acc.colStride = one;
                acc.rowStride = asValue(stride);
            } else if (plain == row) {
                acc.rowStride = one;
                acc.colStride = asValue(stride);
            } else {
                return std::nullopt;
            }
            return acc;
        }
        // 2D form: rowgep selects a row array; the address indexes it.
        Instruction *address = asInst(sol.lookup(prefix + ".address"));
        Instruction *rowgep = asInst(sol.lookup(prefix + ".rowgep"));
        if (!address || !rowgep)
            return std::nullopt;
        // Inner index of `address` (last operand, through sext).
        const Value *inner =
            stripSext(address->operand(address->numOperands() - 1));
        int64_t row_elems = static_cast<int64_t>(
            address->accessType()->arraySize());
        Value *stride = f.module.intConst(types.i64Ty(), row_elems);
        if (inner == col) {
            acc.colStride = one;
            acc.rowStride = stride;
        } else if (inner == row) {
            acc.rowStride = one;
            acc.colStride = stride;
        } else {
            return std::nullopt;
        }
        return acc;
    };

    auto out = resolve("output", "iterator[0]", "iterator[1]");
    auto in1 = resolve("input1", "iterator[0]", "iterator[2]");
    auto in2 = resolve("input2", "iterator[1]", "iterator[2]");
    if (!out || !in1 || !in2)
        return false;

    Type *elem = pointeeElement(out->base);
    if (elem != pointeeElement(in1->base) ||
        elem != pointeeElement(in2->base) ||
        !(elem == types.floatTy() || elem == types.doubleTy())) {
        return false;
    }

    // Alpha / beta extraction from the stored value expression.
    const Value *acc_phi = sol.lookup("acc");
    const Value *stored = sol.lookup("stored_value");
    const Value *init = sol.lookup("init");
    const Value *out_addr = sol.lookup("output.address");
    if (!acc_phi || !stored || !init)
        return false;

    Value *alpha = nullptr;
    Value *beta = nullptr;
    auto fp_const = [&](double v) -> Value * {
        return f.module.fpConst(elem, v);
    };
    auto is_load_of_out = [&](const Value *v) {
        const Instruction *inst =
            v->isInstruction() ? static_cast<const Instruction *>(v)
                               : nullptr;
        return inst && inst->is(Opcode::Load) &&
               structurallyEqual(inst->operand(0), out_addr);
    };

    std::set<const Value *> allowed_stores;
    allowed_stores.insert(sol.lookup("store_instr"));
    if (stored == acc_phi) {
        alpha = fp_const(1.0);
        if (init->isConstant() &&
            static_cast<const ir::Constant *>(init)->isZero()) {
            beta = fp_const(0.0);
        } else if (is_load_of_out(init)) {
            // Promoted accumulator (Figure 8, second style). If the
            // same iteration zero-initializes the cell first, the
            // effective semantics are beta = 0 and the init store
            // dies with the loop.
            const auto *init_load =
                static_cast<const Instruction *>(init);
            BasicBlock *bb = init_load->parent();
            int at = bb->indexOf(init_load);
            const Instruction *zero_store = nullptr;
            for (int i = at - 1; i >= 0; --i) {
                const Instruction *prev =
                    bb->insts()[static_cast<size_t>(i)].get();
                if (prev->is(Opcode::Store) &&
                    structurallyEqual(prev->operand(1),
                                      init_load->operand(0))) {
                    zero_store = prev;
                    break;
                }
            }
            if (zero_store) {
                const Value *sv = zero_store->operand(0);
                if (!sv->isConstant() ||
                    !static_cast<const ir::Constant *>(sv)->isZero()) {
                    return false;
                }
                beta = fp_const(0.0);
                allowed_stores.insert(zero_store);
            } else {
                beta = fp_const(1.0);
            }
        } else {
            return false;
        }
    } else {
        // Match beta*C + alpha*acc (any operand order).
        const Instruction *add = asInst(stored);
        if (!add || !add->is(Opcode::FAdd))
            return false;
        const Instruction *mul_a = asInst(add->operand(0));
        const Instruction *mul_b = asInst(add->operand(1));
        if (!mul_a || !mul_b || !mul_a->is(Opcode::FMul) ||
            !mul_b->is(Opcode::FMul)) {
            return false;
        }
        auto pick = [&](const Instruction *mul, const Value *want,
                        auto pred) -> Value * {
            for (int i = 0; i < 2; ++i) {
                if (pred(mul->operand(static_cast<size_t>(i)), want))
                    return asValue(mul->operand(1 - i));
            }
            return nullptr;
        };
        auto is_same = [](const Value *a, const Value *b) {
            return a == b;
        };
        auto is_out_load = [&](const Value *a, const Value *) {
            return is_load_of_out(a);
        };
        // acc can reach the mul through the phi exit value directly.
        alpha = pick(mul_a, acc_phi, is_same);
        beta = pick(mul_b, nullptr, is_out_load);
        if (!alpha || !beta) {
            alpha = pick(mul_b, acc_phi, is_same);
            beta = pick(mul_a, nullptr, is_out_load);
        }
        if (!alpha || !beta)
            return false;
        if (!init->isConstant() ||
            !static_cast<const ir::Constant *>(init)->isZero()) {
            return false;
        }
    }

    if (!loopIsSelfContained(f.natural, nullptr) ||
        !loopEffectsAreCovered(f.natural, allowed_stores, false) ||
        !availableBefore(f, plan, {alpha, beta})) {
        return false;
    }

    Type *i64 = types.i64Ty();
    Type *ep = types.pointerTo(elem);
    plan.calleeReturn = types.voidTy();
    plan.calleeParams = {i64, i64, i64, i64, i64, i64, // bounds
                         ep,  i64, i64,                // C, c_col, c_row
                         ep,  i64, i64,                // A, a_col, a_k
                         ep,  i64, i64,                // B, b_col, b_k
                         elem, elem};                  // alpha, beta
    plan.reuseCallee = true;
    plan.args = {{CallArg::Mode::ToI64, loop0.iterBegin},
                 {CallArg::Mode::ToI64, loop0.iterEnd},
                 {CallArg::Mode::ToI64, loop1.iterBegin},
                 {CallArg::Mode::ToI64, loop1.iterEnd},
                 {CallArg::Mode::ToI64, loop2.iterBegin},
                 {CallArg::Mode::ToI64, loop2.iterEnd},
                 {CallArg::Mode::Decay, out->base},
                 {CallArg::Mode::ToI64, out->colStride},
                 {CallArg::Mode::ToI64, out->rowStride},
                 {CallArg::Mode::Decay, in1->base},
                 {CallArg::Mode::ToI64, in1->colStride},
                 {CallArg::Mode::ToI64, in1->rowStride},
                 {CallArg::Mode::Decay, in2->base},
                 {CallArg::Mode::ToI64, in2->colStride},
                 {CallArg::Mode::ToI64, in2->rowStride},
                 {CallArg::Mode::Raw, alpha},
                 {CallArg::Mode::Raw, beta}};
    plan.record.calleeName =
        elem == types.floatTy() ? "__hetero_gemm_f32" : "__hetero_gemm_f64";
    plan.record.elemKind = elem->kind();
    return true;
}

bool
planReduction(RewritePlan &plan, const Frame &f)
{
    const Solution &sol = f.sol;
    const LoopShape &loop = plan.loop;
    const Value *old_value = sol.lookup("old_value");
    const Value *kernel_out = sol.lookup("kernel_output");
    Value *init = asValue(sol.lookup("init_value"));
    if (!old_value || !kernel_out || !init)
        return false;

    auto reads = sol.lookupArray("read_value[*]");
    auto bases = readBases(sol, reads.size());
    if (!bases || !loopIsSelfContained(f.natural, old_value) ||
        !loopEffectsAreCovered(f.natural, {}, true) ||
        !availableBefore(f, plan, *bases)) {
        return false;
    }

    std::vector<const Value *> inputs(reads.begin(), reads.end());
    inputs.push_back(old_value);
    std::string kname = "__kernel_reduce_" + std::to_string(f.counter++);
    auto slice = planKernelSlice(kernel_out, loop.bodyBegin, inputs,
                                 f.dom, loop.precursor);
    if (!slice)
        return false;

    auto &types = f.module.types();
    Type *acc_type = asValue(old_value)->type();
    plan.calleeReturn = acc_type;
    plan.calleeParams = {types.i64Ty(), types.i64Ty(), acc_type};
    for (Value *base : *bases)
        plan.calleeParams.push_back(types.pointerTo(pointeeElement(base)));
    for (const Value *inv : slice->invariants)
        plan.calleeParams.push_back(inv->type());
    plan.record.calleeName =
        "__hetero_reduce_" + std::to_string(f.counter++);

    plan.kernels.push_back({kname, *slice});
    plan.args = {{CallArg::Mode::ToI64, loop.iterBegin},
                 {CallArg::Mode::ToI64, loop.iterEnd},
                 {CallArg::Mode::Raw, init}};
    for (Value *base : *bases)
        plan.args.push_back({CallArg::Mode::Decay, base});
    for (const Value *inv : slice->invariants)
        plan.args.push_back({CallArg::Mode::Raw, asValue(inv)});
    plan.resultReplaces = asValue(old_value);

    plan.record.numReads = static_cast<int>(reads.size());
    plan.record.numInvariants =
        static_cast<int>(slice->invariants.size());
    for (const Value *r : reads)
        plan.record.readKinds.push_back(r->type()->kind());
    plan.record.elemKind = acc_type->kind();
    return true;
}

bool
planHistogram(RewritePlan &plan, const Frame &f)
{
    const Solution &sol = f.sol;
    const LoopShape &loop = plan.loop;
    const Value *new_value = sol.lookup("new_value");
    const Value *old_value = sol.lookup("old_value");
    const Value *index = sol.lookup("index");
    Value *bin_base = asValue(sol.lookup("bin_base"));
    if (!new_value || !old_value || !index || !bin_base)
        return false;

    auto reads = sol.lookupArray("read_value[*]");
    auto bases = readBases(sol, reads.size());
    if (!bases || !loopIsSelfContained(f.natural, nullptr) ||
        !loopEffectsAreCovered(f.natural, {sol.lookup("store_instr")},
                               true) ||
        !availableBefore(f, plan, *bases)) {
        return false;
    }

    // Kernel computing the updated bin value from (reads..., old).
    std::vector<const Value *> val_inputs(reads.begin(), reads.end());
    val_inputs.push_back(old_value);
    std::string val_name =
        "__kernel_histo_val_" + std::to_string(f.counter);
    auto val_slice = planKernelSlice(new_value, loop.bodyBegin,
                                     val_inputs, f.dom, loop.precursor);
    if (!val_slice)
        return false;
    // Kernel computing the bin index from (reads...).
    std::vector<const Value *> idx_inputs(reads.begin(), reads.end());
    std::string idx_name =
        "__kernel_histo_idx_" + std::to_string(f.counter);
    auto idx_slice = planKernelSlice(index, loop.bodyBegin, idx_inputs,
                                     f.dom, loop.precursor);
    if (!idx_slice)
        return false;

    auto &types = f.module.types();
    plan.calleeReturn = types.voidTy();
    plan.calleeParams = {types.i64Ty(), types.i64Ty(),
                         types.pointerTo(pointeeElement(bin_base))};
    for (Value *base : *bases)
        plan.calleeParams.push_back(types.pointerTo(pointeeElement(base)));
    for (const Value *inv : val_slice->invariants)
        plan.calleeParams.push_back(inv->type());
    for (const Value *inv : idx_slice->invariants)
        plan.calleeParams.push_back(inv->type());
    plan.record.calleeName =
        "__hetero_histogram_" + std::to_string(f.counter++);

    plan.kernels.push_back({val_name, *val_slice});
    plan.kernels.push_back({idx_name, *idx_slice});
    plan.args = {{CallArg::Mode::ToI64, loop.iterBegin},
                 {CallArg::Mode::ToI64, loop.iterEnd},
                 {CallArg::Mode::Decay, bin_base}};
    for (Value *base : *bases)
        plan.args.push_back({CallArg::Mode::Decay, base});
    for (const Value *inv : val_slice->invariants)
        plan.args.push_back({CallArg::Mode::Raw, asValue(inv)});
    for (const Value *inv : idx_slice->invariants)
        plan.args.push_back({CallArg::Mode::Raw, asValue(inv)});

    plan.record.numReads = static_cast<int>(reads.size());
    plan.record.numInvariants =
        static_cast<int>(val_slice->invariants.size());
    plan.record.numIndexInvariants =
        static_cast<int>(idx_slice->invariants.size());
    for (const Value *r : reads)
        plan.record.readKinds.push_back(r->type()->kind());
    plan.record.elemKind = pointeeElement(bin_base)->kind();
    return true;
}

/** Stencil1D and Stencil3D: one loop per claimed comparison. */
bool
planStencil(RewritePlan &plan, const Frame &f)
{
    const Solution &sol = f.sol;
    const LoopShape &outer = plan.loop;
    const int dims = static_cast<int>(plan.idiom->claimVars.size());
    const Value *write_value = sol.lookup("write.value");
    Value *write_base = asValue(sol.lookup("write.base_pointer"));
    if (!write_value || !write_base)
        return false;

    auto reads = sol.lookupArray("read_value[*]");
    auto bases = readBases(sol, reads.size());
    if (!bases)
        return false;
    // The displaced index for dimension d of one read is bound to
    // "read[i].d<d>"; OffsetIndex helper variables live under
    // "read[i].off<d>.".
    std::vector<int64_t> offsets;
    for (size_t i = 0; i < reads.size(); ++i) {
        std::string prefix = "read[" + std::to_string(i) + "]";
        for (int d = 0; d < dims; ++d) {
            std::string dim = std::to_string(d);
            const Value *index = sol.lookup(prefix + ".d" + dim);
            if (!index)
                return false;
            const Instruction *inst = asInst(index);
            if (!inst || inst->is(Opcode::Phi)) {
                offsets.push_back(0); // the iterator itself
                continue;
            }
            const Value *c =
                sol.lookup(prefix + ".off" + dim + ".offset");
            if (!c || !c->isConstant())
                return false;
            int64_t off =
                static_cast<const ir::Constant *>(c)->intValue();
            offsets.push_back(inst->is(Opcode::Sub) ? -off : off);
        }
    }

    // 3D strides must be shared between the write and every read.
    Value *s0 = nullptr;
    Value *s1 = nullptr;
    if (dims == 3) {
        s0 = asValue(sol.lookup("write.s0"));
        s1 = asValue(sol.lookup("write.s1"));
        if (!s0 || !s1)
            return false;
        for (size_t i = 0; i < reads.size(); ++i) {
            std::string prefix = "read[" + std::to_string(i) + "]";
            if (sol.lookup(prefix + ".s0") != s0 ||
                sol.lookup(prefix + ".s1") != s1) {
                return false;
            }
        }
    }

    if (!loopIsSelfContained(f.natural, nullptr) ||
        !loopEffectsAreCovered(
            f.natural, {sol.lookup("write.store_instr")}, true)) {
        return false;
    }

    std::vector<const Value *> inputs(reads.begin(), reads.end());
    // The kernel region is the innermost loop body.
    Instruction *inner_begin = asInst(sol.lookup(
        dims == 1 ? "body_begin"
                  : "begin[" + std::to_string(dims - 1) + "]"));
    if (!inner_begin)
        return false;
    std::string kname = "__kernel_stencil_" + std::to_string(f.counter);
    auto slice = planKernelSlice(write_value, inner_begin, inputs, f.dom,
                                 outer.precursor);
    if (!slice)
        return false;

    auto &types = f.module.types();
    Type *elem = pointeeElement(write_base);
    plan.calleeReturn = types.voidTy();
    for (int d = 0; d < dims; ++d) {
        plan.calleeParams.push_back(types.i64Ty());
        plan.calleeParams.push_back(types.i64Ty());
    }
    plan.calleeParams.push_back(types.pointerTo(elem));
    if (dims == 3) {
        plan.calleeParams.push_back(types.i64Ty());
        plan.calleeParams.push_back(types.i64Ty());
    }
    for (Value *base : *bases)
        plan.calleeParams.push_back(types.pointerTo(pointeeElement(base)));
    for (const Value *inv : slice->invariants)
        plan.calleeParams.push_back(inv->type());
    plan.record.calleeName = "__hetero_stencil" + std::to_string(dims) +
                             "d_" + std::to_string(f.counter++);

    plan.kernels.push_back({kname, *slice});
    for (int d = 0; d < dims; ++d) {
        LoopShape shape =
            dims == 1 ? outer
                      : loopFromSolution(
                            sol, "loop[" + std::to_string(d) + "].");
        plan.args.push_back({CallArg::Mode::ToI64, shape.iterBegin});
        plan.args.push_back({CallArg::Mode::ToI64, shape.iterEnd});
    }
    plan.args.push_back({CallArg::Mode::Decay, write_base});
    if (dims == 3) {
        plan.args.push_back({CallArg::Mode::ToI64, s0});
        plan.args.push_back({CallArg::Mode::ToI64, s1});
    }
    for (Value *base : *bases)
        plan.args.push_back({CallArg::Mode::Decay, base});
    for (const Value *inv : slice->invariants)
        plan.args.push_back({CallArg::Mode::Raw, asValue(inv)});

    plan.record.numReads = static_cast<int>(reads.size());
    plan.record.numInvariants =
        static_cast<int>(slice->invariants.size());
    plan.record.readOffsets = offsets;
    plan.record.stencilDims = dims;
    for (const Value *r : reads)
        plan.record.readKinds.push_back(r->type()->kind());
    plan.record.elemKind = elem->kind();
    return true;
}

/** The planner of a table row's replacement kind, or nullptr. */
Planner
plannerOf(const std::string &kind)
{
    static const std::map<std::string, Planner> planners = {
        {"spmv", planSpmv},           {"gemm", planGemm},
        {"reduce", planReduction},    {"histogram", planHistogram},
        {"stencil1d", planStencil},   {"stencil3d", planStencil},
    };
    auto it = planners.find(kind);
    return it == planners.end() ? nullptr : it->second;
}

} // namespace

// ------------------------------------------------------------- pipeline

std::optional<RewritePlan>
RewriteEngine::plan(const idioms::IdiomMatch &match,
                    analysis::FunctionAnalyses &fa)
{
    // The frame every scheme shares. An idiom claims its loops by
    // their comparisons, outermost first; the outermost is the loop
    // the rewrite bypasses.
    const idioms::IdiomInfo *row = idioms::findIdiom(match.idiom);
    Planner planner = row ? plannerOf(row->rewriteKind) : nullptr;
    RewritePlan plan;
    const analysis::Loop *natural = nullptr;
    if (planner) {
        const std::string &outer = row->claimVars.front();
        plan.loop = loopFromSolution(
            match.solution,
            outer.substr(0, outer.size() - std::strlen("comparison")));
        if (plan.loop.complete())
            natural = findLoop(fa.loopInfo(), plan.loop);
    }
    if (natural) {
        plan.idiom = row;
        plan.function = match.function;
        plan.claimedBlocks.assign(natural->blocks.begin(),
                                  natural->blocks.end());
        plan.record.kind = row->rewriteKind;
    }
    if (!natural ||
        !planner(plan, Frame{module_, counter_, match.solution,
                             fa.domTree(), *natural}) ||
        !canBypassLoop(plan.loop)) {
        ++stats_.unplannable;
        return std::nullopt;
    }
    ++stats_.planned;

    // Backend choice: a forced target, else the policy's.
    Replacement &record = plan.record;
    record.cls = match.cls;
    const runtime::BackendTarget fixed = runtime::fixedTarget(match.cls);
    record.target = fixed;
    auto forced = backends_.forced.find(record.kind);
    if (forced != backends_.forced.end()) {
        record.target = forced->second;
    } else if (backends_.policy == BackendPolicy::CostModel) {
        // Every legal (API, platform) priced against the static
        // trip-count workload of the nest the plan bypasses; the
        // cheapest wins.
        std::vector<runtime::BackendTarget> ranked = runtime::rankTargets(
            match.cls, analysis::estimateWorkload(fa.loopInfo(), natural));
        if (!ranked.empty()) {
            record.target = ranked.front();
            record.rejected.assign(ranked.begin() + 1, ranked.end());
            record.costModeled = true;
        }
    }
    // A library-backed callee names the API entry point the rewritten
    // IR calls, so a non-default backend gets its own shared
    // declaration (e.g. __hetero_gemm_f64__cublas_gpu); the binder
    // gives every such name of a kind the same host handler.
    // DSL-backed schemes already have a unique per-site callee; the
    // target rides along in the Replacement record only. The fixed
    // target keeps the historical name, byte-for-byte.
    if (plan.reuseCallee && !runtime::sameBackend(record.target, fixed))
        record.calleeName += "__" + runtime::backendSymbol(record.target);
    return plan;
}

std::vector<RewritePlan>
RewriteEngine::planAll(const std::vector<idioms::IdiomMatch> &matches)
{
    // Planning never changes a function's CFG, so one lazily built
    // bundle per function serves all of its matches.
    std::map<Function *, analysis::FunctionAnalyses> analyses;
    std::vector<RewritePlan> plans;
    for (size_t i = 0; i < matches.size(); ++i) {
        Function *func = matches[i].function;
        auto p = plan(matches[i],
                      analyses.try_emplace(func, func).first->second);
        if (p) {
            p->matchIndex = i;
            plans.push_back(std::move(*p));
        }
    }
    return plans;
}

std::vector<RewritePlan>
RewriteEngine::resolveOverlaps(std::vector<RewritePlan> plans)
{
    if (plans.size() < 2)
        return plans;

    // Selection order: widest claim first (a nest before the loops
    // inside it), then the library's most-specific-first idiom order,
    // then original match order. Claims are block pointers, so plans
    // of different functions can never collide.
    std::vector<size_t> order(plans.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const RewritePlan &pa = plans[a];
        const RewritePlan &pb = plans[b];
        if (pa.claimedBlocks.size() != pb.claimedBlocks.size())
            return pa.claimedBlocks.size() > pb.claimedBlocks.size();
        // Table rows are stored most specific first.
        if (pa.idiom != pb.idiom)
            return pa.idiom < pb.idiom;
        return pa.matchIndex < pb.matchIndex;
    });

    std::set<const BasicBlock *> claimed;
    std::vector<bool> keep(plans.size(), false);
    for (size_t idx : order) {
        bool clash = false;
        for (BasicBlock *bb : plans[idx].claimedBlocks) {
            if (claimed.count(bb)) {
                clash = true;
                break;
            }
        }
        if (clash) {
            ++stats_.droppedOverlap;
            continue;
        }
        for (BasicBlock *bb : plans[idx].claimedBlocks)
            claimed.insert(bb);
        keep[idx] = true;
    }

    std::vector<RewritePlan> out;
    out.reserve(plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
        if (keep[i])
            out.push_back(std::move(plans[i]));
    }
    return out;
}

std::string
RewriteEngine::validate(const RewritePlan &plan) const
{
    if (!plan.function)
        return "plan has no function";
    bool owned = false;
    for (const auto &f : module_.functions()) {
        if (f.get() == plan.function) {
            owned = true;
            break;
        }
    }
    if (!owned)
        return "function is no longer part of the module";

    // Whitelist of safely-referenceable values, rebuilt against the
    // current IR: the function's live instructions and arguments plus
    // every module-owned constant and global. A recorded pointer may
    // dangle, so liveness is decided by set membership alone — the
    // candidate is never dereferenced (even reading its kind would be
    // a use-after-free).
    std::set<const BasicBlock *> blocks;
    std::set<const Value *> live;
    for (const auto &bb : plan.function->blocks()) {
        blocks.insert(bb.get());
        for (const auto &inst : bb->insts())
            live.insert(inst.get());
    }
    for (const auto &arg : plan.function->args())
        live.insert(arg.get());
    for (const auto &global : module_.globals())
        live.insert(global.get());
    for (const Value *c : module_.internedConstants())
        live.insert(c);

    auto check = [&](const Value *v,
                     const std::string &what) -> std::string {
        if (!v)
            return what + " is null";
        if (!live.count(v)) {
            return what + " references a dangling value or one from "
                          "another function";
        }
        return "";
    };

    if (!plan.loop.complete())
        return "loop shape is incomplete";
    std::string err;
    const std::pair<const Value *, const char *> shape[] = {
        {plan.loop.precursor, "loop precursor"},
        {plan.loop.comparison, "loop comparison"},
        {plan.loop.iterator, "loop iterator"},
        {plan.loop.successor, "loop successor"},
        {plan.loop.bodyBegin, "loop body begin"},
        {plan.loop.latch, "loop latch"},
        {plan.loop.iterBegin, "loop begin bound"},
        {plan.loop.iterEnd, "loop end bound"},
    };
    for (const auto &[v, what] : shape) {
        if (!(err = check(v, what)).empty())
            return err;
    }
    for (const BasicBlock *bb : plan.claimedBlocks) {
        if (!blocks.count(bb))
            return "a claimed block was erased from the function";
    }

    for (const CallArg &arg : plan.args) {
        if (!(err = check(arg.value, "call argument")).empty())
            return err;
    }
    for (const PlannedKernel &pk : plan.kernels) {
        if (!(err = check(pk.slice.out, "kernel output")).empty())
            return err;
        if (!(err = check(pk.slice.regionBegin, "kernel region"))
                 .empty())
            return err;
        for (const Value *v : pk.slice.inputs) {
            if (!(err = check(v, "kernel input")).empty())
                return err;
        }
        for (const Value *v : pk.slice.invariants) {
            if (!(err = check(v, "kernel invariant")).empty())
                return err;
        }
    }
    if (plan.resultReplaces) {
        if (!(err = check(plan.resultReplaces, "replaced result"))
                 .empty())
            return err;
    }

    // Callee declaration: a module-level name clash is fatal unless
    // the scheme deliberately shares the declaration.
    if (Function *existing = module_.functionByName(plan.record.calleeName)) {
        if (!plan.reuseCallee)
            return "callee name '" + plan.record.calleeName +
                   "' already exists in the module";
        if (existing->returnType() != plan.calleeReturn ||
            existing->functionType()->params() != plan.calleeParams) {
            return "existing callee '" + plan.record.calleeName +
                   "' has a mismatching signature";
        }
    }

    // Argument/parameter agreement after commit-time lowering.
    if (plan.args.size() != plan.calleeParams.size())
        return "call argument count does not match the callee";
    auto &types = module_.types();
    for (size_t i = 0; i < plan.args.size(); ++i) {
        const CallArg &arg = plan.args[i];
        Type *t = arg.value->type();
        switch (arg.mode) {
          case CallArg::Mode::Raw:
            break;
          case CallArg::Mode::ToI64:
            t = types.i64Ty();
            break;
          case CallArg::Mode::Decay:
            while (t->isPointer() && t->element()->isArray())
                t = types.pointerTo(t->element()->element());
            break;
        }
        if (t != plan.calleeParams[i]) {
            return "call argument " + std::to_string(i) +
                   " does not match the callee parameter type";
        }
    }

    // The claimed loop must still be bypassable.
    if (!blocks.count(plan.loop.header()) ||
        !blocks.count(plan.loop.exitBlock()))
        return "loop header or exit block was erased";
    if (!canBypassLoop(plan.loop))
        return "loop can no longer be bypassed at its precursor";
    return "";
}

bool
RewriteEngine::commitPlan(
    RewritePlan &plan, std::vector<std::function<void()>> &undo,
    std::map<const Value *, Value *> &remap,
    std::map<Function *, std::set<Function *>> &calleeUsers)
{
    auto resolve = [&remap](Value *v) -> Value * {
        auto it = remap.find(v);
        return it == remap.end() ? v : it->second;
    };

    // Kernels first, then the callee: the module's function order is
    // pinned by Transform.Table1SuiteGolden.
    std::vector<Function *> kernelFuncs;
    for (const PlannedKernel &pk : plan.kernels) {
        Function *kf =
            materializeKernel(module_, pk.name, pk.slice, remap);
        undo.push_back([this, kf] { module_.removeFunction(kf); });
        kernelFuncs.push_back(kf);
    }

    Function *callee = plan.reuseCallee
                           ? module_.functionByName(plan.record.calleeName)
                           : nullptr;
    if (callee) {
        if (callee->returnType() != plan.calleeReturn ||
            callee->functionType()->params() != plan.calleeParams) {
            return false;
        }
    } else {
        callee = module_.createFunction(
            plan.record.calleeName, plan.calleeReturn, plan.calleeParams);
        Function *created = callee;
        if (plan.reuseCallee) {
            // Shared declaration: another function's plan may commit
            // a call to it before this function rolls back. Removing
            // it then would leave that call's callee pointer
            // dangling, so the undo keeps the declaration alive
            // while anyone else references it (an unused leftover
            // declaration is the benign alternative).
            Function *owner = plan.function;
            undo.push_back([this, created, owner, &calleeUsers] {
                const auto it = calleeUsers.find(created);
                if (it != calleeUsers.end()) {
                    for (Function *user : it->second) {
                        if (user != owner)
                            return;
                    }
                }
                module_.removeFunction(created);
            });
        } else {
            undo.push_back(
                [this, created] { module_.removeFunction(created); });
        }
    }
    if (plan.reuseCallee)
        calleeUsers[callee].insert(plan.function);

    // Bypass surgery. canBypassLoop guarantees bypassLoop cannot fail
    // halfway, so the undo entry covers the complete trampoline.
    if (!canBypassLoop(plan.loop))
        return false;
    Instruction *precursor = plan.loop.precursor;
    std::vector<BasicBlock *> oldTargets = precursor->blockTargets();
    BasicBlock *tramp = bypassLoop(module_, plan.loop);
    if (!tramp)
        return false;
    undo.push_back([precursor, oldTargets, tramp] {
        for (size_t i = 0; i < oldTargets.size(); ++i)
            precursor->setBlockTarget(i, oldTargets[i]);
        ir::Function *func = tramp->parent();
        while (!tramp->empty())
            tramp->erase(tramp->insts().back().get());
        func->eraseBlock(tramp);
    });

    // The call, with every recorded value resolved through the remap
    // of earlier commits (a stale accumulator becomes its API call).
    Inserter ins(module_, tramp);
    std::vector<Value *> argv;
    argv.reserve(plan.args.size());
    for (const CallArg &arg : plan.args) {
        Value *v = resolve(arg.value);
        switch (arg.mode) {
          case CallArg::Mode::Raw:
            argv.push_back(v);
            break;
          case CallArg::Mode::ToI64:
            argv.push_back(ins.toI64(v));
            break;
          case CallArg::Mode::Decay:
            argv.push_back(ins.decay(v));
            break;
        }
    }
    Instruction *call = ins.call(callee, argv);

    // Out-of-claim uses of the accumulator become the call result.
    if (plan.resultReplaces) {
        Value *oldv = plan.resultReplaces;
        std::set<const BasicBlock *> claimed(
            plan.claimedBlocks.begin(), plan.claimedBlocks.end());
        std::vector<Instruction *> users(oldv->users());
        for (Instruction *user : users) {
            if (user == call || claimed.count(user->parent()))
                continue;
            for (size_t i = 0; i < user->numOperands(); ++i) {
                if (user->operand(i) == oldv) {
                    user->setOperand(i, call);
                    undo.push_back([user, i, oldv] {
                        user->setOperand(i, oldv);
                    });
                }
            }
        }
        remap[oldv] = call;
    }

    plan.record.callee = callee;
    if (!kernelFuncs.empty())
        plan.record.kernel = kernelFuncs[0];
    if (kernelFuncs.size() > 1)
        plan.record.indexKernel = kernelFuncs[1];
    return true;
}

std::vector<Replacement>
RewriteEngine::commit(std::vector<RewritePlan> plans)
{
    /** Commit-time bookkeeping of one function (atomicity unit). */
    struct FuncState
    {
        std::vector<std::function<void()>> undo;
        std::vector<size_t> committed; ///< indices into `out`
        std::vector<const Value *> remapKeys;
        bool poisoned = false;
    };
    std::map<Function *, FuncState> state;
    std::map<const Value *, Value *> remap;
    /** Which functions hold committed calls to each shared callee. */
    std::map<Function *, std::set<Function *>> calleeUsers;
    std::vector<std::optional<Replacement>> out;
    std::vector<Function *> cleanupOrder;

    for (auto &plan : plans) {
        FuncState &fs = state[plan.function];
        if (fs.poisoned) {
            // A failed commit already rolled this function back;
            // later plans for it are skipped, not half-applied.
            ++stats_.rolledBack;
            continue;
        }
        if (fs.committed.empty() && fs.undo.empty())
            cleanupOrder.push_back(plan.function);
        if (commitPlan(plan, fs.undo, remap, calleeUsers)) {
            fs.committed.push_back(out.size());
            if (plan.resultReplaces)
                fs.remapKeys.push_back(plan.resultReplaces);
            out.emplace_back(plan.record);
            ++stats_.committed;
        } else {
            // Atomic per function: unwind every mutation made to it,
            // this plan's partial work included, and poison it.
            for (auto it = fs.undo.rbegin(); it != fs.undo.rend();
                 ++it) {
                (*it)();
            }
            fs.undo.clear();
            stats_.rolledBack += fs.committed.size() + 1;
            stats_.committed -= fs.committed.size();
            for (size_t idx : fs.committed)
                out[idx].reset();
            fs.committed.clear();
            for (const Value *key : fs.remapKeys)
                remap.erase(key);
            fs.remapKeys.clear();
            // Its calls are gone: stop counting it as a shared-callee
            // user, so later rollbacks can reclaim declarations only
            // this function still appeared to reference.
            for (auto &[callee, users] : calleeUsers)
                users.erase(plan.function);
            fs.poisoned = true;
            // The undo log must have restored a well-formed function;
            // a defect here means rollback itself is broken.
            if (verify_ == ir::VerifyMode::Boundaries)
                ir::verifyOrThrow(plan.function, "rewrite-rollback");
        }
    }

    // Cleanup passes run once per successfully rewritten function —
    // never between replacements, so no plan ever dereferences
    // IR a sibling's cleanup erased.
    for (Function *func : cleanupOrder) {
        const FuncState &fs = state[func];
        if (fs.poisoned || fs.committed.empty())
            continue;
        frontend::removeUnreachableBlocks(func);
        frontend::aggressiveDCE(func);
        if (verify_ == ir::VerifyMode::Boundaries)
            ir::verifyOrThrow(func, "rewrite-commit");
    }
    // Rewrites also add module-level structure (extracted kernels,
    // callee declarations); one whole-module pass covers those.
    if (verify_ == ir::VerifyMode::Boundaries && !cleanupOrder.empty())
        ir::verifyOrThrow(module_, "rewrite-module");

    std::vector<Replacement> result;
    result.reserve(out.size());
    for (auto &r : out) {
        if (r)
            result.push_back(std::move(*r));
    }
    return result;
}

std::vector<Replacement>
RewriteEngine::applyAll(const std::vector<idioms::IdiomMatch> &matches)
{
    std::vector<RewritePlan> plans = planAll(matches);
    plans = resolveOverlaps(std::move(plans));
    std::vector<RewritePlan> valid;
    valid.reserve(plans.size());
    for (auto &plan : plans) {
        std::string err = validate(plan);
        if (err.empty())
            valid.push_back(std::move(plan));
        else
            ++stats_.failedValidation;
    }
    return commit(std::move(valid));
}

} // namespace repro::transform
