#include "ir/verifier.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <unordered_set>

#include "analysis/dominators.h"
#include "ir/printer.h"
#include "support/diagnostics.h"
#include "support/pointer_map.h"

namespace repro::ir {

VerifyMode
defaultVerifyMode()
{
    static const VerifyMode mode = [] {
        const char *env = std::getenv("REPRO_VERIFY");
        if (!env)
            return VerifyMode::Off;
        std::string v(env);
        if (v == "1" || v == "on" || v == "boundaries")
            return VerifyMode::Boundaries;
        return VerifyMode::Off;
    }();
    return mode;
}

std::string
VerifierDiag::str() const
{
    std::ostringstream os;
    os << "rule=" << rule << " function=@" << function;
    if (!block.empty())
        os << " block=%" << block;
    if (instIndex >= 0)
        os << " inst=" << instIndex;
    os << ": " << message;
    return os.str();
}

bool
VerifierReport::ok() const
{
    return errorCount() == 0;
}

size_t
VerifierReport::errorCount() const
{
    size_t n = 0;
    for (const auto &d : diags) {
        if (d.severity == VerifySeverity::Error)
            ++n;
    }
    return n;
}

size_t
VerifierReport::warningCount() const
{
    return diags.size() - errorCount();
}

bool
VerifierReport::hasRule(const std::string &rule) const
{
    for (const auto &d : diags) {
        if (d.rule == rule)
            return true;
    }
    return false;
}

const VerifierDiag &
VerifierReport::firstError() const
{
    for (const auto &d : diags) {
        if (d.severity == VerifySeverity::Error)
            return d;
    }
    throw InternalError("VerifierReport::firstError on a clean report");
}

std::string
VerifierReport::str() const
{
    std::ostringstream os;
    for (const auto &d : diags)
        os << d.str() << "\n";
    return os.str();
}

namespace {

/**
 * Ownership universe of one module: which function, if any, owns each
 * value. Built once per verification and consulted by pointer
 * membership alone — a recorded-then-erased operand is diagnosed
 * without ever being dereferenced.
 */
struct Ownership
{
    /** The module's functions in order; an owner id indexes this. */
    std::vector<const Function *> functions;
    PointerMap functionIds;
    /** Owner id of every argument and instruction, and moduleId for
     *  every constant and global. */
    PointerMap owner;
    int moduleId = 0;

    explicit Ownership(const Module &module)
    {
        std::vector<const Constant *> constants =
            module.internedConstants();
        size_t values = constants.size() + module.globals().size();
        for (const auto &f : module.functions()) {
            values += f->args().size();
            for (const auto &bb : f->blocks())
                values += bb->size();
        }
        owner.reserve(values);
        functionIds.reserve(module.functions().size());
        for (const auto &f : module.functions()) {
            int id = static_cast<int>(functions.size());
            functions.push_back(f.get());
            functionIds.insert(f.get(), id);
            for (const auto &arg : f->args())
                owner.insert(arg.get(), id);
            for (const auto &bb : f->blocks()) {
                for (const auto &inst : bb->insts())
                    owner.insert(inst.get(), id);
            }
        }
        moduleId = static_cast<int>(functions.size());
        for (const Constant *c : constants)
            owner.insert(c, moduleId);
        for (const auto &g : module.globals())
            owner.insert(g.get(), moduleId);
    }

    /** Function owning @p v, or null when no function does. */
    const Function *
    ownerOf(const Value *v) const
    {
        int id = owner.find(v);
        return id >= 0 && id < moduleId ? functions[id] : nullptr;
    }
};

/** Expected operand count per opcode; -1 means variadic. */
int
expectedOperands(Opcode op)
{
    switch (op) {
      case Opcode::Alloca:
        return 0;
      case Opcode::Load:
      case Opcode::SExt:
      case Opcode::ZExt:
      case Opcode::Trunc:
      case Opcode::SIToFP:
      case Opcode::FPToSI:
      case Opcode::FPExt:
      case Opcode::FPTrunc:
        return 1;
      case Opcode::Store:
      case Opcode::ICmp:
      case Opcode::FCmp:
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::SDiv:
      case Opcode::SRem:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::AShr:
      case Opcode::FAdd:
      case Opcode::FSub:
      case Opcode::FMul:
      case Opcode::FDiv:
        return 2;
      case Opcode::Select:
        return 3;
      default:
        return -1; // GEP, Br, Ret, Phi, Call are variadic
    }
}

/** One function's verification pass. */
class FunctionVerifier
{
  public:
    FunctionVerifier(Function *func, const Ownership &owners,
                     VerifierReport &report)
        : func_(func), owners_(owners),
          ownId_(owners.functionIds.find(func)), report_(report)
    {
        reproAssert(ownId_ >= 0, "verifier: function outside its module");
    }

    void
    run()
    {
        if (func_->isDeclaration())
            return;
        indexBlocks();
        checkStructure();
        if (cfgSound_) {
            computeReachability();
            checkDominance();
        }
    }

  private:
    void
    diag(const std::string &rule, VerifySeverity sev,
         const BasicBlock *bb, int inst_index, const std::string &msg)
    {
        VerifierDiag d;
        d.rule = rule;
        d.severity = sev;
        d.function = func_->name();
        if (bb)
            d.block = bb->name();
        d.instIndex = inst_index;
        d.message = msg;
        report_.diags.push_back(std::move(d));
    }

    void
    errorAt(const std::string &rule, const Instruction *inst,
            const std::string &msg)
    {
        const BasicBlock *bb = inst->parent();
        int idx = bb ? bb->indexOf(inst) : -1;
        // Rendering dereferences operands; only safe once membership
        // has established every operand is live.
        std::string detail = badOperands_.count(inst)
                                 ? msg
                                 : msg + " in: " + printInstruction(inst);
        diag(rule, VerifySeverity::Error, bb, idx, detail);
    }

    /**
     * Number this function's blocks and list each block's
     * predecessors in BasicBlock::predecessors() order, in one pass
     * over the terminators. Branch targets are looked up, never
     * dereferenced.
     */
    void
    indexBlocks()
    {
        const auto &blocks = func_->blocks();
        blockIds_.reserve(blocks.size());
        for (size_t b = 0; b < blocks.size(); ++b)
            blockIds_.insert(blocks[b].get(), static_cast<int>(b));
        preds_.assign(blocks.size(), {});
        for (const auto &bb : blocks) {
            for (BasicBlock *succ : bb->successors()) {
                int id = blockIds_.find(succ);
                if (id < 0)
                    continue; // a cfg-edge error
                auto &list = preds_[id];
                if (list.empty() || list.back() != bb.get())
                    list.push_back(bb.get());
            }
        }
        reachable_.assign(blocks.size(), 0);
    }

    bool
    isOwnBlock(const BasicBlock *bb) const
    {
        return blockIds_.contains(bb);
    }

    /** Whether @p bb is a block of this function the entry reaches. */
    bool
    isReachable(const BasicBlock *bb) const
    {
        int id = blockIds_.find(bb);
        return id >= 0 && reachable_[id];
    }

    /** Whether this function owns @p v (an argument or instruction). */
    bool
    owns(const Value *v) const
    {
        return owners_.owner.find(v) == ownId_;
    }

    /** True when @p v may be dereferenced: it is a live value of this
     *  module visible to this function. Decided by set membership. */
    bool
    live(const Value *v) const
    {
        int id = owners_.owner.find(v);
        return id == ownId_ || id == owners_.moduleId;
    }

    /**
     * Membership-validate every operand of @p inst; emit op-dangling /
     * op-cross-function and return false when any operand must not be
     * dereferenced. All later checks skip such instructions.
     */
    bool
    checkOperandLiveness(Instruction *inst)
    {
        bool ok = true;
        for (Value *v : inst->operands()) {
            if (live(v))
                continue;
            ok = false;
            badOperands_.insert(inst);
            if (owners_.functionIds.contains(v)) {
                errorAt("op-cross-function", inst,
                        "function reference used as an operand");
            } else if (const Function *other = owners_.ownerOf(v)) {
                errorAt("op-cross-function", inst,
                        "operand owned by @" + other->name());
            } else {
                errorAt("op-dangling", inst,
                        "operand is not a live value of this module "
                        "(erased or foreign)");
            }
        }
        return ok;
    }

    void
    checkStructure()
    {
        const auto &blocks = func_->blocks();
        for (size_t b = 0; b < blocks.size(); ++b) {
            const auto &bb = blocks[b];
            if (!bb->terminator()) {
                diag("block-term", VerifySeverity::Error, bb.get(), -1,
                     "block has no terminator");
                cfgSound_ = false;
            }
            const auto &preds = preds_[b];
            bool past_phis = false;
            for (size_t i = 0; i < bb->size(); ++i) {
                Instruction *inst = bb->insts()[i].get();
                if (inst->isTerminator() && i + 1 != bb->size()) {
                    errorAt("block-term", inst,
                            "terminator not at end of block");
                    cfgSound_ = false;
                }
                bool operands_ok = checkOperandLiveness(inst);
                if (inst->is(Opcode::Phi)) {
                    checkPhi(inst, preds, past_phis, operands_ok);
                } else {
                    past_phis = true;
                }
                if (inst->is(Opcode::Br))
                    checkBranch(inst);
                if (!operands_ok)
                    continue;
                checkOperandTypes(inst);
                if (inst->is(Opcode::Call))
                    checkCall(inst);
            }
        }
    }

    void
    checkPhi(Instruction *inst, const std::vector<BasicBlock *> &preds,
             bool past_phis, bool operands_ok)
    {
        if (past_phis)
            errorAt("phi-order", inst, "phi after non-phi instruction");
        if (inst->numOperands() != preds.size() ||
            inst->incomingBlocks().size() != inst->numOperands()) {
            errorAt("phi-pred", inst,
                    "phi incoming count differs from predecessors");
        }
        for (BasicBlock *in : inst->incomingBlocks()) {
            if (std::find(preds.begin(), preds.end(), in) ==
                preds.end()) {
                errorAt("phi-pred", inst,
                        "phi incoming from non-predecessor");
            }
        }
        if (!operands_ok)
            return;
        for (Value *v : inst->operands()) {
            if (v->type() != inst->type())
                errorAt("phi-type", inst, "phi incoming type mismatch");
        }
    }

    void
    checkBranch(Instruction *inst)
    {
        size_t want = inst->isConditionalBranch() ? 2 : 1;
        if (inst->blockTargets().size() != want) {
            errorAt("cfg-edge", inst,
                    inst->isConditionalBranch()
                        ? "conditional branch needs 2 targets"
                        : "unconditional branch needs 1 target");
            cfgSound_ = false;
        }
        for (BasicBlock *target : inst->blockTargets()) {
            if (!target || !isOwnBlock(target)) {
                errorAt("cfg-edge", inst,
                        "branch target is not a block of this function");
                cfgSound_ = false;
            }
        }
    }

    void
    checkOperandTypes(Instruction *inst)
    {
        int want = expectedOperands(inst->opcode());
        if (want >= 0 &&
            inst->numOperands() != static_cast<size_t>(want)) {
            errorAt("op-type", inst,
                    "operand count mismatch (got " +
                        std::to_string(inst->numOperands()) +
                        ", opcode takes " + std::to_string(want) + ")");
            return;
        }
        switch (inst->opcode()) {
          case Opcode::Load:
            if (!inst->operand(0)->type()->isPointer())
                errorAt("op-type", inst, "load from non-pointer");
            break;
          case Opcode::Store:
            if (!inst->operand(1)->type()->isPointer()) {
                errorAt("op-type", inst, "store to non-pointer");
            } else if (inst->operand(1)->type()->element() !=
                       inst->operand(0)->type()) {
                errorAt("op-type", inst,
                        "store value/pointer type mismatch");
            }
            break;
          case Opcode::GEP:
            if (inst->numOperands() < 2) {
                errorAt("op-type", inst, "gep needs base and index");
                break;
            }
            if (!inst->operand(0)->type()->isPointer())
                errorAt("op-type", inst, "gep base not a pointer");
            for (size_t k = 1; k < inst->numOperands(); ++k) {
                if (!inst->operand(k)->type()->isInteger())
                    errorAt("op-type", inst, "gep index not an integer");
            }
            break;
          case Opcode::Br:
            if (inst->isConditionalBranch() &&
                !inst->operand(0)->type()->isI1()) {
                errorAt("op-type", inst, "branch condition not i1");
            }
            break;
          case Opcode::Ret:
            if (func_->returnType()->isVoid()) {
                if (inst->numOperands() != 0)
                    errorAt("op-type", inst,
                            "ret with value in void function");
            } else if (inst->numOperands() != 1 ||
                       inst->operand(0)->type() != func_->returnType()) {
                errorAt("op-type", inst, "ret type mismatch");
            }
            break;
          case Opcode::Add:
          case Opcode::Sub:
          case Opcode::Mul:
          case Opcode::SDiv:
          case Opcode::SRem:
          case Opcode::And:
          case Opcode::Or:
          case Opcode::Xor:
          case Opcode::Shl:
          case Opcode::AShr:
            if (!inst->type()->isInteger() ||
                inst->operand(0)->type() != inst->type() ||
                inst->operand(1)->type() != inst->type()) {
                errorAt("op-type", inst,
                        "integer binary type mismatch");
            }
            break;
          case Opcode::FAdd:
          case Opcode::FSub:
          case Opcode::FMul:
          case Opcode::FDiv:
            if (!inst->type()->isFloatingPoint() ||
                inst->operand(0)->type() != inst->type() ||
                inst->operand(1)->type() != inst->type()) {
                errorAt("op-type", inst, "float binary type mismatch");
            }
            break;
          default:
            break;
        }
    }

    void
    checkCall(Instruction *inst)
    {
        Function *callee = inst->callee();
        if (!callee) {
            errorAt("call-callee", inst, "call without a callee");
            return;
        }
        if (!owners_.functionIds.contains(callee)) {
            errorAt("call-callee", inst,
                    "callee is not a function of this module");
            return;
        }
        const auto &params = callee->functionType()->params();
        if (inst->numOperands() != params.size()) {
            errorAt("call-arity", inst,
                    "call argument count mismatch (got " +
                        std::to_string(inst->numOperands()) +
                        ", callee @" + callee->name() + " takes " +
                        std::to_string(params.size()) + ")");
        } else {
            for (size_t k = 0; k < params.size(); ++k) {
                if (inst->operand(k)->type() != params[k]) {
                    errorAt("call-arg-type", inst,
                            "call argument " + std::to_string(k) +
                                " type mismatch against @" +
                                callee->name());
                }
            }
        }
        if (inst->type() != callee->returnType()) {
            errorAt("call-ret-type", inst,
                    "call result type differs from @" +
                        callee->name() + " return type");
        }
    }

    void
    computeReachability()
    {
        const auto &blocks = func_->blocks();
        std::vector<int> work{0};
        reachable_[0] = 1;
        while (!work.empty()) {
            const BasicBlock *bb = blocks[work.back()].get();
            work.pop_back();
            for (BasicBlock *succ : bb->successors()) {
                int id = blockIds_.find(succ);
                if (id >= 0 && !reachable_[id]) {
                    reachable_[id] = 1;
                    work.push_back(id);
                }
            }
        }
        for (size_t b = 0; b < blocks.size(); ++b) {
            if (!reachable_[b]) {
                diag("cfg-unreachable", VerifySeverity::Warning,
                     blocks[b].get(), -1,
                     "block is unreachable from the entry");
            }
        }
    }

    void
    checkDominance()
    {
        analysis::DomTree dom(func_, false);
        const auto &blocks = func_->blocks();
        for (size_t b = 0; b < blocks.size(); ++b) {
            const auto &bb = blocks[b];
            if (!reachable_[b])
                continue; // dominance is undefined off the CFG
            for (const auto &instp : bb->insts()) {
                Instruction *inst = instp.get();
                if (badOperands_.count(inst))
                    continue;
                bool is_phi = inst->is(Opcode::Phi);
                if (is_phi && (inst->incomingBlocks().size() !=
                                   inst->numOperands() ||
                               inst->numOperands() !=
                                   preds_[b].size())) {
                    continue; // already a phi-pred error
                }
                for (size_t k = 0; k < inst->numOperands(); ++k) {
                    Value *v = inst->operand(k);
                    if (!owns(v) || !v->isInstruction())
                        continue;
                    auto *def = static_cast<Instruction *>(v);
                    if (is_phi) {
                        checkPhiIncomingDominance(dom, inst, k, def);
                    } else if (!isReachable(def->parent()) ||
                               !dom.strictlyDominates(def, inst)) {
                        errorAt("dom-use", inst,
                                "use of " + def->handle() +
                                    " is not dominated by its "
                                    "definition");
                    }
                }
            }
        }
    }

    void
    checkPhiIncomingDominance(const analysis::DomTree &dom,
                              Instruction *phi, size_t k,
                              Instruction *def)
    {
        BasicBlock *in = phi->incomingBlocks()[k];
        if (!in || !isOwnBlock(in))
            return; // already a phi-pred error
        Instruction *term = in->terminator();
        if (!term)
            return; // already a block-term error
        if (!isReachable(in))
            return; // dominance is undefined off the CFG
        if (!isReachable(def->parent()) ||
            !dom.dominates(def, term)) {
            errorAt("dom-phi", phi,
                    "phi incoming " + def->handle() +
                        " does not dominate the %" + in->name() +
                        " edge");
        }
    }

    Function *func_;
    const Ownership &owners_;
    /** func_'s owner id in owners_. */
    int ownId_;
    VerifierReport &report_;
    bool cfgSound_ = true;
    /** Index of each block of func_, in layout order. */
    PointerMap blockIds_;
    /** Per block index: predecessors, and reachability from entry. */
    std::vector<std::vector<BasicBlock *>> preds_;
    std::vector<char> reachable_;
    std::unordered_set<const Instruction *> badOperands_;
};

} // namespace

VerifierReport
verifyFunctionDetailed(Function *func)
{
    VerifierReport report;
    Module *module = func->parentModule();
    if (!module)
        return report;
    Ownership owners(*module);
    FunctionVerifier(func, owners, report).run();
    return report;
}

VerifierReport
verifyModuleDetailed(Module &module)
{
    VerifierReport report;
    Ownership owners(module);
    for (const auto &f : module.functions())
        FunctionVerifier(f.get(), owners, report).run();
    return report;
}

std::vector<std::string>
verifyModule(Module &module)
{
    std::vector<std::string> problems;
    for (const auto &d : verifyModuleDetailed(module).diags) {
        if (d.severity == VerifySeverity::Error)
            problems.push_back(d.str());
    }
    return problems;
}

void
verifyOrThrow(Function *func, const std::string &boundary)
{
    VerifierReport report = verifyFunctionDetailed(func);
    if (!report.ok()) {
        throw InternalError("IR verification failed at boundary '" +
                            boundary + "':\n" + report.str());
    }
}

void
verifyOrThrow(Module &module, const std::string &boundary)
{
    VerifierReport report = verifyModuleDetailed(module);
    if (!report.ok()) {
        throw InternalError("IR verification failed at boundary '" +
                            boundary + "':\n" + report.str());
    }
}

} // namespace repro::ir
