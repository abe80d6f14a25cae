#include "solver/compiled.h"

#include <algorithm>
#include <cctype>

#include "support/diagnostics.h"
#include "support/string_utils.h"

namespace repro::solver {

namespace {

/** Opcode spellings accepted by IDL "is <op> instruction" atomics. */
bool
opcodeFromName(const std::string &name, ir::Opcode &op)
{
    using ir::Opcode;
    static const std::map<std::string, Opcode> table = {
        {"add", Opcode::Add}, {"sub", Opcode::Sub},
        {"mul", Opcode::Mul}, {"sdiv", Opcode::SDiv},
        {"srem", Opcode::SRem}, {"fadd", Opcode::FAdd},
        {"fsub", Opcode::FSub}, {"fmul", Opcode::FMul},
        {"fdiv", Opcode::FDiv}, {"load", Opcode::Load},
        {"store", Opcode::Store}, {"gep", Opcode::GEP},
        {"getelementptr", Opcode::GEP}, {"alloca", Opcode::Alloca},
        {"icmp", Opcode::ICmp}, {"fcmp", Opcode::FCmp},
        {"select", Opcode::Select}, {"branch", Opcode::Br},
        {"br", Opcode::Br}, {"return", Opcode::Ret},
        {"ret", Opcode::Ret}, {"phi", Opcode::Phi},
        {"sext", Opcode::SExt}, {"zext", Opcode::ZExt},
        {"trunc", Opcode::Trunc}, {"sitofp", Opcode::SIToFP},
        {"fptosi", Opcode::FPToSI}, {"fpext", Opcode::FPExt},
        {"fptrunc", Opcode::FPTrunc}, {"call", Opcode::Call},
    };
    auto it = table.find(name);
    if (it == table.end())
        return false;
    op = it->second;
    return true;
}

/** Replace the FIRST "[*]" with "[k]" — the probe the interpreted
 *  expandVarList() performs at runtime. */
std::string
expandWildcardName(const std::string &name, int k)
{
    size_t star = name.find("[*]");
    return name.substr(0, star) + "[" + std::to_string(k) + "]" +
           name.substr(star + 3);
}

} // namespace

bool
knownOpcodeName(const std::string &name)
{
    ir::Opcode op;
    return opcodeFromName(name, op);
}

AtomicTraits
resolveAtomicTraits(const Node &node)
{
    AtomicTraits t;
    t.atomic = node.atomic;
    t.opcodeKnown = opcodeFromName(node.opcodeName, t.opcode);
    if (node.opcodeName == "integer")
        t.zero = ZeroKind::Integer;
    else if (node.opcodeName == "float")
        t.zero = ZeroKind::Float;
    else
        t.zero = ZeroKind::Pointer;
    t.argPosition = node.argPosition;
    t.negated = node.negated;
    t.strict = node.strict;
    t.postDom = node.postDom;
    t.flow = node.flow;
    return t;
}

uint32_t
CompiledProgram::compileNode(const Node &node)
{
    uint32_t id = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
    {
        CompiledNode &cn = nodes_[id];
        cn.kind = node.kind;
        if (node.kind == Node::Kind::Atomic) {
            cn.traits = resolveAtomicTraits(node);
            cn.deferred =
                node.atomic == idl::AtomicKind::KernelClosure ||
                node.atomic == idl::AtomicKind::FlowKilledBy;
            cn.varsBegin = static_cast<uint32_t>(varSlots_.size());
            for (const auto &v : node.vars)
                varSlots_.push_back(symbols_.intern(v));
            cn.varsEnd = static_cast<uint32_t>(varSlots_.size());
            cn.listsBegin = static_cast<uint32_t>(lists_.size());
            for (const auto &list : node.varLists) {
                CompiledList cl;
                cl.begin = static_cast<uint32_t>(listEntries_.size());
                for (const auto &name : list) {
                    ListEntry e;
                    if (name.find("[*]") != std::string::npos) {
                        cn.deferred = true;
                        e.wildcard = true;
                        auto [it, inserted] = wildcardRunIds_.emplace(
                            name, static_cast<uint32_t>(
                                      wildcardRuns_.size()));
                        if (inserted)
                            wildcardRuns_.emplace_back();
                        e.id = it->second;
                    } else {
                        e.id = symbols_.intern(name);
                    }
                    listEntries_.push_back(e);
                }
                cl.end = static_cast<uint32_t>(listEntries_.size());
                lists_.push_back(cl);
            }
            cn.listsEnd = static_cast<uint32_t>(lists_.size());
        }
    }
    // Recursing reallocates nodes_, so child/body ids are collected
    // locally and written through a fresh reference afterwards.
    if (node.kind == Node::Kind::And || node.kind == Node::Kind::Or) {
        std::vector<uint32_t> kids;
        kids.reserve(node.children.size());
        for (const auto &c : node.children)
            kids.push_back(compileNode(*c));
        CompiledNode &cn = nodes_[id];
        cn.childBegin = static_cast<uint32_t>(childIds_.size());
        childIds_.insert(childIds_.end(), kids.begin(), kids.end());
        cn.childEnd = static_cast<uint32_t>(childIds_.size());
    } else if (node.kind == Node::Kind::Collect) {
        maxCollect_ = std::max(maxCollect_, node.collectMax);
        uint32_t body = compileNode(*node.collectBody);
        CompiledNode &cn = nodes_[id];
        cn.collectMax = node.collectMax;
        cn.body = body;
    }
    return id;
}

void
CompiledProgram::finalizeTables()
{
    // The wildcard runs must reach any index a binding can carry:
    // collect expansion is bounded by the largest collect, but atomics
    // may also name explicit indices ("read[0].base_pointer") that a
    // generator could bind directly — scan interned names for those.
    int runLen = maxCollect_;
    for (uint32_t s = 0; s < symbols_.size(); ++s) {
        const std::string &name = symbols_.name(s);
        for (size_t i = name.find('['); i != std::string::npos;
             i = name.find('[', i + 1)) {
            size_t j = i + 1;
            while (j < name.size() &&
                   std::isdigit(static_cast<unsigned char>(name[j]))) {
                ++j;
            }
            if (j > i + 1 && j < name.size() && name[j] == ']') {
                // Lowering keeps every index below INT_MAX, so the
                // run length idx + 1 fits int.
                int idx = 0;
                if (!parseDecimal(name.substr(i + 1, j - i - 1), &idx,
                                  std::numeric_limits<int>::max() - 1)) {
                    throw InternalError("variable index out of range in '" +
                                        name + "'");
                }
                runLen = std::max(runLen, idx + 1);
            }
        }
    }

    // Expand wildcard runs and "[#]" templates to fixpoint: expansion
    // interns new names, and a wildcard-expanded name may itself
    // carry the collect marker (or vice versa), so keep processing
    // until the symbol table stops growing.
    for (auto &[name, id] : wildcardRunIds_) {
        for (int k = 0; k < runLen; ++k)
            wildcardRuns_[id].push_back(
                symbols_.intern(expandWildcardName(name, k)));
    }
    for (uint32_t s = 0; s < symbols_.size(); ++s) {
        expandBySlot_.resize(symbols_.size());
        const std::string name = symbols_.name(s);
        if (name.find("[#]") == std::string::npos)
            continue;
        std::vector<uint32_t> expansions;
        expansions.reserve(static_cast<size_t>(maxCollect_));
        for (int k = 0; k < maxCollect_; ++k) {
            expansions.push_back(symbols_.intern(replaceAll(
                name, "[#]", "[" + std::to_string(k) + "]")));
        }
        expandBySlot_[s] = std::move(expansions);
    }
    expandBySlot_.resize(symbols_.size());

    // Name-sorted slot orders: orderedSlots_ drives emission (and the
    // emission dedup key), matching std::map iteration of the
    // interpreted engine byte for byte; templateSlotsByName_ drives
    // the collect dedup key the same way.
    orderedSlots_.resize(symbols_.size());
    for (uint32_t s = 0; s < symbols_.size(); ++s)
        orderedSlots_[s] = s;
    std::sort(orderedSlots_.begin(), orderedSlots_.end(),
              [this](uint32_t a, uint32_t b) {
                  return symbols_.name(a) < symbols_.name(b);
              });
    for (uint32_t s : orderedSlots_) {
        if (isTemplateSlot(s))
            templateSlotsByName_.push_back(s);
    }

    // Slot-to-atomic use CSR (one entry per positional occurrence).
    slotUseBegin_.assign(symbols_.size() + 1, 0);
    for (const CompiledNode &n : nodes_) {
        if (n.kind != Node::Kind::Atomic)
            continue;
        for (uint32_t i = n.varsBegin; i < n.varsEnd; ++i)
            ++slotUseBegin_[varSlots_[i] + 1];
    }
    for (size_t s = 1; s < slotUseBegin_.size(); ++s)
        slotUseBegin_[s] += slotUseBegin_[s - 1];
    slotUseNodes_.resize(slotUseBegin_.back());
    std::vector<uint32_t> fill(slotUseBegin_.begin(),
                               slotUseBegin_.end() - 1);
    for (uint32_t id = 0; id < nodes_.size(); ++id) {
        const CompiledNode &n = nodes_[id];
        if (n.kind != Node::Kind::Atomic)
            continue;
        for (uint32_t i = n.varsBegin; i < n.varsEnd; ++i)
            slotUseNodes_[fill[varSlots_[i]]++] = id;
    }

    // Node-to-atomic And-reachability CSR. Node ids are preorder, so
    // a node's And-reachable atomics are the concatenation of its
    // children's, and every run comes out in node-id order.
    std::vector<std::vector<uint32_t>> reach(nodes_.size());
    for (uint32_t id = static_cast<uint32_t>(nodes_.size()); id-- > 0;) {
        const CompiledNode &n = nodes_[id];
        if (n.kind == Node::Kind::Atomic && !n.deferred) {
            reach[id].push_back(id);
        } else if (n.kind == Node::Kind::And) {
            for (uint32_t c = n.childBegin; c < n.childEnd; ++c) {
                const auto &kid = reach[childIds_[c]];
                reach[id].insert(reach[id].end(), kid.begin(), kid.end());
            }
        }
    }
    andAtomicBegin_.assign(1, 0);
    for (const auto &r : reach) {
        andAtomicNodes_.insert(andAtomicNodes_.end(), r.begin(), r.end());
        andAtomicBegin_.push_back(
            static_cast<uint32_t>(andAtomicNodes_.size()));
    }
}

CompiledProgram::CompiledProgram(const ConstraintProgram &program)
    : name_(program.name)
{
    compileNode(*program.root);
    finalizeTables();
}

} // namespace repro::solver
